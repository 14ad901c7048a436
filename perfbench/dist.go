package main

import (
	"fmt"
	"net"
	"slices"
	"sync"
	"time"

	"demystbert/internal/data"
	"demystbert/internal/distnet"
	"demystbert/internal/model"
	"demystbert/internal/obs"
	"demystbert/internal/trace"
)

// The dist workload: world-2 data-parallel training over loopback TCP,
// both ranks as goroutines of this process. It is the only workload that
// runs the ring all-reduce, gradient bucketing and comm/compute overlap,
// and it runs long because the trainer never resets its profiler: the
// per-step memory growth of an append-only event log shows here.
var distModel = model.Config{
	Vocab: 1000, MaxPos: 64, NumLayers: 4, DModel: 128, Heads: 8, DFF: 512, DropProb: 0.1,
}

const (
	distWorld        = 2
	distB, distN     = 4, 64 // per rank
	distBucketBytes  = 128 << 10
	distLR           = 0.01
	distHistComm     = "distnet_comm_seconds"
	distHistExposed  = "distnet_exposed_comm_seconds"
	distHistHidden   = "distnet_hidden_comm_seconds"
	distAllreduceCtr = "distnet_allreduces_total"
)

// rankSet is one established world-2 group with a model and trainer per
// rank.
type rankSet struct {
	groups   [distWorld]*distnet.Group
	models   [distWorld]*model.BERT
	trainers [distWorld]*distnet.Trainer
}

func (rs *rankSet) close() {
	for _, g := range rs.groups {
		if g != nil {
			g.Close()
		}
	}
}

// joinRanks rendezvouses both ranks over loopback and builds identical
// models and overlapped trainers on them.
func joinRanks(seed uint64) (*rankSet, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("rendezvous listener: %w", err)
	}
	rs := &rankSet{}
	var errs [distWorld]error
	var wg sync.WaitGroup
	for r := 0; r < distWorld; r++ {
		cfg := distnet.Config{Rank: r, World: distWorld, Addr: ln.Addr().String()}
		if r == 0 {
			cfg.Listener = ln
		}
		wg.Add(1)
		go func(r int, cfg distnet.Config) {
			defer wg.Done()
			rs.groups[r], errs[r] = distnet.Join(cfg)
		}(r, cfg)
	}
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			rs.close()
			return nil, fmt.Errorf("rank %d join: %w", r, err)
		}
	}
	for r := range rs.groups {
		if rs.models[r], err = model.New(distModel, seed); err != nil {
			rs.close()
			return nil, err
		}
		rs.trainers[r] = distnet.NewTrainer(rs.groups[r], rs.models[r], seed, distBucketBytes, true, distLR)
	}
	return rs, nil
}

// obsValue reads an obs histogram's running sum or a counter's value.
// Both are process-wide, so they cover both ranks.
func obsValue(name string) float64 {
	m, ok := obs.Default.Find(name)
	if !ok {
		return 0
	}
	if m.Kind == "histogram" {
		return m.Sum
	}
	return m.Value
}

func runDist(o *opts) error {
	rep := o.rep
	var rs *rankSet
	setup := make([]float64, setupReps)
	for i := range setup {
		t0 := time.Now()
		next, err := joinRanks(o.seed)
		if err != nil {
			return err
		}
		setup[i] = time.Since(t0).Seconds()
		if rs != nil {
			rs.close()
		}
		rs = next
	}
	defer rs.close()
	rep.endToEnd("setup_s", "dist_setup_s", median(setup), "s")

	// Every rank's batch comes from one shared generator, as each rank of
	// a real run would derive the global batch and keep its shard.
	gen := data.NewGenerator(distModel.Vocab, 0.15, o.seed+1)
	var (
		stepMS, losses, genMS []float64
		tokens                int
		mid                   = growthMark{step: -1}
		tracers               [distWorld]*trace.Tracer
	)
	if o.trace {
		for r := range tracers {
			tracers[r] = trace.New(r, 0)
		}
	}
	prof0 := rs.trainers[0].Ctx.Prof
	comm0, exp0, hid0, calls0 := obsValue(distHistComm), obsValue(distHistExposed), obsValue(distHistHidden), obsValue(distAllreduceCtr)
	tx0, rx0 := rs.groups[0].WireBytes()
	clock0 := readCPUClock()
	start := time.Now()
	half, deadline := start.Add(o.seconds/2), start.Add(o.seconds)
	for step := 0; step == 0 || time.Now().Before(deadline); step++ {
		if o.trace && mid.step < 0 && time.Now().After(half) {
			mid = markGrowth(step, prof0)
		}
		tr := o.traced(step)
		id := uint64(step + 1)
		root := tr.start(id, 0, "dist.step")
		t0 := time.Now()
		sp := tr.start(id, root.id(), "data.Generator.Next")
		var batches [distWorld]*data.Batch
		for r := range batches {
			batches[r] = gen.Next(distB, distN)
			tokens += batches[r].RealTokenCount()
		}
		if tr != nil {
			genMS = append(genMS, sp.end())
		}
		var (
			wg       sync.WaitGroup
			stepLoss [distWorld]float64
			errs     [distWorld]error
		)
		for r := 0; r < distWorld; r++ {
			t := rs.trainers[r]
			// The trainer's own step spans (fwd, bwd, upd, per-bucket
			// all-reduce) are on only for traced steps.
			t.Tracer, t.Ctx.Tracer = nil, nil
			if tr != nil {
				t.Tracer, t.Ctx.Tracer = tracers[r], tracers[r]
			}
			wg.Add(1)
			go func(r int) {
				defer wg.Done()
				s := tr.start(id, root.id(), "distnet.Trainer.Step")
				stepLoss[r], _, errs[r] = rs.trainers[r].Step(batches[r])
				s.end()
			}(r)
		}
		wg.Wait()
		stepMS = append(stepMS, float64(time.Since(t0))/1e6)
		root.end()
		for r := range errs {
			if errs[r] != nil {
				return fmt.Errorf("rank %d step %d: %w", r, step, errs[r])
			}
		}
		losses = append(losses, stepLoss[:]...)
	}
	clock1 := readCPUClock()
	steps := len(stepMS)
	sorted := sortedCopy(stepMS)
	rep.endToEnd("tok_s", "dist_tok_s", float64(tokens)/(sum(stepMS)/1e3), "tok/s")
	rep.endToEnd("p50_ms", "dist_step_p50_ms", percentile(sorted, 0.5), "ms")
	rep.info("dist_step_p90_ms", percentile(sorted, 0.9), "ms")
	rep.info("dist_steps", float64(steps), "count")

	nonFinite := countNonFinite(losses)
	rep.check("dist.losses_finite", errIf(nonFinite > 0, "%d of %d rank losses not finite", nonFinite, len(losses)))
	parityFailed := 0
	if !rep.check("dist.ranks_bitwise_equal", paramsEqual(rs.models[0].Params(), rs.models[1].Params())) {
		parityFailed = 1
	}
	rep.ops(steps, min(steps, nonFinite+parityFailed))
	fmt.Fprintf(rep.out, "info   dist rank-0 loss first=%.4f last=%.4f\n", losses[0], losses[len(losses)-2])

	if o.trace {
		rankSteps := float64(distWorld * steps)
		comm := obsValue(distHistComm) - comm0
		exposed := obsValue(distHistExposed) - exp0
		hidden := obsValue(distHistHidden) - hid0
		tx, rx := rs.groups[0].WireBytes()
		rep.layerMetric("data.batch_ms", mean(genMS), "ms")
		rep.layerMetric("distnet.comm_ms", 1e3*comm/rankSteps, "ms")
		rep.layerMetric("distnet.exposed_ms", 1e3*exposed/rankSteps, "ms")
		rep.layerMetric("distnet.hidden_frac", ratio(hidden, comm), "ratio")
		rep.layerMetric("distnet.wire_bytes_per_step", float64(tx-tx0+rx-rx0)/float64(steps), "B")
		rep.layerMetric("distnet.allreduce_calls_per_step", (obsValue(distAllreduceCtr)-calls0)/rankSteps, "count")
		rep.layerMetric("runtime.gc_cpu_frac", gcFrac(clock0, clock1), "ratio")
		reportTrainerSpans(rep, tracers)
		reportGrowth(rep, mid, markGrowth(steps, prof0))
		reportKernels(rep, prof0.Summarize(), steps, mean(stepMS),
			opgraphFLOPs(trainGraph(distModel, distB, distN)), slices.Concat(kernelCats, lambCats))
		o.traceOverhead(stepMS)
	}

	_, err := checkpointRoundTrips(o, rs.models[0])
	return err
}

// reportTrainerSpans reads the trainers' own step spans: rank 0's mean
// forward, backward and update times, and the mean cross-rank spread of
// ready times that trace.Stragglers computes (both ranks share this
// process's clock, so no offset is applied).
func reportTrainerSpans(rep *report, tracers [distWorld]*trace.Tracer) {
	var shards []trace.Shard
	for r, t := range tracers {
		shards = append(shards, trace.Shard{Rank: r, Spans: t.Spans()})
	}
	phase := map[string][]float64{}
	for _, s := range tracers[0].Spans() {
		phase[s.Name] = append(phase[s.Name], float64(s.Dur)/1e6)
	}
	rep.layerMetric("model.fwd_ms", mean(phase["fwd"]), "ms")
	rep.layerMetric("model.bwd_ms", mean(phase["bwd"]), "ms")
	rep.layerMetric("optim.step_ms", mean(phase["upd"]), "ms")
	var spread []float64
	for _, st := range trace.Stragglers(trace.Merge(shards)) {
		spread = append(spread, st.SpreadUS/1e3)
	}
	rep.layerMetric("distnet.rank_skew_ms", mean(spread), "ms")
}
