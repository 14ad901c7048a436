package main

import (
	"errors"
	"fmt"
	"math"
	"math/rand/v2"
	"sync"
	"time"

	"demystbert/internal/data"
	"demystbert/internal/model"
	"demystbert/internal/nn"
	"demystbert/internal/opgraph"
	"demystbert/internal/profile"
	"demystbert/internal/serve"
)

// The serve workload: an in-process serve.Engine fed through Submit with
// short masked-LM queries, the regime of the repository's serving
// measurements. Kernels run forward-only at tiny shapes, so per-forward
// fixed costs (the vocabulary-sized decoder, the scheduler, the pack
// cache) dominate; a kernel change that helps train's large shapes but
// adds per-call cost shows up here.
var serveModel = model.Config{
	Vocab: 12000, MaxPos: 64, NumLayers: 2, DModel: 64, Heads: 4, DFF: 256, DropProb: 0.1,
}

var serveBuckets = []int{4, 8}

const (
	serveMinLen, serveMaxLen = 3, 8
	serveMaskFrac            = 0.15
	serveMaxBatch            = 64
	serveMaxDelay            = 2 * time.Millisecond
	// serveRate is phase 1's fixed open-loop rate, about a third of what
	// the engine drains in full batches on a 2-core host. Requests arrive
	// faster than MaxDelay, so batches stay small and cost more per
	// request: at 1500 and 1800 req/s a host losing a quarter of its CPU
	// to other tenants fell behind and the queue grew for whole runs.
	serveRate = 1000
	// serveBacklog requests are submitted at once in each phase-2 round:
	// 16 full batches, with few enough client goroutines that they do not
	// dominate the process's memory.
	serveBacklog = 1024
	// serveProbes requests of each phase are re-run serially to check
	// the served predictions.
	serveProbes = 64
	// predictReps is the number of profiled forwards the traced run
	// makes for the model and kernel rows.
	predictReps = 200
	// phase2Trace and predictTrace start the trace ids of phase-2
	// requests and of the profiled forwards.
	phase2Trace  = 1 << 32
	predictTrace = 1 << 48
)

// synthRequests builds n requests from seed with the benchmark's own
// generator: [CLS] plus random words, each word replaced by [MASK] with
// probability serveMaskFrac and at least one mask per request.
func synthRequests(seed uint64, n int) []*serve.Request {
	rng := rand.New(rand.NewPCG(seed, 0x5eed5e7e))
	reqs := make([]*serve.Request, n)
	for i := range reqs {
		ln := serveMinLen + rng.IntN(serveMaxLen-serveMinLen+1)
		toks := make([]int, ln)
		toks[0] = data.ClsID
		masked := false
		for j := 1; j < ln; j++ {
			if rng.Float64() < serveMaskFrac {
				toks[j], masked = data.MaskID, true
			} else {
				toks[j] = data.FirstWordID + rng.IntN(serveModel.Vocab-data.FirstWordID)
			}
		}
		if !masked {
			toks[1+rng.IntN(ln-1)] = data.MaskID
		}
		reqs[i] = &serve.Request{Tokens: toks}
	}
	return reqs
}

// maskPositions lists the [MASK] positions of a token sequence.
func maskPositions(toks []int) []int {
	var ps []int
	for i, t := range toks {
		if t == data.MaskID {
			ps = append(ps, i)
		}
	}
	return ps
}

// outcome is one request's fate.
type outcome struct {
	resp   *serve.Response
	err    error
	latMS  float64 // from the scheduled send time (phase 1) or round start (phase 2)
	lateMS float64 // how late the generator sent it
}

// tally counts requests: sent as the generator dispatches them, then
// each outcome. A refused request is rejected; any other error or a
// response without one prediction per mask is failed. A request that
// came back with neither a response nor an error counts as none of the
// three, so the accounting check catches it.
type tally struct{ sent, ok, rejected, failed int }

func (t *tally) add(reqs []*serve.Request, outs []outcome) {
	t.sent += len(reqs)
	for i, oc := range outs {
		switch {
		case errors.Is(oc.err, serve.ErrOverloaded) || errors.Is(oc.err, serve.ErrDraining):
			t.rejected++
		case oc.err != nil:
			t.failed++
		case oc.resp == nil:
		case len(oc.resp.Predictions) != len(maskPositions(reqs[i].Tokens)):
			t.failed++
		default:
			t.ok++
		}
	}
}

// openLoop sends reqs at a fixed rate regardless of how fast responses
// come back, timing each request from when it was due.
func openLoop(o *opts, e *serve.Engine, reqs []*serve.Request, rate float64) []outcome {
	interval := time.Duration(float64(time.Second) / rate)
	outs := make([]outcome, len(reqs))
	var wg sync.WaitGroup
	start := time.Now()
	for i := range reqs {
		due := start.Add(time.Duration(i) * interval)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		outs[i].lateMS = float64(time.Since(due)) / 1e6
		wg.Add(1)
		go func(i int, due time.Time) {
			defer wg.Done()
			sp := o.traced(i).start(uint64(i+1), 0, "serve.Engine.Submit")
			resp, err := e.Submit(reqs[i])
			sp.end()
			outs[i].resp, outs[i].err = resp, err
			outs[i].latMS = float64(time.Since(due)) / 1e6
		}(i, due)
	}
	wg.Wait()
	return outs
}

// backlog submits every request at once and waits for all of them.
func backlog(o *opts, e *serve.Engine, reqs []*serve.Request, traceBase uint64) []outcome {
	outs := make([]outcome, len(reqs))
	var wg sync.WaitGroup
	start := time.Now()
	for i := range reqs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sp := o.spans.start(traceBase+uint64(i), 0, "serve.Engine.Submit")
			resp, err := e.Submit(reqs[i])
			sp.end()
			outs[i] = outcome{resp: resp, err: err, latMS: float64(time.Since(start)) / 1e6}
		}(i)
	}
	wg.Wait()
	return outs
}

func runServe(o *opts) error {
	rep := o.rep
	cfg := serve.Config{
		Model: serveModel, Seed: o.seed,
		MaxBatch: serveMaxBatch, MaxDelay: serveMaxDelay, Buckets: serveBuckets,
		// Room for a whole backlog plus phase 1's in-flight requests, so
		// no request is refused by design.
		QueueCap: 4 * serveBacklog,
	}
	var e *serve.Engine
	setup := make([]float64, setupReps)
	for i := range setup {
		t0 := time.Now()
		eng, err := serve.New(cfg)
		if err != nil {
			return err
		}
		setup[i] = time.Since(t0).Seconds()
		if e != nil {
			e.Close()
		}
		e = eng
	}
	defer e.Close()
	rep.endToEnd("setup_s", "serve_setup_s", median(setup), "s")

	phase1 := o.seconds / 2
	reqs1 := synthRequests(o.seed, int(serveRate*phase1.Seconds()))
	clock0 := readCPUClock()
	outs1 := openLoop(o, e, reqs1, serveRate)

	// Phase 2: backlog rounds for the other half of the run.
	var (
		tl, tl1               tally
		drainTok              float64
		roundTokS             []float64
		batchSum, bucketSlots float64
		reqs2                 []*serve.Request
		outs2                 []outcome
	)
	tl1.add(reqs1, outs1)
	deadline := time.Now().Add(o.seconds - phase1)
	for round := 0; round == 0 || time.Now().Before(deadline); round++ {
		reqs := synthRequests(o.seed+uint64(round)+1, serveBacklog)
		outs := backlog(o, e, reqs, phase2Trace+uint64(round*serveBacklog))
		tl.add(reqs, outs)
		roundMS, roundTok := 0.0, 0.0
		for i, oc := range outs {
			roundMS = max(roundMS, oc.latMS)
			if oc.err == nil {
				roundTok += float64(len(reqs[i].Tokens))
				batchSum += float64(oc.resp.BatchSize)
				bucketSlots += float64(oc.resp.Bucket)
			}
		}
		drainTok += roundTok
		roundTokS = append(roundTokS, roundTok/(roundMS/1e3))
		if round == 0 {
			reqs2, outs2 = reqs, outs
		}
	}
	clock1 := readCPUClock()
	e.Close() // drains; the model is idle from here on

	var lat, queue, service, late []float64
	for _, oc := range outs1 {
		late = append(late, oc.lateMS)
		if oc.err == nil {
			lat = append(lat, oc.latMS)
			queue = append(queue, oc.resp.QueueMS)
			service = append(service, oc.resp.TotalMS-oc.resp.QueueMS)
		}
	}
	if len(lat) == 0 {
		return fmt.Errorf("no phase-1 request succeeded")
	}
	// The end-to-end figures are medians over the run's pieces, so a stall
	// of the shared host in one piece does not move them: the drain rate
	// over phase 2's rounds, and the median latency over phase 1's
	// one-second windows. Percentiles of all of phase 1 are printed too.
	sorted := sortedCopy(lat)
	rep.endToEnd("tok_s", "serve_drain_tok_s", median(roundTokS), "tok/s")
	rep.endToEnd("p50_ms", "serve_p50_ms", windowedPercentile(lat, serveRate, 0.5), "ms")
	rep.info("serve_drain_rounds", float64(len(roundTokS)), "count")
	rep.info("serve_p90_ms", windowedPercentile(lat, serveRate, 0.9), "ms")
	rep.info("serve_phase1_p50_ms", percentile(sorted, 0.5), "ms")
	rep.info("serve_phase1_p90_ms", percentile(sorted, 0.9), "ms")
	rep.info("serve_p99_ms", percentile(sorted, 0.99), "ms")
	if q := highestTail(len(sorted), 10); q > 0.99 {
		rep.info(fmt.Sprintf("serve_p%g_ms", 100*q), percentile(sorted, q), "ms")
	}
	rep.info("serve_phase1_samples", float64(len(sorted)), "count")
	rep.info("serve_offered_rps", serveRate, "req/s")

	// Correctness: every request has exactly one outcome, and a seeded
	// sample of each phase predicts what a serial PredictMaskedAt at the
	// request's natural length predicts on the same weights.
	total := tally{tl.sent + tl1.sent, tl.ok + tl1.ok, tl.rejected + tl1.rejected, tl.failed + tl1.failed}
	rep.check("serve.accounting", accountingHolds(total.sent, total.ok, total.rejected, total.failed))
	mismatched := probeServed(o, e.Model(), reqs1, outs1, 1) + probeServed(o, e.Model(), reqs2, outs2, 2)
	rep.ops(total.sent, total.rejected+total.failed+mismatched)

	if o.trace {
		rep.layerMetric("serve.queue_ms_p50", median(queue), "ms")
		rep.layerMetric("serve.queue_ms_p99", percentile(sortedCopy(queue), 0.99), "ms")
		rep.layerMetric("serve.service_ms_p50", median(service), "ms")
		rep.layerMetric("serve.batch_size_mean", ratio(batchSum, float64(tl.ok)), "count")
		rep.layerMetric("serve.pad_efficiency", ratio(drainTok, bucketSlots), "ratio")
		rep.layerMetric("serve.rejected", float64(total.rejected), "count")
		rep.layerMetric("serve.failed", float64(total.failed), "count")
		rep.layerMetric("loadgen.late_ms_p99", percentile(sortedCopy(late), 0.99), "ms")
		rep.layerMetric("runtime.gc_cpu_frac", gcFrac(clock0, clock1), "ratio")
		var phase1MS []float64
		for _, oc := range outs1 {
			phase1MS = append(phase1MS, oc.latMS)
		}
		o.traceOverhead(phase1MS)
		profilePredict(o, e.Model(), int(math.Round(ratio(batchSum, float64(tl.ok)))))
	}

	_, err := checkpointRoundTrips(o, e.Model())
	return err
}

// probeServed re-runs a seeded sample of successful requests through
// PredictMaskedAt one at a time and returns how many disagree.
func probeServed(o *opts, m *model.BERT, reqs []*serve.Request, outs []outcome, phase uint64) int {
	rng := rand.New(rand.NewPCG(o.seed, phase))
	mismatched, probed := 0, 0
	var firstErr error
	for _, i := range rng.Perm(len(reqs)) {
		if probed == serveProbes {
			break
		}
		if outs[i].err != nil || outs[i].resp == nil {
			continue
		}
		probed++
		toks := reqs[i].Tokens
		b := &data.Batch{B: 1, N: len(toks), Tokens: append([]int(nil), toks...), Segments: make([]int, len(toks))}
		positions := maskPositions(toks)
		want := m.PredictMaskedAt(&nn.Ctx{}, b, [][]int{positions})[0]
		if err := predictionsMatch(outs[i].resp.Predictions, positions, want); err != nil {
			mismatched++
			if firstErr == nil {
				firstErr = fmt.Errorf("request %d: %w", i, err)
			}
		}
	}
	if firstErr == nil && probed == 0 {
		firstErr = fmt.Errorf("no successful request to probe")
	}
	o.rep.check(fmt.Sprintf("serve.phase%d_matches_serial", phase),
		errIf(firstErr != nil, "%d of %d probes differ; first: %v", mismatched, probed, firstErr))
	return mismatched
}

// profilePredict times PredictMaskedAt with its own profiling context on
// fresh batches of the measured mean batch size at the largest bucket:
// the model and kernel rows of the serve workload, per forward.
func profilePredict(o *opts, m *model.BERT, batch int) {
	rep := o.rep
	batch = max(batch, 1)
	n := serveBuckets[len(serveBuckets)-1]
	gen := data.NewGenerator(serveModel.Vocab, serveMaskFrac, o.seed+5)
	ctx := &nn.Ctx{Prof: profile.New()}
	var genMS, fwdMS []float64
	mid := growthMark{step: -1}
	for i := 0; i < predictReps; i++ {
		if i == predictReps/2 {
			mid = markGrowth(i, ctx.Prof)
		}
		trace := uint64(predictTrace + i)
		sp := o.spans.start(trace, 0, "data.Generator.Next")
		b := gen.Next(batch, n)
		genMS = append(genMS, sp.end())
		positions := make([][]int, batch)
		for s := range positions {
			positions[s] = maskPositions(b.Tokens[s*n : (s+1)*n])
		}
		ctx.Prof.BeginIteration()
		sp = o.spans.start(trace, 0, "model.BERT.PredictMaskedAt")
		m.PredictMaskedAt(ctx, b, positions)
		fwdMS = append(fwdMS, sp.end())
	}
	rep.layerMetric("data.batch_ms", mean(genMS), "ms")
	rep.layerMetric("model.fwd_ms", mean(fwdMS), "ms")
	rep.layerMetric("model.predict_ms", mean(fwdMS), "ms")
	rep.layerMetric("model.predict_batch", float64(batch), "count")
	reportGrowth(rep, mid, markGrowth(predictReps, ctx.Prof))
	modeled := opgraphFLOPs(opgraph.Workload{
		Cfg: serveModel, B: batch, SeqLen: n, Precision: opgraph.FP32,
		Mode: opgraph.Inference, Optimizer: opgraph.OptNone,
	})
	reportKernels(rep, ctx.Prof.Summarize(), predictReps, mean(fwdMS), modeled, kernelCats)
}
