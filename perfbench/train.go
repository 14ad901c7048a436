package main

import (
	"fmt"
	"runtime"
	"slices"
	"time"

	"demystbert/internal/data"
	"demystbert/internal/model"
	"demystbert/internal/nn"
	"demystbert/internal/optim"
)

// The train workload: single-process MLM+NSP pre-training in FP32 at the
// paper's Phase-1 sequence length. Vocab 1000 keeps the output head near
// BERT-Large's share of the step (V/(12·L·d) is ~8% here, ~10% in the
// paper); the full 30522 vocab would make it ~55% at this width.
var trainModel = model.Config{
	Vocab: 1000, MaxPos: 128, NumLayers: 4, DModel: 256, Heads: 8, DFF: 1024, DropProb: 0.1,
}

const (
	trainB, trainN = 8, 128
	trainLR        = 0.01
)

// lambCats are the optimizer kernel categories of the training workloads.
var lambCats = []string{"LAMBStage1", "LAMBStage2"}

func runTrain(o *opts) error {
	rep := o.rep
	var (
		m     *model.BERT
		opt   *optim.LAMB
		gen   *data.Generator
		setup = make([]float64, setupReps)
	)
	for i := range setup {
		t0 := time.Now()
		var err error
		if m, err = model.New(trainModel, o.seed); err != nil {
			return err
		}
		opt = optim.NewLAMB(trainLR)
		gen = data.NewGenerator(trainModel.Vocab, 0.15, o.seed+1)
		setup[i] = time.Since(t0).Seconds()
	}
	rep.endToEnd("setup_s", "train_setup_s", median(setup), "s")

	ctx := nn.NewCtx(o.seed + 2)
	params := m.Params()
	var (
		losses, stepMS             []float64
		tokens                     int
		mid                        = growthMark{step: -1}
		fwdMS, bwdMS, optMS, genMS []float64
	)
	clock0 := readCPUClock()
	start := time.Now()
	half, deadline := start.Add(o.seconds/2), start.Add(o.seconds)
	for step := 0; step == 0 || time.Now().Before(deadline); step++ {
		if o.trace && mid.step < 0 && time.Now().After(half) {
			mid = markGrowth(step, ctx.Prof)
		}
		tr := o.traced(step)
		trace := uint64(step + 1)
		root := tr.start(trace, 0, "train.step")
		t0 := time.Now()

		sp := tr.start(trace, root.id(), "data.Generator.Next")
		b := gen.Next(trainB, trainN)
		dGen := sp.end()
		ctx.Prof.BeginIteration()
		sp = tr.start(trace, root.id(), "model.BERT.Forward")
		loss := m.Forward(ctx, b)
		dFwd := sp.end()
		sp = tr.start(trace, root.id(), "model.BERT.Backward")
		m.Backward(ctx)
		dBwd := sp.end()
		sp = tr.start(trace, root.id(), "optim.LAMB.Step")
		opt.Step(ctx, params)
		m.ZeroGrads()
		dOpt := sp.end()

		stepMS = append(stepMS, float64(time.Since(t0))/1e6)
		root.end()
		losses = append(losses, loss)
		tokens += b.RealTokenCount()
		if tr != nil {
			genMS, fwdMS = append(genMS, dGen), append(fwdMS, dFwd)
			bwdMS, optMS = append(bwdMS, dBwd), append(optMS, dOpt)
		}
	}
	clock1 := readCPUClock()
	steps := len(stepMS)
	var end growthMark
	if o.trace {
		// Taken while the optimizer state is still live, as mid was.
		end = markGrowth(steps, ctx.Prof)
		runtime.KeepAlive(opt)
	}
	sorted := sortedCopy(stepMS)
	rep.endToEnd("tok_s", "train_tok_s", float64(tokens)/(sum(stepMS)/1e3), "tok/s")
	rep.endToEnd("p50_ms", "train_step_p50_ms", percentile(sorted, 0.5), "ms")
	rep.info("train_step_p90_ms", percentile(sorted, 0.9), "ms")
	rep.info("train_steps", float64(steps), "count")

	nonFinite := countNonFinite(losses)
	rep.check("train.losses_finite", errIf(nonFinite > 0, "%d of %d losses not finite", nonFinite, steps))
	rep.ops(steps, nonFinite)
	fmt.Fprintf(rep.out, "info   train loss first=%.4f last=%.4f\n", losses[0], losses[steps-1])

	if o.trace {
		rep.layerMetric("data.batch_ms", mean(genMS), "ms")
		rep.layerMetric("model.fwd_ms", mean(fwdMS), "ms")
		rep.layerMetric("model.bwd_ms", mean(bwdMS), "ms")
		rep.layerMetric("optim.step_ms", mean(optMS), "ms")
		rep.layerMetric("runtime.gc_cpu_frac", gcFrac(clock0, clock1), "ratio")
		reportGrowth(rep, mid, end)
		reportKernels(rep, ctx.Prof.Summarize(), steps, mean(stepMS),
			opgraphFLOPs(trainGraph(trainModel, trainB, trainN)), slices.Concat(kernelCats, lambCats))
		o.traceOverhead(stepMS)
	}

	loaded, err := checkpointRoundTrips(o, m)
	if err != nil {
		return err
	}

	// The loaded model must also compute what the saved one computes: the
	// eval-mode loss on a held-out batch is compared bitwise.
	held := data.NewGenerator(trainModel.Vocab, 0.15, o.seed+3).Next(trainB, trainN)
	want := m.Forward(&nn.Ctx{}, held)
	got := loaded.Forward(&nn.Ctx{}, held)
	if !rep.check("ckpt.eval_loss_equal", errIf(want != got, "saved model loss %v, loaded %v", want, got)) {
		rep.ops(0, 1)
	}
	return nil
}
