package main

import (
	"fmt"
	"io"

	"demystbert/internal/model"
	"demystbert/internal/opgraph"
	"demystbert/internal/profile"
)

// kernelRow is one kernel category's measured cost per unit of work (a
// training step or a serving forward).
type kernelRow struct {
	Cat    string
	MS     float64
	GFLOPs float64 // achieved FLOP rate while the category ran
	GBs    float64 // achieved algorithmic byte rate
	// VsOpgraph is the measured FLOP count over opgraph.Build's for the
	// same dimensions: a count cross-check, 1 when both agree.
	VsOpgraph float64
}

// opgraphFLOPs sums the modeled FLOPs per category of one unit.
func opgraphFLOPs(w opgraph.Workload) map[string]float64 {
	out := map[string]float64{}
	for _, op := range opgraph.Build(w).Ops {
		out[string(op.Category)] += float64(op.TotalFLOPs())
	}
	return out
}

// trainGraph is the modeled FP32 pre-training iteration of cfg at B×n.
func trainGraph(cfg model.Config, b, n int) opgraph.Workload {
	return opgraph.Workload{Cfg: cfg, B: b, SeqLen: n, Precision: opgraph.FP32}
}

// reportKernels turns a profile summary over units of work into
// per-category rows and per-layer metrics: every category in cats, plus
// coverage, the share of unitMS the recorded kernels account for.
func reportKernels(rep *report, sum profile.Summary, units int, unitMS float64, modeled map[string]float64, cats []string) {
	u := float64(units)
	for _, c := range cats {
		st := sum.ByCategory[profile.Category(c)]
		sec := st.Duration.Seconds()
		row := kernelRow{
			Cat:       c,
			MS:        1e3 * sec / u,
			GFLOPs:    ratio(float64(st.FLOPs), sec) / 1e9,
			GBs:       ratio(float64(st.Bytes), sec) / 1e9,
			VsOpgraph: ratio(float64(st.FLOPs)/u, modeled[c]),
		}
		rep.kernels = append(rep.kernels, row)
		rep.layerMetric("kernels."+c+".ms", row.MS, "ms")
		rep.layerMetric("kernels."+c+".gflops", row.GFLOPs, "GFLOP/s")
		rep.layerMetric("kernels."+c+".gbs", row.GBs, "GB/s")
		rep.layerMetric("kernels."+c+".flops_vs_opgraph", row.VsOpgraph, "ratio")
	}
	rep.layerMetric("kernels.coverage", ratio(1e3*sum.Total.Duration.Seconds()/u, unitMS), "ratio")
}

// printKernelTable prints each kernel row against this host's measured
// peaks.
func printKernelTable(w io.Writer, rows []kernelRow, rf roofline) {
	fmt.Fprintf(w, "kernel %-14s %10s %10s %8s %10s %8s %10s\n",
		"category", "ms/unit", "GFLOP/s", "%peak", "GB/s", "%peak", "vs_model")
	for _, r := range rows {
		fmt.Fprintf(w, "kernel %-14s %10.3f %10.2f %8.2f %10.2f %8.2f %10.4f\n",
			r.Cat, r.MS, r.GFLOPs, 100*ratio(r.GFLOPs, rf.GEMMGFLOPs),
			r.GBs, 100*ratio(r.GBs, rf.CopyGBs), r.VsOpgraph)
	}
}
