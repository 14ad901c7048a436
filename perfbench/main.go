// Command perfbench is the repository's benchmark. Each run builds one
// workload's inputs from a seed, drives the library through its public
// functions for a fixed time, checks the outputs, and prints one JSON
// result as its last line:
//
//	bash perfbench/run.sh --workload train|serve|dist --seed N --seconds S --trace 0|1
//
// With --trace 0 the result holds the end-to-end metrics, measured with
// the benchmark's own spans off. With --trace 1 it holds the per-layer
// metrics of a separate run that records a span around every public call
// the benchmark makes. README.md in this directory describes the
// workloads and what each metric should move.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"

	"demystbert/internal/kernels"
)

// metricDef names a metric of the result line and its unit.
type metricDef struct{ name, unit string }

// endToEndMetrics are what a user of each workload sees. Every workload
// reports every one of them; README.md maps each to the workload's own
// name for it (tok_s on train is train_tok_s, and so on). The p90 and p99
// latencies are printed but not gated: serve's p90 follows the shared
// host's CPU steal and spread past any bound the gate allows (README.md).
var endToEndMetrics = []metricDef{
	{"setup_s", "s"},
	{"peak_rss_mb", "MB"},
	{"tok_s", "tok/s"},
	{"p50_ms", "ms"},
}

// kernelCats are the kernel categories every workload runs (the forward
// pass); the optimizer categories only appear in the training workloads
// and are printed as extra lines there.
var kernelCats = []string{
	"GeLU", "FCGEMM", "Linear", "AttnBGEMM", "ScaleMaskDRSM",
	"DRRCLN", "Output", "Embedding", "Other",
}

// perLayerMetrics are the layer metrics every workload measures. Layer
// metrics that exist on only one workload (serve.*, distnet.*, optim.*,
// the LAMB kernel rows) are printed by name before the result line.
// Checkpoint save and load times are here rather than end to end: they
// swing with the host's memory contention by more than any bound the
// gate allows (see README.md).
var perLayerMetrics = func() []metricDef {
	defs := []metricDef{
		{"data.batch_ms", "ms"},
		{"model.fwd_ms", "ms"},
		{"ckpt_save_s", "s"},
		{"ckpt_load_s", "s"},
		{"kernels.coverage", "ratio"},
	}
	for _, c := range kernelCats {
		defs = append(defs,
			metricDef{"kernels." + c + ".ms", "ms"},
			metricDef{"kernels." + c + ".gflops", "GFLOP/s"},
			metricDef{"kernels." + c + ".gbs", "GB/s"},
			metricDef{"kernels." + c + ".flops_vs_opgraph", "ratio"},
		)
	}
	return append(defs,
		metricDef{"profile.events_per_step", "count"},
		metricDef{"mem.heap_growth_kb_per_step", "KB"},
		metricDef{"runtime.gc_cpu_frac", "ratio"},
		metricDef{"trace.overhead_frac", "ratio"},
		metricDef{"host.gemm_peak_gflops", "GFLOP/s"},
		metricDef{"host.copy_peak_gbs", "GB/s"},
	)
}()

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// report collects one run's metrics, check outcomes and operation
// counts, and prints every metric by name as it is recorded.
type report struct {
	out       io.Writer
	e2e       map[string]metricValue
	layer     map[string]metricValue
	attempted int
	failed    int
	checksOK  bool
	kernels   []kernelRow
}

func newReport(out io.Writer) *report {
	return &report{out: out, e2e: map[string]metricValue{}, layer: map[string]metricValue{}, checksOK: true}
}

// endToEnd records a result-line metric under its generic name and
// prints it under the workload's own name.
func (r *report) endToEnd(name, workloadName string, v float64, unit string) {
	r.e2e[name] = metricValue{v, unit}
	fmt.Fprintf(r.out, "metric %-28s %14.6g %-8s (%s)\n", workloadName, v, unit, name)
}

// info prints a measured value that is not part of the result line.
func (r *report) info(name string, v float64, unit string) {
	fmt.Fprintf(r.out, "metric %-28s %14.6g %s\n", name, v, unit)
}

// layerMetric records and prints one per-layer metric.
func (r *report) layerMetric(name string, v float64, unit string) {
	r.layer[name] = metricValue{v, unit}
	fmt.Fprintf(r.out, "layer  %-40s %14.6g %s\n", name, v, unit)
}

// ops counts attempted and failed operations.
func (r *report) ops(attempted, failed int) {
	r.attempted += attempted
	r.failed += failed
}

// check prints a correctness check's outcome; a failing check makes the
// run incorrect. The caller counts the operations it failed.
func (r *report) check(name string, err error) bool {
	if err != nil {
		r.checksOK = false
		fmt.Fprintf(r.out, "check  %-28s FAIL: %v\n", name, err)
		return false
	}
	fmt.Fprintf(r.out, "check  %-28s ok\n", name)
	return true
}

// result assembles the last line from the metrics trace selects.
func (r *report) result(trace bool) (result, error) {
	defs, got := endToEndMetrics, r.e2e
	if trace {
		defs, got = perLayerMetrics, r.layer
	}
	res := result{
		Correct:   r.checksOK && r.failed == 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   map[string]metricValue{},
	}
	var missing []string
	for _, d := range defs {
		v, ok := got[d.name]
		if !ok {
			missing = append(missing, d.name)
			continue
		}
		res.Metrics[d.name] = metricValue{v.Value, d.unit}
	}
	if len(missing) > 0 {
		sort.Strings(missing)
		return res, fmt.Errorf("metrics not measured: %s", strings.Join(missing, ", "))
	}
	if res.Attempted < 1 {
		return res, fmt.Errorf("no operations attempted")
	}
	return res, nil
}

// setupReps is how many times each workload repeats its set-up; the
// median is setup_s.
const setupReps = 15

// opts is what every workload receives.
type opts struct {
	seed    uint64
	seconds time.Duration
	trace   bool
	spans   *spanLog // nil unless trace
	rep     *report
}

// traced returns the span log for unit i of a traced run: odd units
// record spans and even units do not, so the run measures its own
// tracing overhead. It is nil for every unit of an untraced run.
func (o *opts) traced(i int) *spanLog {
	if o.trace && i%2 == 1 {
		return o.spans
	}
	return nil
}

// traceOverhead reports the traced units' median over the untraced
// units' median, minus one.
func (o *opts) traceOverhead(unitMS []float64) {
	var on, off []float64
	for i, v := range unitMS {
		if o.traced(i) != nil {
			on = append(on, v)
		} else {
			off = append(off, v)
		}
	}
	o.rep.layerMetric("trace.overhead_frac", ratio(median(on), median(off))-1, "ratio")
}

var workloads = map[string]func(*opts) error{
	"train": runTrain,
	"serve": runServe,
	"dist":  runDist,
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "train, serve or dist")
	seed := fs.Uint64("seed", 1, "seed for every weight, batch and request")
	seconds := fs.Int("seconds", 20, "measured time per run")
	traceFlag := fs.Int("trace", 0, "1 records spans and reports per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fn, ok := workloads[*workload]
	if !ok || *seconds < 1 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload train|serve|dist, --seconds >= 1, --trace 0|1\n")
		return 2
	}
	if n := runtime.NumCPU(); runtime.GOMAXPROCS(0) > n {
		runtime.GOMAXPROCS(n)
		kernels.SetMaxWorkers(n)
	}
	rep := newReport(stdout)
	h := fingerprint()
	fmt.Fprintf(stdout, "host   cpu=%q nproc=%d gomaxprocs=%d go=%s commit=%s\n",
		h.CPU, h.NProc, h.GOMAXPROCS, h.GoVersion, h.Commit)
	fmt.Fprintf(stdout, "run    workload=%s seed=%d seconds=%d trace=%d\n", *workload, *seed, *seconds, *traceFlag)
	o := &opts{
		seed:    *seed,
		seconds: time.Duration(*seconds) * time.Second,
		trace:   *traceFlag == 1,
		rep:     rep,
	}
	if o.trace {
		o.spans = newSpanLog()
	}
	if err := fn(o); err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", *workload, err)
		return 1
	}
	// Peak RSS is read before the roofline probe allocates its buffers.
	rep.endToEnd("peak_rss_mb", *workload+"_peak_rss_mb", peakRSSMB(), "MB")

	rf := probeRoofline(*seed)
	fmt.Fprintf(stdout, "host   gemm_peak=%.2f GFLOP/s (kernels.GEMM %d^3) copy_peak=%.2f GB/s (%d MiB)\n",
		rf.GEMMGFLOPs, probeGEMMDim, rf.CopyGBs, probeCopyBytes>>20)
	if o.trace {
		rep.layerMetric("host.gemm_peak_gflops", rf.GEMMGFLOPs, "GFLOP/s")
		rep.layerMetric("host.copy_peak_gbs", rf.CopyGBs, "GB/s")
		printKernelTable(stdout, rep.kernels, rf)
		if err := os.MkdirAll(".bench_build", 0o755); err != nil {
			fmt.Fprintf(stderr, "perfbench: %v\n", err)
			return 1
		}
		path := fmt.Sprintf(".bench_build/spans-%s-%d.json", *workload, *seed)
		times, err := o.spans.write(path)
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: %v\n", err)
			return 1
		}
		fmt.Fprintf(stdout, "spans  written to %s\n", path)
		for _, lt := range times {
			fmt.Fprintf(stdout, "self   %-32s n=%-6d total=%10.3f ms self=%10.3f ms\n", lt.Name, lt.Count, lt.TotalMS, lt.SelfMS)
		}
	}

	res, err := rep.result(o.trace)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: encoding result: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}
