package main

import (
	"bufio"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"strings"
	"syscall"
	"time"

	"demystbert/internal/kernels"
	"demystbert/internal/profile"
	"demystbert/internal/tensor"
)

// hostInfo is the fingerprint every benchmark output carries, so numbers
// from different machines or commits are never compared by accident.
type hostInfo struct {
	CPU        string
	NProc      int
	GOMAXPROCS int
	GoVersion  string
	Commit     string
}

func fingerprint() hostInfo {
	return hostInfo{
		CPU:        cpuModel(),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Commit:     gitCommit("."),
	}
}

// cpuModel reads the first "model name" line of /proc/cpuinfo.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// gitCommit resolves HEAD from the .git directory under root without
// running git; a checkout that is not a repository reports "none".
func gitCommit(root string) string {
	gitDir := filepath.Join(root, ".git")
	head, err := os.ReadFile(filepath.Join(gitDir, "HEAD"))
	if err != nil {
		return "none"
	}
	ref, isRef := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !isRef {
		return ref
	}
	if id, err := os.ReadFile(filepath.Join(gitDir, ref)); err == nil {
		return strings.TrimSpace(string(id))
	}
	packed, err := os.ReadFile(filepath.Join(gitDir, "packed-refs"))
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(packed), "\n") {
		if id, name, ok := strings.Cut(line, " "); ok && name == ref {
			return id
		}
	}
	return "unknown"
}

// roofline is this host's measured compute and memory peaks, the
// denominators for each kernel row's fraction of peak.
type roofline struct {
	GEMMGFLOPs float64 // kernels.GEMM on a square product, best of several
	CopyGBs    float64 // streaming copy, bytes read + written per second
}

const (
	probeGEMMDim   = 768
	probeCopyBytes = 32 << 20
	probeReps      = 5
)

// probeRoofline times kernels.GEMM on a probeGEMMDim cube and a copy of
// probeCopyBytes, keeping the fastest repetition of each.
func probeRoofline(seed uint64) roofline {
	n := probeGEMMDim
	a, b, c := tensor.New(n, n), tensor.New(n, n), tensor.New(n, n)
	rng := tensor.NewRNG(seed)
	for _, t := range []*tensor.Tensor{a, b} {
		d := t.Data()
		for i := range d {
			d[i] = rng.Float32() - 0.5
		}
	}
	best := time.Duration(1 << 62)
	for r := 0; r < probeReps; r++ {
		t0 := time.Now()
		kernels.GEMM(false, false, n, n, n, 1, a.Data(), b.Data(), 0, c.Data())
		best = min(best, time.Since(t0))
	}
	rf := roofline{GEMMGFLOPs: float64(kernels.GEMMFLOPs(n, n, n)) / best.Seconds() / 1e9}

	src, dst := make([]byte, probeCopyBytes), make([]byte, probeCopyBytes)
	for i := range src {
		src[i] = byte(i)
	}
	best = time.Duration(1 << 62)
	for r := 0; r < probeReps; r++ {
		t0 := time.Now()
		copy(dst, src)
		best = min(best, time.Since(t0))
	}
	rf.CopyGBs = 2 * probeCopyBytes / best.Seconds() / 1e9
	return rf
}

// peakRSSMB returns the process's peak resident set size in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// cpuClock is a snapshot of the Go runtime's CPU accounting.
type cpuClock struct{ gc, total, idle float64 }

func readCPUClock() cpuClock {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/cpu/classes/idle:cpu-seconds"},
	}
	metrics.Read(s)
	val := func(i int) float64 {
		if s[i].Value.Kind() != metrics.KindFloat64 {
			return 0
		}
		return s[i].Value.Float64()
	}
	return cpuClock{gc: val(0), total: val(1), idle: val(2)}
}

// gcFrac returns the garbage collector's share of the CPU time the
// process used (available minus idle) between two snapshots.
func gcFrac(from, to cpuClock) float64 {
	return ratio(to.gc-from.gc, (to.total-to.idle)-(from.total-from.idle))
}

// liveHeapKB forces collections and returns the live heap in KiB, the
// baseline for per-step heap growth. The second collection empties the
// sync.Pool victim caches, so pooled scratch buffers are not counted.
func liveHeapKB() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / 1024
}

// growthMark is a snapshot of the profiler's event count and the live
// heap, taken between steps of a traced run.
type growthMark struct {
	step   int // -1 until taken
	heapKB float64
	events int
}

func markGrowth(step int, prof *profile.Profiler) growthMark {
	return growthMark{step: step, heapKB: liveHeapKB(), events: prof.KernelCount()}
}

// reportGrowth prints profiler events and live-heap growth per step
// between two marks. Both grow for as long as a profiler keeps every
// event it records.
func reportGrowth(rep *report, from, to growthMark) {
	n := float64(to.step - from.step)
	if from.step < 0 {
		n = 0
	}
	rep.layerMetric("profile.events_per_step", ratio(float64(to.events-from.events), n), "count")
	rep.layerMetric("mem.heap_growth_kb_per_step", ratio(to.heapKB-from.heapKB, n), "KB")
}
