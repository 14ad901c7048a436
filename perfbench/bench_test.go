package main

import (
	"encoding/json"
	"io"
	"math"
	"os"
	"slices"
	"testing"

	"demystbert/internal/data"
	"demystbert/internal/model"
	"demystbert/internal/serve"
)

func TestPercentileNearestRank(t *testing.T) {
	ten := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, tc := range []struct {
		q    float64
		want float64
	}{{0.1, 1}, {0.5, 5}, {0.55, 6}, {0.9, 9}, {0.99, 10}, {1, 10}} {
		if got := percentile(ten, tc.q); got != tc.want {
			t.Errorf("percentile(1..10, %g) = %g, want %g", tc.q, got, tc.want)
		}
	}
	if got := percentile([]float64{7}, 0.99); got != 7 {
		t.Errorf("percentile of one sample = %g, want 7", got)
	}
	if !math.IsNaN(percentile(nil, 0.5)) {
		t.Error("percentile of no samples should be NaN")
	}
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median(3,1,2) = %g, want 2", got)
	}
}

func TestWindowedPercentileIgnoresOneBadWindow(t *testing.T) {
	// Three windows of ten: 1..10, a stalled window 101..110, and 1..10.
	var vs []float64
	for _, base := range []float64{0, 100, 0} {
		for i := 1; i <= 10; i++ {
			vs = append(vs, base+float64(i))
		}
	}
	if got := windowedPercentile(vs, 10, 0.9); got != 9 {
		t.Errorf("windowed p90 = %g, want 9", got)
	}
	if got := percentile(sortedCopy(vs), 0.9); got != 107 {
		t.Errorf("whole-run p90 = %g, want 107", got)
	}
	// Fewer samples than one window: one window of all of them.
	if got := windowedPercentile([]float64{3, 1, 2}, 10, 0.5); got != 2 {
		t.Errorf("windowed median of 3 samples = %g, want 2", got)
	}
	if !math.IsNaN(windowedPercentile(nil, 10, 0.5)) {
		t.Error("windowed percentile of no samples should be NaN")
	}
}

func TestHighestTailKeepsTenSamplesBeyond(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
	}{
		{10000, 0.999}, // rank 9990 leaves 10
		{9999, 0.99},   // p99.9 would leave 9
		{1000, 0.99},
		{999, 0.9},
		{100, 0.9},
		{20, 0.5},
		{19, 0},
	} {
		if got := highestTail(tc.n, 10); got != tc.want {
			t.Errorf("highestTail(%d, 10) = %g, want %g", tc.n, got, tc.want)
		}
	}
}

func TestInputsDeterministicPerSeed(t *testing.T) {
	a, b, c := synthRequests(7, 300), synthRequests(7, 300), synthRequests(8, 300)
	same, differ := true, false
	for i := range a {
		same = same && slices.Equal(a[i].Tokens, b[i].Tokens)
		differ = differ || !slices.Equal(a[i].Tokens, c[i].Tokens)
		toks := a[i].Tokens
		if len(toks) < serveMinLen || len(toks) > serveMaxLen || toks[0] != data.ClsID || len(maskPositions(toks)) == 0 {
			t.Fatalf("request %d malformed: %v", i, toks)
		}
	}
	if !same {
		t.Error("same seed gave different requests")
	}
	if !differ {
		t.Error("different seeds gave identical requests")
	}

	g1 := data.NewGenerator(trainModel.Vocab, 0.15, 7)
	g2 := data.NewGenerator(trainModel.Vocab, 0.15, 7)
	b1, b2 := g1.Next(trainB, trainN), g2.Next(trainB, trainN)
	if !slices.Equal(b1.Tokens, b2.Tokens) || !slices.Equal(b1.MLMTargets, b2.MLMTargets) {
		t.Error("same seed gave different training batches")
	}
}

func TestChecksRejectCorruptedOutputs(t *testing.T) {
	if n := countNonFinite([]float64{7.1, 6.9}); n != 0 {
		t.Errorf("finite losses flagged: %d", n)
	}
	if n := countNonFinite([]float64{7.1, math.NaN(), math.Inf(1)}); n != 2 {
		t.Errorf("countNonFinite missed corrupted losses: %d, want 2", n)
	}

	cfg := model.Tiny()
	m1, err := model.New(cfg, 3)
	if err != nil {
		t.Fatal(err)
	}
	m2, _ := model.New(cfg, 3)
	if err := paramsEqual(m1.Params(), m2.Params()); err != nil {
		t.Fatalf("identical models reported different: %v", err)
	}
	d := m2.Params()[5].Value.Data()
	d[17] = math.Float32frombits(math.Float32bits(d[17]) ^ 1)
	if paramsEqual(m1.Params(), m2.Params()) == nil {
		t.Error("paramsEqual accepted a one-bit difference")
	}

	positions, want := []int{1, 4}, []int{42, 99}
	good := []serve.Prediction{{Pos: 1, Token: 42}, {Pos: 4, Token: 99}}
	if err := predictionsMatch(good, positions, want); err != nil {
		t.Fatalf("matching predictions rejected: %v", err)
	}
	for name, bad := range map[string][]serve.Prediction{
		"token":    {{Pos: 1, Token: 42}, {Pos: 4, Token: 98}},
		"position": {{Pos: 1, Token: 42}, {Pos: 3, Token: 99}},
		"missing":  {{Pos: 1, Token: 42}},
	} {
		if predictionsMatch(bad, positions, want) == nil {
			t.Errorf("predictionsMatch accepted a wrong %s", name)
		}
	}

	reqs := synthRequests(1, 4)
	outs := []outcome{
		{resp: &serve.Response{Predictions: make([]serve.Prediction, len(maskPositions(reqs[0].Tokens)))}},
		{err: serve.ErrOverloaded},
		{err: &serve.BadRequestError{Reason: "x"}},
		{}, // never answered
	}
	var tl tally
	tl.add(reqs, outs)
	if tl != (tally{sent: 4, ok: 1, rejected: 1, failed: 1}) {
		t.Errorf("tally %+v", tl)
	}
	if accountingHolds(tl.sent, tl.ok, tl.rejected, tl.failed) == nil {
		t.Error("accounting accepted a request with no outcome")
	}
	if err := accountingHolds(tl.sent-1, tl.ok, tl.rejected, tl.failed); err != nil {
		t.Errorf("balanced accounting rejected: %v", err)
	}
}

func TestSelfTimeSubtractsChildUnion(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "step", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 30},
		{ID: 3, Parent: 1, Name: "a", Start: 20, End: 50}, // overlaps the first child
		{ID: 4, Parent: 1, Name: "b", Start: 60, End: 70},
	}
	got := map[string]layerTime{}
	for _, lt := range layerTimes(spans) {
		got[lt.Name] = lt
	}
	if s := got["step"]; s.Count != 1 || s.TotalMS != 100e-6 || math.Abs(s.SelfMS-50e-6) > 1e-12 {
		t.Errorf("step: %+v, want total 100ns self 50ns", s)
	}
	if a := got["a"]; a.Count != 2 || a.SelfMS != a.TotalMS {
		t.Errorf("leaf a: %+v, want self == total", a)
	}
}

func TestResultNeedsEveryMetric(t *testing.T) {
	rep := newReport(io.Discard)
	rep.ops(1, 0)
	for _, d := range endToEndMetrics[1:] {
		rep.endToEnd(d.name, d.name, 1, d.unit)
	}
	if _, err := rep.result(false); err == nil {
		t.Fatal("result with a missing metric accepted")
	}
	rep.endToEnd(endToEndMetrics[0].name, "x", 1, endToEndMetrics[0].unit)
	res, err := rep.result(false)
	if err != nil || !res.Correct || len(res.Metrics) != len(endToEndMetrics) {
		t.Fatalf("complete result: %+v, %v", res, err)
	}
	rep.check("broken", errIf(true, "corrupted"))
	if res, _ := rep.result(false); res.Correct {
		t.Error("a failed check left the result correct")
	}
}

// TestBenchmarkJSONMatchesCode keeps the metric and workload lists in
// BENCHMARK.json and in this program identical.
func TestBenchmarkJSONMatchesCode(t *testing.T) {
	buf, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type def struct{ Name, Unit string }
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []def `json:"end_to_end"`
		PerLayer  []def `json:"per_layer"`
	}
	if err := json.Unmarshal(buf, &spec); err != nil {
		t.Fatal(err)
	}
	compare := func(kind string, got []def, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, code has %d", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s %d: BENCHMARK.json %s [%s], code %s [%s]", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	compare("end_to_end", spec.EndToEnd, endToEndMetrics)
	compare("per_layer", spec.PerLayer, perLayerMetrics)
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json has %d workloads, code has %d", len(spec.Workloads), len(workloads))
	}
	for _, w := range spec.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("workload %q has no implementation", w.Name)
		}
	}
}
