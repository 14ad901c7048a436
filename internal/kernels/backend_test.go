package kernels

import (
	"math"
	"testing"

	"demystbert/internal/tensor"
)

// simdBackends returns the host's assembly backends. They all evaluate
// each C element as one FMA chain over k in order, so they must agree
// bitwise with each other (the scalar kernel rounds the product
// separately and is only tolerance-equal to them).
func simdBackends() []*kernelBackend {
	var out []*kernelBackend
	for _, b := range hostBackends {
		if b != scalarBackend {
			out = append(out, b)
		}
	}
	return out
}

// backendSuiteOutputs runs the GEMM entry points the training step uses —
// blocked (all transposes, ragged dims, alpha/beta), batched, packed,
// fused epilogues of every kind with their saves, and a depth range split
// over two calls — under the active backend and returns every output
// buffer in a fixed order.
func backendSuiteOutputs() [][]float32 {
	r := tensor.NewRNG(91)
	var outs [][]float32
	shapes := [][3]int{{1, 1, 1}, {11, 31, 5}, {13, 33, 17}, {25, 65, 129}, {121, 257, 300}, {130, 40, 513}}
	for _, sh := range shapes {
		m, n, k := sh[0], sh[1], sh[2]
		for _, ta := range []bool{false, true} {
			for _, tb := range []bool{false, true} {
				a, b, c := randSlice(r, m*k), randSlice(r, k*n), randSlice(r, m*n)
				blockedFull(ta, tb, m, n, k, 1.5, a, b, -0.5, c, true)
				outs = append(outs, c)
			}
		}
		a, b := randSlice(r, m*k), randSlice(r, k*n)
		c := randSlice(r, m*n)
		GEMMPacked(false, m, n, k, 1, a, PackWeight(true, n, k, b), 0.5, c)
		outs = append(outs, c)
		for _, kind := range epilogueKinds {
			ep := makeEpilogue(r, kind, m, n, true)
			c := make([]float32, m*n)
			old := SetGEMMPath(GEMMPathFused)
			GEMMPackedEpilogue(false, m, n, k, 1, a, PackWeight(false, n, k, b), ep, c)
			SetGEMMPath(old)
			outs = append(outs, c, ep.X, ep.Mean, ep.InvStd)
		}
	}
	const batch = 6
	for _, d := range [][3]int{{16, 16, 8}, {13, 35, 19}, {128, 128, 64}} {
		m, n, k := d[0], d[1], d[2]
		a, b := randSlice(r, batch*m*k), randSlice(r, batch*k*n)
		c := randSlice(r, batch*m*n)
		batchedBlocked(batch, false, true, m, n, k, 1, a, m*k, b, k*n, 0.25, c, m*n)
		outs = append(outs, c)
	}
	m, n, k := 37, 70, 300
	a, b := randSlice(r, m*k), randSlice(r, k*n)
	outs = append(outs, splitDepthGEMM(m, n, k, 0, a, b), splitDepthGEMM(m, n, k, 101, a, b))
	return outs
}

// splitDepthGEMM computes C = A·B (A m×k, B k×n) through the blocked path
// as two calls, depth [0, k1) then [k1, k) accumulated with beta = 1, the
// way gradient accumulation splits a batch. k1 = 0 is one call.
func splitDepthGEMM(m, n, k, k1 int, a, b []float32) []float32 {
	c := make([]float32, m*n)
	if k1 > 0 {
		a1, a2 := make([]float32, m*k1), make([]float32, m*(k-k1))
		for i := 0; i < m; i++ {
			copy(a1[i*k1:], a[i*k:i*k+k1])
			copy(a2[i*(k-k1):], a[i*k+k1:(i+1)*k])
		}
		blockedFull(false, false, m, n, k1, 1, a1, b[:k1*n], 0, c, true)
		blockedFull(false, false, m, n, k-k1, 1, a2, b[k1*n:], 1, c, true)
		return c
	}
	blockedFull(false, false, m, n, k, 1, a, b, 0, c, true)
	return c
}

func firstBitDiff(a, b []float32) int {
	for i := range a {
		if math.Float32bits(a[i]) != math.Float32bits(b[i]) {
			return i
		}
	}
	return -1
}

// TestSIMDBackendsBitwiseEqual pins AVX2 ≡ AVX-512 (and any further
// assembly backend) bitwise over the whole suite: the wider kernel may
// not change a single bit of any GEMM, epilogue or save buffer.
func TestSIMDBackendsBitwiseEqual(t *testing.T) {
	bs := simdBackends()
	if len(bs) < 2 {
		t.Skip("fewer than two assembly backends on this host")
	}
	var ref [][]float32
	withBackend(bs[0], func() { ref = backendSuiteOutputs() })
	for _, b := range bs[1:] {
		var got [][]float32
		withBackend(b, func() { got = backendSuiteOutputs() })
		for i := range ref {
			if j := firstBitDiff(got[i], ref[i]); j >= 0 {
				t.Fatalf("%s vs %s: output %d differs at %d: %v vs %v", b.name, bs[0].name, i, j, got[i][j], ref[i][j])
			}
		}
	}
}

// TestGEMMSplitDepthContinuationFold: on every backend, splitting the
// depth range over two calls (the second accumulating with beta = 1) is
// bitwise-equal to one call, because the micro-kernels seed their
// accumulators from C. Gradient accumulation relies on this.
func TestGEMMSplitDepthContinuationFold(t *testing.T) {
	r := tensor.NewRNG(92)
	forEachBackend(t, func(t *testing.T) {
		for _, sh := range [][4]int{{37, 70, 300, 101}, {12, 32, 64, 1}, {130, 33, 520, 256}, {5, 9, 7, 3}} {
			m, n, k, k1 := sh[0], sh[1], sh[2], sh[3]
			a, b := randSlice(r, m*k), randSlice(r, k*n)
			whole := splitDepthGEMM(m, n, k, 0, a, b)
			split := splitDepthGEMM(m, n, k, k1, a, b)
			if j := firstBitDiff(split, whole); j >= 0 {
				t.Fatalf("%dx%dx%d split at %d: element %d %v, one call %v", m, n, k, k1, j, split[j], whole[j])
			}
		}
	})
}

// TestWithBackendRestoresPrevious: the test helpers put back whichever
// backend was active, not the host's best, so a suite running under AVX2
// on an AVX-512 host keeps testing AVX2 after a scalar detour.
func TestWithBackendRestoresPrevious(t *testing.T) {
	start := activeBackend
	for _, b := range hostBackends {
		withBackend(b, func() {
			withScalarKernel(func() {
				if activeBackend != scalarBackend {
					t.Fatalf("withScalarKernel under %s: active %s", b.name, activeBackend.name)
				}
			})
			if activeBackend != b {
				t.Fatalf("after withScalarKernel under %s: active %s", b.name, activeBackend.name)
			}
		})
	}
	if activeBackend != start {
		t.Fatalf("active backend %s after the sweep, want %s", activeBackend.name, start.name)
	}
}

// TestBackendGeometry: every host backend's micro-tile fits the edge-tile
// buffer and divides the row block, which the packing code assumes.
func TestBackendGeometry(t *testing.T) {
	for _, b := range hostBackends {
		if b.mr*b.nr > microTileMax || gemmMC%b.mr != 0 {
			t.Errorf("%s: %dx%d tile, microTileMax %d, gemmMC %d", b.name, b.mr, b.nr, microTileMax, gemmMC)
		}
	}
	t.Logf("host backends: %d, active %s", len(hostBackends), activeBackend.name)
}
