package kernels

import (
	"math"
	"testing"
)

// FuzzSoftmax: for any row content, output must be a probability
// distribution and never NaN for finite inputs.
func FuzzSoftmax(f *testing.F) {
	f.Add(float32(0), float32(1), float32(-1), float32(1000))
	f.Fuzz(func(t *testing.T, a, b, c, d float32) {
		in := []float32{a, b, c, d}
		for _, v := range in {
			if math.IsNaN(float64(v)) || math.IsInf(float64(v), 0) {
				return
			}
		}
		out := make([]float32, 4)
		Softmax(out, in, 1, 4)
		var sum float64
		for _, v := range out {
			if math.IsNaN(float64(v)) || v < 0 {
				t.Fatalf("softmax(%v) produced %v", in, out)
			}
			sum += float64(v)
		}
		if math.Abs(sum-1) > 1e-4 {
			t.Fatalf("softmax(%v) sums to %v", in, sum)
		}
	})
}

// FuzzGEMMTransposeConsistency: the four transpose paths must agree on
// small random matrices built from the fuzz input.
func FuzzGEMMTransposeConsistency(f *testing.F) {
	f.Add(uint64(1), uint8(3), uint8(4), uint8(5))
	f.Fuzz(func(t *testing.T, seed uint64, ma, na, ka uint8) {
		m, n, k := int(ma%6)+1, int(na%6)+1, int(ka%6)+1
		// Deterministic pseudo-random fill from the seed.
		next := func() float32 {
			seed = seed*6364136223846793005 + 1442695040888963407
			return float32(int32(seed>>33%2000)-1000) / 1000
		}
		a := make([]float32, m*k)
		at := make([]float32, m*k) // A^T stored k×m
		for i := 0; i < m; i++ {
			for p := 0; p < k; p++ {
				v := next()
				a[i*k+p] = v
				at[p*m+i] = v
			}
		}
		b := make([]float32, k*n)
		bt := make([]float32, k*n) // B^T stored n×k
		for p := 0; p < k; p++ {
			for j := 0; j < n; j++ {
				v := next()
				b[p*n+j] = v
				bt[j*k+p] = v
			}
		}
		ref := make([]float32, m*n)
		GEMM(false, false, m, n, k, 1, a, b, 0, ref)
		for _, tc := range []struct {
			ta, tb bool
			av, bv []float32
		}{
			{true, false, at, b},
			{false, true, a, bt},
			{true, true, at, bt},
		} {
			got := make([]float32, m*n)
			GEMM(tc.ta, tc.tb, m, n, k, 1, tc.av, tc.bv, 0, got)
			for i := range ref {
				if math.Abs(float64(got[i]-ref[i])) > 1e-3 {
					t.Fatalf("tA=%v tB=%v diverges at %d: %v vs %v", tc.ta, tc.tb, i, got[i], ref[i])
				}
			}
		}
	})
}

// FuzzGEMMBlockedVsNaive: the cache-blocked packed path must agree with
// the naive reference for arbitrary shapes (including dims that are not
// multiples of the micro-tile), transpose combos, and alpha/beta, on every
// kernel backend the host supports. The seed corpus pins the odd/prime
// dims and scaling factors from the equivalence suite so `go test`
// replays them on every run.
func FuzzGEMMBlockedVsNaive(f *testing.F) {
	// Odd and prime dims straddling the micro-tiles (6x16 and 12x32) and
	// the blocks (120/256); alphaSel/betaSel index {0, 1, -0.5}.
	f.Add(uint64(7), uint16(1), uint16(1), uint16(1), uint8(0), uint8(1), uint8(1))
	f.Add(uint64(11), uint16(3), uint16(17), uint16(63), uint8(1), uint8(1), uint8(0))
	f.Add(uint64(13), uint16(63), uint16(129), uint16(17), uint8(2), uint8(2), uint8(1))
	f.Add(uint64(17), uint16(129), uint16(63), uint16(129), uint8(3), uint8(1), uint8(2))
	f.Add(uint64(19), uint16(121), uint16(257), uint16(31), uint8(2), uint8(0), uint8(1))
	f.Add(uint64(23), uint16(6), uint16(16), uint16(256), uint8(0), uint8(2), uint8(2))
	f.Add(uint64(29), uint16(11), uint16(31), uint16(257), uint8(1), uint8(1), uint8(2))
	f.Add(uint64(31), uint16(13), uint16(33), uint16(255), uint8(2), uint8(2), uint8(0))
	f.Add(uint64(37), uint16(12), uint16(32), uint16(5), uint8(3), uint8(1), uint8(1))
	f.Add(uint64(41), uint16(25), uint16(65), uint16(120), uint8(0), uint8(1), uint8(2))
	f.Add(uint64(43), uint16(119), uint16(95), uint16(121), uint8(3), uint8(2), uint8(1))
	f.Fuzz(func(t *testing.T, seed uint64, mr, nr, kr uint16, combo, alphaSel, betaSel uint8) {
		m, n, k := int(mr%160)+1, int(nr%160)+1, int(kr%160)+1
		transA, transB := combo&1 != 0, combo&2 != 0
		scales := []float32{0, 1, -0.5}
		alpha := scales[int(alphaSel)%len(scales)]
		beta := scales[int(betaSel)%len(scales)]
		next := func() float32 {
			seed = seed*6364136223846793005 + 1442695040888963407
			return float32(int32(seed>>33%2000)-1000) / 1000
		}
		a := make([]float32, m*k)
		for i := range a {
			a[i] = next()
		}
		b := make([]float32, k*n)
		for i := range b {
			b[i] = next()
		}
		c0 := make([]float32, m*n)
		for i := range c0 {
			c0[i] = next()
		}
		want := append([]float32(nil), c0...)
		GEMMNaive(transA, transB, m, n, k, alpha, a, b, beta, want)
		for _, be := range hostBackends {
			got := append([]float32(nil), c0...)
			withBackend(be, func() { blockedFull(transA, transB, m, n, k, alpha, a, b, beta, got, true) })
			if d := maxAbsDiff(got, want); d > tolFor(k) {
				t.Fatalf("%s tA=%v tB=%v m=%d n=%d k=%d alpha=%v beta=%v: max diff %v",
					be.name, transA, transB, m, n, k, alpha, beta, d)
			}
		}
	})
}

// FuzzGeLU: any finite input gives a finite forward and backward within
// the oracle bounds of fastmath_test.go (forward ≤ geluFwdTol·max(1,|x|),
// backward ≤ geluBwdTol absolute, against the float64 GELU). Every input,
// NaN and ±Inf included, also goes through each host backend's row
// kernels inside a ragged row of its neighbours, with x at a
// fuzz-chosen position, which must match the scalar bit for bit.
func FuzzGeLU(f *testing.F) {
	for _, x := range []float32{0, 1, -1, 0.5, -0.7518, 5.6568, -5.6568, 13.2, -13.2, 30, -30, 1e30, -1e30, math.MaxFloat32} {
		f.Add(x)
	}
	f.Fuzz(func(t *testing.T, x float32) {
		bits := math.Float32bits(x)
		row := make([]float32, 1+bits%47)
		for i := range row {
			row[i] = math.Float32frombits(bits + uint32(i) - bits%uint32(len(row)))
		}
		buf := make([]float32, 3*len(row))
		for _, b := range hostBackends {
			if msg := geluRowMismatch(b, row, buf, buf[len(row):], buf[2*len(row):]); msg != "" {
				t.Fatal(msg)
			}
		}
		xv := float64(x)
		if math.IsNaN(xv) || math.IsInf(xv, 0) {
			return
		}
		y := make([]float32, 1)
		dX := make([]float32, 1)
		GeLUForward(y, []float32{x})
		GeLUBackward(dX, []float32{1}, []float32{x})
		if math.IsNaN(float64(y[0])) || math.IsInf(float64(y[0]), 0) ||
			math.IsNaN(float64(dX[0])) || math.IsInf(float64(dX[0]), 0) {
			t.Fatalf("GeLU(%v) = %v, GeLU'(%v) = %v: want finite", x, y[0], x, dX[0])
		}
		if d, bound := math.Abs(float64(y[0])-geluRef64(xv)), geluFwdTol*math.Max(1, math.Abs(xv)); d > bound {
			t.Fatalf("GeLU(%v) = %v, float64 %v (err %.3g > %.3g)", x, y[0], geluRef64(xv), d, bound)
		}
		if d := math.Abs(float64(dX[0]) - geluGradRef64(xv)); d > geluBwdTol {
			t.Fatalf("GeLU'(%v) = %v, float64 %v (err %.3g > %g)", x, dX[0], geluGradRef64(xv), d, geluBwdTol)
		}
	})
}
