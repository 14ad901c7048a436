package kernels

import (
	"math"
	"testing"
)

// The float64 oracle: the exact GELU and its derivative through math.Erf
// and math.Exp, the form the kernels used before moving to float32.
func geluRef64(x float64) float64 {
	return x * 0.5 * (1 + math.Erf(x/math.Sqrt2))
}

func geluGradRef64(x float64) float64 {
	return 0.5*(1+math.Erf(x/math.Sqrt2)) + x*invSqrt2Pi*math.Exp(-0.5*x*x)
}

// Stated accuracy bounds of the float32 GeLU kernels against the oracle.
const (
	geluFwdTol = 1e-6 // forward: |err| ≤ geluFwdTol·max(1, |x|)
	geluBwdTol = 1e-6 // backward: |err| ≤ geluBwdTol, absolute
	erf32Tol   = 1e-6 // erf32: |err| ≤ erf32Tol, absolute
	exp32Ulps  = 2    // exp32: ≤ 2 float32 ulps over the normal range
)

// geluGrid is a dense grid on [-30, 30] plus the clamp and special points.
func geluGrid() []float32 {
	const n = 1 << 20
	xs := make([]float32, 0, n+16)
	for i := 0; i <= n; i++ {
		xs = append(xs, float32(-30+60*float64(i)/n))
	}
	c := float32(4 * math.Sqrt2) // erf32's clamp point, seen through x/√2
	return append(xs, 0, float32(math.Copysign(0, -1)), 4, -4, c, -c,
		math.Nextafter32(c, 10), math.Nextafter32(-c, -10), 1e-30, -1e-30)
}

// ulpDiff is |got - want| in units of the float32 spacing at want; below
// the normal range the spacing is that of the subnormals, 2^-149.
func ulpDiff(got float32, want float64) float64 {
	w := float32(want)
	ulp := float64(math.Nextafter32(float32(math.Abs(float64(w))), float32(math.Inf(1))) - float32(math.Abs(float64(w))))
	return math.Abs(float64(got)-want) / ulp
}

func TestErf32MatchesFloat64(t *testing.T) {
	var worst float64
	for _, x := range geluGrid() {
		got := erf32(x)
		if d := math.Abs(float64(got) - math.Erf(float64(x))); d > erf32Tol {
			t.Fatalf("erf32(%v) = %v, float64 %v (err %.3g > %g)", x, got, math.Erf(float64(x)), d, erf32Tol)
		} else if d > worst {
			worst = d
		}
		if got > 1 || got < -1 {
			t.Fatalf("erf32(%v) = %v outside [-1, 1]", x, got)
		}
	}
	t.Logf("erf32 max abs error %.3g on [-30, 30]", worst)
}

func TestErf32SpecialValues(t *testing.T) {
	inf := float32(math.Inf(1))
	for _, tc := range []struct{ x, want float32 }{
		{0, 0}, {4, 1}, {-4, -1}, {5, 1}, {-5, -1}, {1e30, 1}, {-1e30, -1}, {inf, 1}, {-inf, -1},
	} {
		if got := erf32(tc.x); got != tc.want {
			t.Errorf("erf32(%v) = %v, want %v", tc.x, got, tc.want)
		}
	}
	if got := erf32(float32(math.Copysign(0, -1))); got != 0 || !math.Signbit(float64(got)) {
		t.Errorf("erf32(-0) = %v, want -0", got)
	}
	if got := erf32(float32(math.NaN())); !math.IsNaN(float64(got)) {
		t.Errorf("erf32(NaN) = %v, want NaN", got)
	}
}

// TestExp32WithinTwoUlps walks the whole normal output range, both edges
// included, and a stretch of the subnormal range below it.
func TestExp32WithinTwoUlps(t *testing.T) {
	lo := float32(math.Log(0x1p-126)) // ln of the smallest normal float32
	var worst float64
	check := func(x float32) {
		want := math.Exp(float64(x))
		if d := ulpDiff(exp32(x), want); d > exp32Ulps {
			t.Fatalf("exp32(%v) = %v, float64 %v (%.3g ulps > %d)", x, exp32(x), want, d, exp32Ulps)
		} else if d > worst {
			worst = d
		}
	}
	const n = 1 << 20
	for i := 0; i <= n; i++ {
		check(float32(float64(lo) + (exp32Max-float64(lo))*float64(i)/n))
	}
	for _, edge := range []float32{lo, exp32Max, 0} {
		x := edge
		for i := 0; i < 4096; i++ { // the float32s just around each edge
			check(x)
			x = math.Nextafter32(x, 0)
		}
		x = edge
		for i := 0; i < 4096 && x <= exp32Max; i++ {
			check(x)
			x = math.Nextafter32(x, 1000)
		}
	}
	for x := float32(-103.9); x < lo; x += 1.0 / 64 { // subnormal results
		check(x)
	}
	t.Logf("exp32 max error %.3g ulps", worst)
}

func TestExp32SpecialValues(t *testing.T) {
	inf := float32(math.Inf(1))
	for _, tc := range []struct{ x, want float32 }{
		{0, 1}, {float32(math.Copysign(0, -1)), 1}, {inf, inf}, {-inf, 0},
		{math.Nextafter32(exp32Max, 1000), inf}, {89, inf}, {-104, 0}, {-1e30, 0},
	} {
		if got := exp32(tc.x); got != tc.want {
			t.Errorf("exp32(%v) = %v, want %v", tc.x, got, tc.want)
		}
	}
	if got := exp32(float32(math.NaN())); !math.IsNaN(float64(got)) {
		t.Errorf("exp32(NaN) = %v, want NaN", got)
	}
	// Just above the underflow cutoff the result is a normal float32, not 0.
	if got := exp32(-87.3); got < 0x1p-126 {
		t.Errorf("exp32(-87.3) = %v, want a normal float32 near %v", got, math.Exp(-87.3))
	}
}

func TestGeLUForwardMatchesFloat64(t *testing.T) {
	x := geluGrid()
	y := make([]float32, len(x))
	GeLUForward(y, x)
	var worst float64
	for i, v := range x {
		d := math.Abs(float64(y[i]) - geluRef64(float64(v)))
		bound := geluFwdTol * math.Max(1, math.Abs(float64(v)))
		if d > bound {
			t.Fatalf("GeLU(%v) = %v, float64 %v (err %.3g > %.3g)", v, y[i], geluRef64(float64(v)), d, bound)
		}
		worst = math.Max(worst, d/math.Max(1, math.Abs(float64(v))))
	}
	t.Logf("GeLU forward max error %.3g·max(1,|x|) on [-30, 30]", worst)
}

func TestGeLUBackwardMatchesFloat64(t *testing.T) {
	x := geluGrid()
	dY := make([]float32, len(x))
	for i := range dY {
		dY[i] = 1
	}
	dX := make([]float32, len(x))
	GeLUBackward(dX, dY, x)
	var worst float64
	for i, v := range x {
		d := math.Abs(float64(dX[i]) - geluGradRef64(float64(v)))
		if d > geluBwdTol {
			t.Fatalf("GeLU'(%v) = %v, float64 %v (err %.3g > %g)", v, dX[i], geluGradRef64(float64(v)), d, geluBwdTol)
		}
		worst = math.Max(worst, d)
	}
	t.Logf("GeLU backward max abs error %.3g on [-30, 30]", worst)
}

// TestGeLUSpecialValues: signed zeros, huge finite inputs and the
// non-finite inputs follow the float64 oracle, NaN and Inf included.
func TestGeLUSpecialValues(t *testing.T) {
	inf := math.Inf(1)
	x := []float32{0, float32(math.Copysign(0, -1)), 1e30, -1e30, math.MaxFloat32, -math.MaxFloat32,
		float32(inf), float32(-inf), float32(math.NaN())}
	y := make([]float32, len(x))
	dY := make([]float32, len(x))
	for i := range dY {
		dY[i] = 1
	}
	dX := make([]float32, len(x))
	GeLUForward(y, x)
	GeLUBackward(dX, dY, x)
	agrees := func(got float32, want, tol float64) bool {
		if math.IsNaN(want) || math.IsInf(want, 0) {
			return math.IsNaN(float64(got)) == math.IsNaN(want) && (math.IsNaN(want) || float64(got) == want)
		}
		return math.Abs(float64(got)-want) <= tol
	}
	for i, v := range x {
		xv := float64(v)
		if want := geluRef64(xv); !agrees(y[i], want, geluFwdTol*math.Max(1, math.Abs(xv))) {
			t.Errorf("GeLU(%v) = %v, float64 %v", v, y[i], want)
		}
		if want := geluGradRef64(xv); !agrees(dX[i], want, geluBwdTol) {
			t.Errorf("GeLU'(%v) = %v, float64 %v", v, dX[i], want)
		}
	}
}
