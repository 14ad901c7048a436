package kernels

import "math"

// Float32 transcendentals for the GeLU kernels. Go's math.Erf and math.Exp
// work in float64 and cost tens of nanoseconds per call; GeLU needs one
// erf per forward element and one erf plus one exp per backward element,
// which made it the costliest non-GEMM operator of a training step. The
// forms below stay in float32 and keep every result within a few float32
// ulps of the float64 functions (the bounds are pinned in
// fastmath_test.go against math.Erf / math.Exp as the oracle).

// erf32 approximates erf(x) with the rational form used by Eigen and XLA:
// x is clamped to [-4, 4], beyond which erf is ±1 in float32, and
// erf(x) ≈ x·P(x²)/Q(x²) with seven numerator and five denominator
// coefficients. Rounding can land the quotient one ulp past ±1 just inside
// the clamp, so the result is clamped to [-1, 1]; otherwise GeLU of a large
// negative input would come out slightly positive. NaN passes through both
// clamps unchanged. The clamps are plain comparisons: Go's builtin min/max
// handle NaN and signed zeros with extra branches and measured slower.
func erf32(x float32) float32 {
	if x > 4 {
		x = 4
	} else if x < -4 {
		x = -4
	}
	x2 := x * x
	p := x2*erfP0 + erfP1
	p = x2*p + erfP2
	p = x2*p + erfP3
	p = x2*p + erfP4
	p = x2*p + erfP5
	p = x2*p + erfP6
	q := x2*erfQ0 + erfQ1
	q = x2*q + erfQ2
	q = x2*q + erfQ3
	q = x2*q + erfQ4
	e := x * p / q
	if e > 1 {
		return 1
	}
	if e < -1 {
		return -1
	}
	return e
}

// erf32's numerator (erfP*) and denominator (erfQ*) coefficients, highest
// power first. Named so the AVX-512 kernels read the same float32 values.
const (
	erfP0 = -2.72614225801306e-10
	erfP1 = 2.77068142495902e-08
	erfP2 = -2.10102402082508e-06
	erfP3 = -5.69250639462346e-05
	erfP4 = -7.34990630326855e-04
	erfP5 = -2.95459980854025e-03
	erfP6 = -1.60960333262415e-02
	erfQ0 = -1.45660718464996e-05
	erfQ1 = -2.13374055278905e-04
	erfQ2 = -1.68282697438203e-03
	erfQ3 = -7.37332916720468e-03
	erfQ4 = -1.42647390514189e-02
)

const (
	// exp32Max is the largest float32 x whose e^x is finite in float32.
	exp32Max = 88.7228317
	// exp32Min is ln(2^-150): below it e^x rounds to zero in float32.
	exp32Min = -103.972076

	log2E = 1.44269504088896340736 // 1/ln 2
	// ln2Hi + ln2Lo = ln 2, with ln2Hi short enough (9 significant bits)
	// that k·ln2Hi is exact for every k exp32 can produce.
	ln2Hi = 0.693359375
	ln2Lo = -2.12194440e-4
	// roundShift is 1.5·2^23: adding and subtracting it rounds a float32
	// of magnitude below 2^22 to the nearest integer.
	roundShift = 12582912

	// expQ0..expQ3 and 0.5 are Q(r), highest power first: Q interpolates
	// (e^r - 1 - r)/r² at the five Chebyshev nodes of [-ln2/2, ln2/2]; its
	// error is under 1e-8 relative, well below a float32 ulp.
	expQ0 = 1.392617589e-03
	expQ1 = 8.363173343e-03
	expQ2 = 4.166655615e-02
	expQ3 = 1.666657776e-01
)

// exp32 computes e^x in float32 by Cody-Waite reduction: x = k·ln2 + r
// with |r| ≤ ln2/2, e^r from a degree-6 polynomial 1 + r + r²·Q(r), and
// 2^k assembled from exponent bits. Results that fall in the subnormal
// range are scaled in two exact steps so they round once, like the
// float64 reference, instead of flushing to zero. NaN passes through;
// x > exp32Max gives +Inf and x < exp32Min gives 0.
func exp32(x float32) float32 {
	switch {
	case x != x:
		return x
	case x > exp32Max:
		return float32(math.Inf(1))
	case x < exp32Min:
		return 0
	}
	kf := x*log2E + roundShift
	kf -= roundShift
	r := x - kf*ln2Hi
	r -= kf * ln2Lo
	q := r*expQ0 + expQ1
	q = r*q + expQ2
	q = r*q + expQ3
	q = r*q + 0.5
	p := 1 + (r + r*r*q)
	k := int32(kf)
	switch {
	case k >= -126 && k <= 127:
		return p * pow2(k)
	case k > 127: // k == 128: 2^128 overflows, so scale by 2 first
		return p * 2 * pow2(k-1)
	default: // subnormal result: an exact scale, then one rounding
		return p * pow2(k+126) * pow2(-126)
	}
}

// pow2 returns 2^k for a normal exponent k in [-126, 127].
func pow2(k int32) float32 {
	return math.Float32frombits(uint32(k+127) << 23)
}
