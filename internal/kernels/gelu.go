package kernels

// GeLUForward applies the exact Gaussian Error Linear Unit (paper Eq. 1):
//
//	GELU(x) = x * 0.5 * (1 + erf(x / sqrt(2)))
//
// element-wise. dst and x may alias only if the backward pass will not
// need the original input (the engine keeps x).
func GeLUForward(dst, x []float32) {
	checkSameLen("GeLUForward", dst, x)
	parallelFor(len(x), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			dst[i] = geluScalar(x[i])
		}
	})
}

const (
	invSqrt2   = 0.70710678118654752440 // 1/√2
	invSqrt2Pi = 0.39894228040143267794 // 1/√(2π)
)

// geluScalar is the shared scalar GELU used by both the stand-alone
// GeLUForward pass and the fused GEMM epilogues (gemm_epilogue.go,
// gemm_int8.go). Keeping the exact same float32 expression in one place is
// what makes the fused and unfused paths bitwise-identical. erf runs in
// float32 (erf32, fastmath.go), within 1e-6·max(1,|x|) of the float64 GELU.
func geluScalar(x float32) float32 {
	return x * 0.5 * (1 + erf32(x*invSqrt2))
}

// GeLUBackward computes dX = dY * GELU'(x) with the exact derivative
//
//	GELU'(x) = 0.5*(1 + erf(x/sqrt(2))) + x * phi(x)
//
// where phi is the standard normal density, evaluated in float32 with
// erf32 and exp32 (within 1e-6 of the float64 derivative).
func GeLUBackward(dX, dY, x []float32) {
	checkSameLen("GeLUBackward", dX, dY, x)
	parallelFor(len(x), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			v := x[i]
			cdf := 0.5 * (1 + erf32(v*invSqrt2))
			pdf := invSqrt2Pi * exp32(-0.5*v*v)
			dX[i] = dY[i] * (cdf + v*pdf)
		}
	})
}

// GeLUUnfusedKernelCount is the kernel count of an unfused GeLU forward:
// scale (x/sqrt2), erf, add-one, halve, multiply-by-x (Section 3.2.3 lists
// the EW add, multiply, divide and ERF steps).
const GeLUUnfusedKernelCount = 5
