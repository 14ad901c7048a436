package kernels

import "sync"

// GeLUForward applies the exact Gaussian Error Linear Unit (paper Eq. 1):
//
//	GELU(x) = x * 0.5 * (1 + erf(x / sqrt(2)))
//
// element-wise. dst and x may alias only if the backward pass will not
// need the original input (the engine keeps x).
func GeLUForward(dst, x []float32) {
	checkSameLen("GeLUForward", dst, x)
	runGeLU(dst, nil, x)
}

// geluGrain is the element-range chunk the GeLU passes hand to the pool,
// a multiple of the 16-lane vector width.
const geluGrain = 4096

// geluState is the pooled dispatch body of GeLUForward (dY nil) and
// GeLUBackward; pooling it keeps both passes allocation-free.
type geluState struct{ dst, dY, x []float32 }

var geluPool = sync.Pool{New: func() any { return new(geluState) }}

func (s *geluState) runRange(lo, hi int) {
	if s.dY == nil {
		activeBackend.gelu(s.dst[lo:hi], s.x[lo:hi])
		return
	}
	activeBackend.geluBwd(s.dst[lo:hi], s.dY[lo:hi], s.x[lo:hi])
}

func runGeLU(dst, dY, x []float32) {
	s := geluPool.Get().(*geluState)
	s.dst, s.dY, s.x = dst, dY, x
	parallelRun(len(x), geluGrain, s)
	s.dst, s.dY, s.x = nil, nil, nil
	geluPool.Put(s)
}

// The GeLU row kernels behind GeLUForward, GeLUBackward and the
// bias+GeLU epilogues come with the kernel backend (kernelBackend.gelu,
// .geluBwd): the scalar loops below, or on AVX-512 hosts 16-lane assembly
// bit-identical to them (gelu_amd64.s).

// geluRowGo sets dst[i] = geluScalar(x[i]); dst may alias x.
func geluRowGo(dst, x []float32) {
	dst = dst[:len(x)]
	for i, v := range x {
		dst[i] = geluScalar(v)
	}
}

// geluBwdRowGo sets dX[i] = dY[i]·geluGradScalar(x[i]).
func geluBwdRowGo(dX, dY, x []float32) {
	dX, dY = dX[:len(x)], dY[:len(x)]
	for i, v := range x {
		dX[i] = dY[i] * geluGradScalar(v)
	}
}

const (
	invSqrt2   = 0.70710678118654752440 // 1/√2
	invSqrt2Pi = 0.39894228040143267794 // 1/√(2π)
)

// geluScalar is the one scalar GELU definition: the stand-alone
// GeLUForward pass and the fused GEMM epilogues (gemm_epilogue.go,
// gemm_int8.go) all run it through the backend's row kernel, either
// directly or as vector lanes bit-identical to it, which makes the fused and unfused
// paths bitwise-identical. erf runs in float32 (erf32, fastmath.go),
// within 1e-6·max(1,|x|) of the float64 GELU.
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
	runGeLU(dX, dY, x)
}

// geluGradScalar is GELU'(v), the scalar every GeLU backward lane matches.
func geluGradScalar(v float32) float32 {
	cdf := 0.5 * (1 + erf32(v*invSqrt2))
	pdf := invSqrt2Pi * exp32(-0.5*v*v)
	return cdf + v*pdf
}

// GeLUUnfusedKernelCount is the kernel count of an unfused GeLU forward:
// scale (x/sqrt2), erf, add-one, halve, multiply-by-x (Section 3.2.3 lists
// the EW add, multiply, divide and ERF steps).
const GeLUUnfusedKernelCount = 5
