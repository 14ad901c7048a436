//go:build amd64

package kernels

import "math"

// Assembly kernel bindings (gemm_kernel_amd64.s, gelu_amd64.s) plus the
// CPU feature probe that decides which backends this host can run.

//go:noescape
func sgemmKernel6x16(kc int64, a, b, c *float32, ldc int64)

//go:noescape
func sgemmKernel12x32(kc int64, a, b, c *float32, ldc int64)

//go:noescape
func igemmKernel4x16(kg int64, a *uint8, b *int8, acc *int32)

//go:noescape
func geluAVX512(dst, x *float32, n int64)

//go:noescape
func geluBwdAVX512(dx, dy, x *float32, n int64)

func cpuid(eaxIn, ecxIn uint32) (eax, ebx, ecx, edx uint32)
func xgetbv() (eax, edx uint32)

var (
	// avx2Backend: the 6×16 AVX2+FMA f32 kernel and the AVX2 int8 kernel;
	// GeLU stays scalar.
	avx2Backend = &kernelBackend{
		name: "avx2", mr: 6, nr: 16,
		sgemm: microKernel6x16, int8: int8Kernel4x16SIMD,
		gelu: geluRowGo, geluBwd: geluBwdRowGo,
	}
	// avx512Backend: the 12×32 AVX-512F f32 kernel and 16-lane GeLU; int8
	// keeps the AVX2 kernel (no VNNI yet). Products at most 16 columns
	// wide tile with the bitwise-equal 6×16 kernel instead.
	avx512Backend = &kernelBackend{
		name: "avx512", mr: 12, nr: 32,
		sgemm: microKernel12x32, int8: int8Kernel4x16SIMD,
		gelu: geluRowAVX512, geluBwd: geluBwdRowAVX512,
		narrow: avx2Backend,
	}
)

// microKernel6x16 adapts the AVX2+FMA assembly kernel to the generic
// micro-kernel signature: C[0:6][0:16] += Apanel·Bpanel.
func microKernel6x16(kc int, a, b, c []float32, ldc int) {
	sgemmKernel6x16(int64(kc), &a[0], &b[0], &c[0], int64(ldc))
}

// microKernel12x32 adapts the AVX-512F assembly kernel:
// C[0:12][0:32] += Apanel·Bpanel.
func microKernel12x32(kc int, a, b, c []float32, ldc int) {
	sgemmKernel12x32(int64(kc), &a[0], &b[0], &c[0], int64(ldc))
}

// int8Kernel4x16SIMD adapts the AVX2 int8 assembly kernel to the generic
// int8 micro-kernel signature (4×16 int32 tile, overwrite semantics).
func int8Kernel4x16SIMD(kg int, a []uint8, b []int8, acc *[int8MR * int8NR]int32) {
	_ = a[kg*int8MR*int8KGroup-1]
	_ = b[kg*int8NR*int8KGroup-1]
	igemmKernel4x16(int64(kg), &a[0], &b[0], &acc[0])
}

func geluRowAVX512(dst, x []float32) {
	if len(x) == 0 {
		return
	}
	_ = dst[len(x)-1]
	geluAVX512(&dst[0], &x[0], int64(len(x)))
}

func geluBwdRowAVX512(dX, dY, x []float32) {
	if len(x) == 0 {
		return
	}
	_, _ = dX[len(x)-1], dY[len(x)-1]
	geluBwdAVX512(&dX[0], &dY[0], &x[0], int64(len(x)))
}

// geluVecConsts holds the float32 constants of geluScalar and
// geluGradScalar in the order gelu_amd64.s addresses them (C_* offsets).
// They are the scalar code's own named constants, so both round the same
// decimal literals to the same float32 values.
var geluVecConsts = [...]float32{
	invSqrt2, 4, -4,
	erfP0, erfP1, erfP2, erfP3, erfP4, erfP5, erfP6,
	erfQ0, erfQ1, erfQ2, erfQ3, erfQ4,
	1, -1, 0.5, -0.5, invSqrt2Pi,
	exp32Max, exp32Min, log2E, roundShift, ln2Hi, ln2Lo,
	expQ0, expQ1, expQ2, expQ3,
	float32(math.Inf(1)),
}

// hostBackends lists the kernel backends this CPU and OS support, slowest
// first: scalar always; AVX2 when CPUID reports AVX2 and FMA and XCR0
// enables XMM/YMM state; AVX-512 when CPUID leaf 7 EBX bit 16 (AVX-512F)
// is set as well and XCR0 also enables opmask and ZMM state (0xE6).
var hostBackends = detectBackends()

func detectBackends() []*kernelBackend {
	bs := []*kernelBackend{scalarBackend}
	maxID, _, _, _ := cpuid(0, 0)
	if maxID < 7 {
		return bs
	}
	_, _, ecx1, _ := cpuid(1, 0)
	const fma = 1 << 12
	const osxsave = 1 << 27
	if ecx1&fma == 0 || ecx1&osxsave == 0 {
		return bs
	}
	xcr0, _ := xgetbv()
	_, ebx7, _, _ := cpuid(7, 0)
	const avx2 = 1 << 5
	const avx512f = 1 << 16
	if xcr0&0x6 != 0x6 || ebx7&avx2 == 0 {
		return bs
	}
	bs = append(bs, avx2Backend)
	if xcr0&0xE6 == 0xE6 && ebx7&avx512f != 0 {
		bs = append(bs, avx512Backend)
	}
	return bs
}
