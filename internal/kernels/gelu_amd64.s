#include "textflag.h"

// AVX-512F GeLU row kernels. Each lane runs the float32 operation sequence
// of geluScalar / geluGradScalar (gelu.go, fastmath.go) one instruction per
// scalar operation: separate multiplies, adds and divides (no FMA), the
// same association, and the same constants (geluVecConsts). Clamps are
// compare+blend with ordered predicates, so NaN lanes pass them unchanged
// exactly like the scalar comparisons. Every output is therefore
// bit-identical to the scalar code. Rows are walked 16 lanes at a time;
// the last partial vector runs the same body under a load/store mask.

// Byte offsets into geluVecConsts (gemm_kernel_amd64.go).
#define C_INVSQRT2 0
#define C_FOUR 4
#define C_MFOUR 8
#define C_P0 12
#define C_P1 16
#define C_P2 20
#define C_P3 24
#define C_P4 28
#define C_P5 32
#define C_P6 36
#define C_Q0 40
#define C_Q1 44
#define C_Q2 48
#define C_Q3 52
#define C_Q4 56
#define C_ONE 60
#define C_MONE 64
#define C_HALF 68
#define C_MHALF 72
#define C_INVSQRT2PI 76
#define C_EXPMAX 80
#define C_EXPMIN 84
#define C_LOG2E 88
#define C_SHIFT 92
#define C_LN2HI 96
#define C_LN2LO 100
#define C_E0 104
#define C_E1 108
#define C_E2 112
#define C_E3 116
#define C_INF 120

// Ordered-quiet compare predicates: false whenever an operand is NaN.
#define GT_OQ $0x1e
#define LT_OQ $0x11
#define UNORD_Q $0x03

// ERF32 replaces X with erf32(X). Clobbers X2, P, Q and K1.
#define ERF32(X, X2, P, Q) \
	VCMPPS.BCST GT_OQ, C_FOUR(R10), X, K1; \
	VBROADCASTSS C_FOUR(R10), K1, X; \
	VCMPPS.BCST LT_OQ, C_MFOUR(R10), X, K1; \
	VBROADCASTSS C_MFOUR(R10), K1, X; \
	VMULPS X, X, X2; \
	VMULPS.BCST C_P0(R10), X2, P; \
	VADDPS.BCST C_P1(R10), P, P; \
	VMULPS X2, P, P; \
	VADDPS.BCST C_P2(R10), P, P; \
	VMULPS X2, P, P; \
	VADDPS.BCST C_P3(R10), P, P; \
	VMULPS X2, P, P; \
	VADDPS.BCST C_P4(R10), P, P; \
	VMULPS X2, P, P; \
	VADDPS.BCST C_P5(R10), P, P; \
	VMULPS X2, P, P; \
	VADDPS.BCST C_P6(R10), P, P; \
	VMULPS.BCST C_Q0(R10), X2, Q; \
	VADDPS.BCST C_Q1(R10), Q, Q; \
	VMULPS X2, Q, Q; \
	VADDPS.BCST C_Q2(R10), Q, Q; \
	VMULPS X2, Q, Q; \
	VADDPS.BCST C_Q3(R10), Q, Q; \
	VMULPS X2, Q, Q; \
	VADDPS.BCST C_Q4(R10), Q, Q; \
	VMULPS P, X, X; \
	VDIVPS Q, X, X; \
	VCMPPS.BCST GT_OQ, C_ONE(R10), X, K1; \
	VBROADCASTSS C_ONE(R10), K1, X; \
	VCMPPS.BCST LT_OQ, C_MONE(R10), X, K1; \
	VBROADCASTSS C_MONE(R10), K1, X

// ROWMASK sets K7 to the lanes of the next vector: all 16 while CX ≥ 16,
// else the low CX. Clobbers AX.
#define ROWMASK(label) \
	KXNORW K7, K7, K7; \
	CMPQ CX, $16; \
	JGE label; \
	MOVL $1, AX; \
	SHLL CX, AX; \
	DECL AX; \
	KMOVW AX, K7; \
label:

// func geluAVX512(dst, x *float32, n int64)
//
// dst[i] = geluScalar(x[i]) = (x·0.5)·(1 + erf32(x·invSqrt2)). dst may
// alias x.
TEXT ·geluAVX512(SB), NOSPLIT, $0-24
	MOVQ dst+0(FP), DI
	MOVQ x+8(FP), SI
	MOVQ n+16(FP), CX
	TESTQ CX, CX
	JLE  gdone
	LEAQ ·geluVecConsts(SB), R10

gloop:
	ROWMASK(gbody)
	VMOVUPS.Z (SI), K7, Z0
	VMULPS.BCST C_INVSQRT2(R10), Z0, Z1
	ERF32(Z1, Z2, Z3, Z4)
	VADDPS.BCST C_ONE(R10), Z1, Z1
	VMULPS.BCST C_HALF(R10), Z0, Z0
	VMULPS Z1, Z0, Z0
	VMOVUPS Z0, K7, (DI)
	ADDQ $64, SI
	ADDQ $64, DI
	SUBQ $16, CX
	JG   gloop

gdone:
	VZEROUPPER
	RET

// func geluBwdAVX512(dx, dy, x *float32, n int64)
//
// dx[i] = dy[i]·geluGradScalar(x[i]), with
// geluGradScalar(v) = 0.5·(1 + erf32(v·invSqrt2)) + v·(invSqrt2Pi·exp32((-0.5·v)·v)).
//
// exp32 runs as in fastmath.go: kf = (x·log2E + roundShift) - roundShift,
// r = (x - kf·ln2Hi) - kf·ln2Lo, p = 1 + (r + r·r·Q(r)), and the result is
// (p·2^kA)·2^kB from exponent bits, where (kA, kB) is (k, 0) for normal
// results, (1, 127) for k = 128 and (k+126, -126) for subnormal ones —
// the scalar's three scalings, the ·2^0 being exact. Inputs above
// exp32Max give +Inf, below exp32Min 0, and NaN itself.
//
// Register plan: Z0 v, Z5 dy, Z1 cdf, Z2-Z4 erf scratch, Z6 exp argument
// then pdf, Z7-Z13 exp scratch, Z16/Z17/Z18 the int32 constants 127,
// -126 and 1.
TEXT ·geluBwdAVX512(SB), NOSPLIT, $0-32
	MOVQ dx+0(FP), DI
	MOVQ dy+8(FP), DX
	MOVQ x+16(FP), SI
	MOVQ n+24(FP), CX
	TESTQ CX, CX
	JLE  bdone
	LEAQ ·geluVecConsts(SB), R10
	MOVL $127, AX
	VPBROADCASTD AX, Z16
	MOVL $-126, AX
	VPBROADCASTD AX, Z17
	MOVL $1, AX
	VPBROADCASTD AX, Z18

bloop:
	ROWMASK(bbody)
	VMOVUPS.Z (SI), K7, Z0
	VMOVUPS.Z (DX), K7, Z5

	// cdf = 0.5·(1 + erf32(v·invSqrt2))
	VMULPS.BCST C_INVSQRT2(R10), Z0, Z1
	ERF32(Z1, Z2, Z3, Z4)
	VADDPS.BCST C_ONE(R10), Z1, Z1
	VMULPS.BCST C_HALF(R10), Z1, Z1

	// Z6 = exp32((-0.5·v)·v)
	VMULPS.BCST C_MHALF(R10), Z0, Z6
	VMULPS Z0, Z6, Z6
	VMULPS.BCST C_LOG2E(R10), Z6, Z7
	VADDPS.BCST C_SHIFT(R10), Z7, Z7
	VSUBPS.BCST C_SHIFT(R10), Z7, Z7     // kf
	VMULPS.BCST C_LN2HI(R10), Z7, Z8
	VSUBPS Z8, Z6, Z8
	VMULPS.BCST C_LN2LO(R10), Z7, Z9
	VSUBPS Z9, Z8, Z8                    // r
	VMULPS.BCST C_E0(R10), Z8, Z9
	VADDPS.BCST C_E1(R10), Z9, Z9
	VMULPS Z8, Z9, Z9
	VADDPS.BCST C_E2(R10), Z9, Z9
	VMULPS Z8, Z9, Z9
	VADDPS.BCST C_E3(R10), Z9, Z9
	VMULPS Z8, Z9, Z9
	VADDPS.BCST C_HALF(R10), Z9, Z9      // Q(r)
	VMULPS Z8, Z8, Z10
	VMULPS Z9, Z10, Z10
	VADDPS Z10, Z8, Z10
	VADDPS.BCST C_ONE(R10), Z10, Z10     // p
	VCVTTPS2DQ Z7, Z11                   // k
	VMOVDQA32 Z11, Z12                   // kA = k
	VPXORD Z13, Z13, Z13                 // kB = 0
	VPCMPGTD Z16, Z11, K2                // k > 127
	VMOVDQA32 Z18, K2, Z12
	VMOVDQA32 Z16, K2, Z13
	VPCMPGTD Z11, Z17, K3                // k < -126
	VPSUBD Z17, Z11, K3, Z12
	VMOVDQA32 Z17, K3, Z13
	VPADDD Z16, Z12, Z12
	VPSLLD $23, Z12, Z12                 // 2^kA
	VPADDD Z16, Z13, Z13
	VPSLLD $23, Z13, Z13                 // 2^kB
	VMULPS Z12, Z10, Z10
	VMULPS Z13, Z10, Z10
	VCMPPS.BCST GT_OQ, C_EXPMAX(R10), Z6, K1
	VBROADCASTSS C_INF(R10), K1, Z10
	VCMPPS.BCST LT_OQ, C_EXPMIN(R10), Z6, K1
	VPXORD Z10, Z10, K1, Z10
	VCMPPS UNORD_Q, Z6, Z6, K1
	VMOVAPS Z6, K1, Z10

	// dx = dy·(cdf + v·(invSqrt2Pi·exp))
	VMULPS.BCST C_INVSQRT2PI(R10), Z10, Z6
	VMULPS Z6, Z0, Z6
	VADDPS Z6, Z1, Z1
	VMULPS Z1, Z5, Z5
	VMOVUPS Z5, K7, (DI)
	ADDQ $64, SI
	ADDQ $64, DX
	ADDQ $64, DI
	SUBQ $16, CX
	JG   bloop

bdone:
	VZEROUPPER
	RET
