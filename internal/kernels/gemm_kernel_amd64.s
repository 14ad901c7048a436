#include "textflag.h"

// func cpuid(eaxIn, ecxIn uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL eaxIn+0(FP), AX
	MOVL ecxIn+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv() (eax, edx uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-8
	XORL CX, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET

// func sgemmKernel6x16(kc int64, a, b, c *float32, ldc int64)
//
// C[0:6][0:16] += Apanel·Bpanel over kc packed depth steps, computed as a
// continuation fold: the accumulator tile is SEEDED from C before the
// depth loop and plain-stored afterwards, so splitting the depth range
// across multiple kernel invocations yields bitwise-identical results to
// one invocation over the whole range (the gradient-accumulation
// equivalence in internal/audit depends on this).
// a: packed 6-row micro-panel, 6 floats per depth step (alpha pre-folded).
// b: packed 16-column micro-panel, 16 floats per depth step.
// c: row-major, stride ldc floats.
//
// Register plan: Y0-Y11 hold the 6×16 accumulator tile (two 8-lane vectors
// per row), Y12/Y13 the current B vectors, Y14/Y15 broadcast A elements.
// 12 FMAs per depth step; B feeds from L1, A from L2.
TEXT ·sgemmKernel6x16(SB), NOSPLIT, $0-40
	MOVQ kc+0(FP), CX
	MOVQ a+8(FP), SI
	MOVQ b+16(FP), DX
	MOVQ c+24(FP), DI
	MOVQ ldc+32(FP), R8
	SHLQ $2, R8                 // row stride in bytes

	// Seed the accumulator tile from C, row by row.
	MOVQ    DI, R9
	VMOVUPS (R9), Y0
	VMOVUPS 32(R9), Y1
	ADDQ    R8, R9
	VMOVUPS (R9), Y2
	VMOVUPS 32(R9), Y3
	ADDQ    R8, R9
	VMOVUPS (R9), Y4
	VMOVUPS 32(R9), Y5
	ADDQ    R8, R9
	VMOVUPS (R9), Y6
	VMOVUPS 32(R9), Y7
	ADDQ    R8, R9
	VMOVUPS (R9), Y8
	VMOVUPS 32(R9), Y9
	ADDQ    R8, R9
	VMOVUPS (R9), Y10
	VMOVUPS 32(R9), Y11

kloop:
	VMOVUPS (DX), Y12
	VMOVUPS 32(DX), Y13
	VBROADCASTSS (SI), Y14
	VBROADCASTSS 4(SI), Y15
	VFMADD231PS Y12, Y14, Y0
	VFMADD231PS Y13, Y14, Y1
	VFMADD231PS Y12, Y15, Y2
	VFMADD231PS Y13, Y15, Y3
	VBROADCASTSS 8(SI), Y14
	VBROADCASTSS 12(SI), Y15
	VFMADD231PS Y12, Y14, Y4
	VFMADD231PS Y13, Y14, Y5
	VFMADD231PS Y12, Y15, Y6
	VFMADD231PS Y13, Y15, Y7
	VBROADCASTSS 16(SI), Y14
	VBROADCASTSS 20(SI), Y15
	VFMADD231PS Y12, Y14, Y8
	VFMADD231PS Y13, Y14, Y9
	VFMADD231PS Y12, Y15, Y10
	VFMADD231PS Y13, Y15, Y11
	ADDQ $24, SI
	ADDQ $64, DX
	DECQ CX
	JNZ  kloop

	// Write the folded tile back to C, row by row (seeded at entry, so
	// plain stores — no read-add here).
	VMOVUPS Y0, (DI)
	VMOVUPS Y1, 32(DI)
	ADDQ    R8, DI
	VMOVUPS Y2, (DI)
	VMOVUPS Y3, 32(DI)
	ADDQ    R8, DI
	VMOVUPS Y4, (DI)
	VMOVUPS Y5, 32(DI)
	ADDQ    R8, DI
	VMOVUPS Y6, (DI)
	VMOVUPS Y7, 32(DI)
	ADDQ    R8, DI
	VMOVUPS Y8, (DI)
	VMOVUPS Y9, 32(DI)
	ADDQ    R8, DI
	VMOVUPS Y10, (DI)
	VMOVUPS Y11, 32(DI)
	VZEROUPPER
	RET

// func sgemmKernel12x32(kc int64, a, b, c *float32, ldc int64)
//
// AVX-512F twin of sgemmKernel6x16 with the same contract: C[0:12][0:32]
// += Apanel·Bpanel as a continuation fold seeded from C. Every C element
// is still one FMA chain over the depth steps in order, so the result is
// bitwise-equal to the 6×16 kernel on the same operands.
// a: packed 12-row micro-panel, 12 floats per depth step.
// b: packed 32-column micro-panel, 32 floats per depth step.
//
// Register plan: Z0-Z23 hold the 12×32 accumulator tile (two 16-lane
// vectors per row), Z24/Z25 the current B vectors, Z26-Z31 broadcast A
// elements. 24 FMAs per depth step.
TEXT ·sgemmKernel12x32(SB), NOSPLIT, $0-40
	MOVQ kc+0(FP), CX
	MOVQ a+8(FP), SI
	MOVQ b+16(FP), DX
	MOVQ c+24(FP), DI
	MOVQ ldc+32(FP), R8
	SHLQ $2, R8                 // row stride in bytes

	// Seed the accumulator tile from C, row by row.
	MOVQ    DI, R9
	VMOVUPS (R9), Z0
	VMOVUPS 64(R9), Z1
	ADDQ    R8, R9
	VMOVUPS (R9), Z2
	VMOVUPS 64(R9), Z3
	ADDQ    R8, R9
	VMOVUPS (R9), Z4
	VMOVUPS 64(R9), Z5
	ADDQ    R8, R9
	VMOVUPS (R9), Z6
	VMOVUPS 64(R9), Z7
	ADDQ    R8, R9
	VMOVUPS (R9), Z8
	VMOVUPS 64(R9), Z9
	ADDQ    R8, R9
	VMOVUPS (R9), Z10
	VMOVUPS 64(R9), Z11
	ADDQ    R8, R9
	VMOVUPS (R9), Z12
	VMOVUPS 64(R9), Z13
	ADDQ    R8, R9
	VMOVUPS (R9), Z14
	VMOVUPS 64(R9), Z15
	ADDQ    R8, R9
	VMOVUPS (R9), Z16
	VMOVUPS 64(R9), Z17
	ADDQ    R8, R9
	VMOVUPS (R9), Z18
	VMOVUPS 64(R9), Z19
	ADDQ    R8, R9
	VMOVUPS (R9), Z20
	VMOVUPS 64(R9), Z21
	ADDQ    R8, R9
	VMOVUPS (R9), Z22
	VMOVUPS 64(R9), Z23

k512loop:
	VMOVUPS (DX), Z24
	VMOVUPS 64(DX), Z25
	VBROADCASTSS (SI), Z26
	VBROADCASTSS 4(SI), Z27
	VBROADCASTSS 8(SI), Z28
	VBROADCASTSS 12(SI), Z29
	VBROADCASTSS 16(SI), Z30
	VBROADCASTSS 20(SI), Z31
	VFMADD231PS Z24, Z26, Z0
	VFMADD231PS Z25, Z26, Z1
	VFMADD231PS Z24, Z27, Z2
	VFMADD231PS Z25, Z27, Z3
	VFMADD231PS Z24, Z28, Z4
	VFMADD231PS Z25, Z28, Z5
	VFMADD231PS Z24, Z29, Z6
	VFMADD231PS Z25, Z29, Z7
	VFMADD231PS Z24, Z30, Z8
	VFMADD231PS Z25, Z30, Z9
	VFMADD231PS Z24, Z31, Z10
	VFMADD231PS Z25, Z31, Z11
	VBROADCASTSS 24(SI), Z26
	VBROADCASTSS 28(SI), Z27
	VBROADCASTSS 32(SI), Z28
	VBROADCASTSS 36(SI), Z29
	VBROADCASTSS 40(SI), Z30
	VBROADCASTSS 44(SI), Z31
	VFMADD231PS Z24, Z26, Z12
	VFMADD231PS Z25, Z26, Z13
	VFMADD231PS Z24, Z27, Z14
	VFMADD231PS Z25, Z27, Z15
	VFMADD231PS Z24, Z28, Z16
	VFMADD231PS Z25, Z28, Z17
	VFMADD231PS Z24, Z29, Z18
	VFMADD231PS Z25, Z29, Z19
	VFMADD231PS Z24, Z30, Z20
	VFMADD231PS Z25, Z30, Z21
	VFMADD231PS Z24, Z31, Z22
	VFMADD231PS Z25, Z31, Z23
	ADDQ $48, SI
	ADDQ $128, DX
	DECQ CX
	JNZ  k512loop

	// Write the folded tile back to C, row by row.
	VMOVUPS Z0, (DI)
	VMOVUPS Z1, 64(DI)
	ADDQ    R8, DI
	VMOVUPS Z2, (DI)
	VMOVUPS Z3, 64(DI)
	ADDQ    R8, DI
	VMOVUPS Z4, (DI)
	VMOVUPS Z5, 64(DI)
	ADDQ    R8, DI
	VMOVUPS Z6, (DI)
	VMOVUPS Z7, 64(DI)
	ADDQ    R8, DI
	VMOVUPS Z8, (DI)
	VMOVUPS Z9, 64(DI)
	ADDQ    R8, DI
	VMOVUPS Z10, (DI)
	VMOVUPS Z11, 64(DI)
	ADDQ    R8, DI
	VMOVUPS Z12, (DI)
	VMOVUPS Z13, 64(DI)
	ADDQ    R8, DI
	VMOVUPS Z14, (DI)
	VMOVUPS Z15, 64(DI)
	ADDQ    R8, DI
	VMOVUPS Z16, (DI)
	VMOVUPS Z17, 64(DI)
	ADDQ    R8, DI
	VMOVUPS Z18, (DI)
	VMOVUPS Z19, 64(DI)
	ADDQ    R8, DI
	VMOVUPS Z20, (DI)
	VMOVUPS Z21, 64(DI)
	ADDQ    R8, DI
	VMOVUPS Z22, (DI)
	VMOVUPS Z23, 64(DI)
	VZEROUPPER
	RET

// func igemmKernel4x16(kg int64, a *uint8, b *int8, acc *int32)
//
// Int8 4x16 micro-kernel: acc[4][16] (row-major int32, overwritten) =
// sum over kg depth groups of the u8 x s8 products. a holds kg groups of
// 16 bytes (row r, depth d at r*4+d); b holds kg groups of 64 bytes
// (column j, depth d at j*4+d). Per group and row: VPBROADCASTD smears
// the row's 4 activation bytes across a lane, VPMADDUBSW forms pairwise
// u8*s8 sums in i16 (safe: weights are clamped to +-63 so 255*63*2 fits
// i16), and VPMADDWD with an all-ones i16 vector widens adjacent pairs
// into the i32 accumulators.
//
// Register plan: Y0-Y7 accumulators (row r in Y{2r} cols 0-7, Y{2r+1}
// cols 8-15), Y12 = i16 ones, Y13/Y14 = B group halves, Y15 = broadcast
// A, Y11 = scratch.
TEXT ·igemmKernel4x16(SB), NOSPLIT, $0-32
	MOVQ kg+0(FP), CX
	MOVQ a+8(FP), SI
	MOVQ b+16(FP), DX
	MOVQ acc+24(FP), DI

	VPCMPEQW Y12, Y12, Y12
	VPSRLW   $15, Y12, Y12

	VPXOR Y0, Y0, Y0
	VPXOR Y1, Y1, Y1
	VPXOR Y2, Y2, Y2
	VPXOR Y3, Y3, Y3
	VPXOR Y4, Y4, Y4
	VPXOR Y5, Y5, Y5
	VPXOR Y6, Y6, Y6
	VPXOR Y7, Y7, Y7

	TESTQ CX, CX
	JZ    i8store

i8loop:
	VMOVDQU (DX), Y13
	VMOVDQU 32(DX), Y14

	VPBROADCASTD (SI), Y15
	VPMADDUBSW   Y13, Y15, Y11
	VPMADDWD     Y12, Y11, Y11
	VPADDD       Y11, Y0, Y0
	VPMADDUBSW   Y14, Y15, Y11
	VPMADDWD     Y12, Y11, Y11
	VPADDD       Y11, Y1, Y1

	VPBROADCASTD 4(SI), Y15
	VPMADDUBSW   Y13, Y15, Y11
	VPMADDWD     Y12, Y11, Y11
	VPADDD       Y11, Y2, Y2
	VPMADDUBSW   Y14, Y15, Y11
	VPMADDWD     Y12, Y11, Y11
	VPADDD       Y11, Y3, Y3

	VPBROADCASTD 8(SI), Y15
	VPMADDUBSW   Y13, Y15, Y11
	VPMADDWD     Y12, Y11, Y11
	VPADDD       Y11, Y4, Y4
	VPMADDUBSW   Y14, Y15, Y11
	VPMADDWD     Y12, Y11, Y11
	VPADDD       Y11, Y5, Y5

	VPBROADCASTD 12(SI), Y15
	VPMADDUBSW   Y13, Y15, Y11
	VPMADDWD     Y12, Y11, Y11
	VPADDD       Y11, Y6, Y6
	VPMADDUBSW   Y14, Y15, Y11
	VPMADDWD     Y12, Y11, Y11
	VPADDD       Y11, Y7, Y7

	ADDQ $16, SI
	ADDQ $64, DX
	DECQ CX
	JNZ  i8loop

i8store:
	VMOVDQU Y0, (DI)
	VMOVDQU Y1, 32(DI)
	VMOVDQU Y2, 64(DI)
	VMOVDQU Y3, 96(DI)
	VMOVDQU Y4, 128(DI)
	VMOVDQU Y5, 160(DI)
	VMOVDQU Y6, 192(DI)
	VMOVDQU Y7, 224(DI)
	VZEROUPPER
	RET
