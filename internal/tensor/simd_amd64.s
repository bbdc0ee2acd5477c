//go:build amd64 && !purego

#include "textflag.h"

// AVX2 float32 conversion primitives and the AVX2+FMA and AVX-512 GEMM
// kernel sets. Operand order note: the Go assembler reverses Intel operand
// order, so VFMADD231PD Ys, Ym, Yd computes Yd += Ym*Ys.
// Every routine handles arbitrary lengths (vector body + scalar tail) and
// executes VZEROUPPER before returning to avoid SSE/AVX transition stalls.

// func foldAccAVX(acc []float64, src []float32)
// acc += widen(src), 4 elements per iteration.
TEXT ·foldAccAVX(SB), NOSPLIT, $0-48
	MOVQ acc_base+0(FP), DI
	MOVQ acc_len+8(FP), CX
	MOVQ src_base+24(FP), SI
	XORQ AX, AX
	MOVQ CX, DX
	ANDQ $-4, DX

fold_loop4:
	CMPQ AX, DX
	JGE  fold_tail
	VMOVUPS   (SI)(AX*4), X1
	VCVTPS2PD X1, Y1
	VADDPD    (DI)(AX*8), Y1, Y1
	VMOVUPD   Y1, (DI)(AX*8)
	ADDQ $4, AX
	JMP  fold_loop4

fold_tail:
	CMPQ AX, CX
	JGE  fold_done
	VCVTSS2SD (SI)(AX*4), X1, X1
	VADDSD    (DI)(AX*8), X1, X1
	VMOVSD    X1, (DI)(AX*8)
	INCQ AX
	JMP  fold_tail

fold_done:
	VZEROUPPER
	RET

// func widenAVX(dst []float64, src []float32)
// dst = widen(src), 4 elements per iteration.
TEXT ·widenAVX(SB), NOSPLIT, $0-48
	MOVQ dst_base+0(FP), DI
	MOVQ dst_len+8(FP), CX
	MOVQ src_base+24(FP), SI
	XORQ AX, AX
	MOVQ CX, DX
	ANDQ $-4, DX

widen_loop4:
	CMPQ AX, DX
	JGE  widen_tail
	VMOVUPS   (SI)(AX*4), X1
	VCVTPS2PD X1, Y1
	VMOVUPD   Y1, (DI)(AX*8)
	ADDQ $4, AX
	JMP  widen_loop4

widen_tail:
	CMPQ AX, CX
	JGE  widen_done
	VCVTSS2SD (SI)(AX*4), X1, X1
	VMOVSD    X1, (DI)(AX*8)
	INCQ AX
	JMP  widen_tail

widen_done:
	VZEROUPPER
	RET

// func narrowAVX(dst []float32, src []float64)
// dst = round(src), 4 elements per iteration.
TEXT ·narrowAVX(SB), NOSPLIT, $0-48
	MOVQ dst_base+0(FP), DI
	MOVQ dst_len+8(FP), CX
	MOVQ src_base+24(FP), SI
	XORQ AX, AX
	MOVQ CX, DX
	ANDQ $-4, DX

narrow_loop4:
	CMPQ AX, DX
	JGE  narrow_tail
	VMOVUPD    (SI)(AX*8), Y1
	VCVTPD2PSY Y1, X1
	VMOVUPS    X1, (DI)(AX*4)
	ADDQ $4, AX
	JMP  narrow_loop4

narrow_tail:
	CMPQ AX, CX
	JGE  narrow_done
	VCVTSD2SS (SI)(AX*8), X1, X1
	VMOVSS    X1, (DI)(AX*4)
	INCQ AX
	JMP  narrow_tail

narrow_done:
	VZEROUPPER
	RET

// func gemmKernelAVX(kc, mt int, a []float64, lda, sa, ta int, b []float64, sb int, c []float64, ldc, cols int, load bool)
// mt 4×12 float64 micro-tiles, one under the other, all twelve columns (cols
// is not read): Y4–Y15 hold rows 0–3 × three 4-wide column vectors. Each
// step loads twelve values of op(B) from b and broadcasts the four values of
// op(A) at a, a+lda, a+2·lda, a+3·lda (R12, R13 = lda, 3·lda in bytes), then
// advances a by sa (R14) and b by sb (SI) — a packed panel and an operand
// read in place are the same loop. The next tile starts ta further on in a
// (its base kept in a's argument slot, ta rescaled to bytes in its own) and
// four rows further on in c, from the same b. Every accumulator lane takes
// exactly one fused multiply-add per step, steps ascending — the chain
// math.FMA gives gemmKernelGo. A tile starts from +0 (VXORPD) or, when
// load is set, from the values stored in c.
TEXT ·gemmKernelAVX(SB), NOSPLIT, $0-137
	MOVQ    mt+8(FP), CX
	TESTQ   CX, CX
	JZ      gemm_done
	MOVQ    ta+56(FP), BX
	SHLQ    $3, BX
	MOVQ    BX, ta+56(FP)
	MOVQ    a_base+16(FP), AX
	MOVQ    lda+40(FP), R12
	SHLQ    $3, R12
	LEAQ    (R12)(R12*2), R13
	MOVQ    sa+48(FP), R14
	SHLQ    $3, R14
	MOVQ    sb+88(FP), SI
	SHLQ    $3, SI
	MOVQ    c_base+96(FP), DI
	MOVQ    ldc+120(FP), DX
	SHLQ    $3, DX
	MOVBLZX load+136(FP), R8

gemm_tile:
	MOVQ    kc+0(FP), CX
	MOVQ    b_base+64(FP), BX
	MOVQ    AX, a_base+16(FP)
	LEAQ    (DI)(DX*1), R9
	LEAQ    (R9)(DX*1), R10
	LEAQ    (R10)(DX*1), R11
	TESTQ   R8, R8
	JZ      gemm_zero
	VMOVUPD (DI), Y4
	VMOVUPD 32(DI), Y5
	VMOVUPD 64(DI), Y6
	VMOVUPD (R9), Y7
	VMOVUPD 32(R9), Y8
	VMOVUPD 64(R9), Y9
	VMOVUPD (R10), Y10
	VMOVUPD 32(R10), Y11
	VMOVUPD 64(R10), Y12
	VMOVUPD (R11), Y13
	VMOVUPD 32(R11), Y14
	VMOVUPD 64(R11), Y15
	JMP     gemm_steps

gemm_zero:
	VXORPD Y4, Y4, Y4
	VXORPD Y5, Y5, Y5
	VXORPD Y6, Y6, Y6
	VXORPD Y7, Y7, Y7
	VXORPD Y8, Y8, Y8
	VXORPD Y9, Y9, Y9
	VXORPD Y10, Y10, Y10
	VXORPD Y11, Y11, Y11
	VXORPD Y12, Y12, Y12
	VXORPD Y13, Y13, Y13
	VXORPD Y14, Y14, Y14
	VXORPD Y15, Y15, Y15

gemm_steps:
	TESTQ CX, CX
	JZ    gemm_store

gemm_loop:
	VMOVUPD      (BX), Y0
	VMOVUPD      32(BX), Y1
	VMOVUPD      64(BX), Y2
	VBROADCASTSD (AX), Y3
	VFMADD231PD  Y0, Y3, Y4
	VFMADD231PD  Y1, Y3, Y5
	VFMADD231PD  Y2, Y3, Y6
	VBROADCASTSD (AX)(R12*1), Y3
	VFMADD231PD  Y0, Y3, Y7
	VFMADD231PD  Y1, Y3, Y8
	VFMADD231PD  Y2, Y3, Y9
	VBROADCASTSD (AX)(R12*2), Y3
	VFMADD231PD  Y0, Y3, Y10
	VFMADD231PD  Y1, Y3, Y11
	VFMADD231PD  Y2, Y3, Y12
	VBROADCASTSD (AX)(R13*1), Y3
	VFMADD231PD  Y0, Y3, Y13
	VFMADD231PD  Y1, Y3, Y14
	VFMADD231PD  Y2, Y3, Y15
	ADDQ R14, AX
	ADDQ SI, BX
	DECQ CX
	JNZ  gemm_loop

gemm_store:
	VMOVUPD Y4, (DI)
	VMOVUPD Y5, 32(DI)
	VMOVUPD Y6, 64(DI)
	VMOVUPD Y7, (R9)
	VMOVUPD Y8, 32(R9)
	VMOVUPD Y9, 64(R9)
	VMOVUPD Y10, (R10)
	VMOVUPD Y11, 32(R10)
	VMOVUPD Y12, 64(R10)
	VMOVUPD Y13, (R11)
	VMOVUPD Y14, 32(R11)
	VMOVUPD Y15, 64(R11)
	MOVQ    a_base+16(FP), AX
	ADDQ    ta+56(FP), AX
	LEAQ    (R11)(DX*1), DI
	DECQ    mt+8(FP)
	JNZ     gemm_tile
	VZEROUPPER

gemm_done:
	RET

// func copyStepsAVX(dst, src []float64, ld, kc int)
// dst[p*12+l] = src[p*ld+l]: three vector moves per step.
TEXT ·copyStepsAVX(SB), NOSPLIT, $0-64
	MOVQ dst_base+0(FP), DI
	MOVQ src_base+24(FP), SI
	MOVQ ld+48(FP), R8
	SHLQ $3, R8
	MOVQ kc+56(FP), CX
	TESTQ CX, CX
	JZ   copy_done

copy_loop12:
	VMOVUPD (SI), Y0
	VMOVUPD 32(SI), Y1
	VMOVUPD 64(SI), Y2
	VMOVUPD Y0, (DI)
	VMOVUPD Y1, 32(DI)
	VMOVUPD Y2, 64(DI)
	ADDQ R8, SI
	ADDQ $96, DI
	DECQ CX
	JNZ  copy_loop12

copy_done:
	VZEROUPPER
	RET

// func transLanes4AVX(dst, src []float64, ld, kc, w int)
// dst[p*w+l] = src[l*ld+p] for l < 4: four steps of four rows are
// transposed in registers (unpack pairs, then swap 128-bit halves); a
// scalar tail finishes kc mod 4.
TEXT ·transLanes4AVX(SB), NOSPLIT, $0-72
	MOVQ dst_base+0(FP), DI
	MOVQ src_base+24(FP), SI
	MOVQ ld+48(FP), R8
	SHLQ $3, R8
	MOVQ kc+56(FP), CX
	MOVQ w+64(FP), R9
	SHLQ $3, R9
	LEAQ (SI)(R8*1), R10
	LEAQ (SI)(R8*2), R11
	LEAQ (R10)(R8*2), R12
	LEAQ (R9)(R9*2), R13

trans_loop4:
	CMPQ CX, $4
	JL   trans_tail
	VMOVUPD    (SI), Y0
	VMOVUPD    (R10), Y1
	VMOVUPD    (R11), Y2
	VMOVUPD    (R12), Y3
	VUNPCKLPD  Y1, Y0, Y4            // r0[p] r1[p] r0[p+2] r1[p+2]
	VUNPCKHPD  Y1, Y0, Y5            // r0[p+1] r1[p+1] r0[p+3] r1[p+3]
	VUNPCKLPD  Y3, Y2, Y6            // r2[p] r3[p] r2[p+2] r3[p+2]
	VUNPCKHPD  Y3, Y2, Y7
	VPERM2F128 $0x20, Y6, Y4, Y8     // step p
	VPERM2F128 $0x20, Y7, Y5, Y9     // step p+1
	VPERM2F128 $0x31, Y6, Y4, Y10    // step p+2
	VPERM2F128 $0x31, Y7, Y5, Y11    // step p+3
	VMOVUPD    Y8, (DI)
	VMOVUPD    Y9, (DI)(R9*1)
	VMOVUPD    Y10, (DI)(R9*2)
	VMOVUPD    Y11, (DI)(R13*1)
	ADDQ $32, SI
	ADDQ $32, R10
	ADDQ $32, R11
	ADDQ $32, R12
	LEAQ (DI)(R9*4), DI
	SUBQ $4, CX
	JMP  trans_loop4

trans_tail:
	TESTQ CX, CX
	JZ    trans_done
	VMOVSD (SI), X0
	VMOVSD (R10), X1
	VMOVSD (R11), X2
	VMOVSD (R12), X3
	VMOVSD X0, (DI)
	VMOVSD X1, 8(DI)
	VMOVSD X2, 16(DI)
	VMOVSD X3, 24(DI)
	ADDQ $8, SI
	ADDQ $8, R10
	ADDQ $8, R11
	ADDQ $8, R12
	ADDQ R9, DI
	DECQ CX
	JMP  trans_tail

trans_done:
	VZEROUPPER
	RET

// func fmaPeakAVX(iters int)
// Twelve independent accumulator chains (the micro-kernel's register tile),
// no memory operands: the one-core FMA roofline.
TEXT ·fmaPeakAVX(SB), NOSPLIT, $0-8
	MOVQ   iters+0(FP), CX
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y4, Y4, Y4
	VXORPD Y5, Y5, Y5
	VXORPD Y6, Y6, Y6
	VXORPD Y7, Y7, Y7
	VXORPD Y8, Y8, Y8
	VXORPD Y9, Y9, Y9
	VXORPD Y10, Y10, Y10
	VXORPD Y11, Y11, Y11
	VXORPD Y12, Y12, Y12
	VXORPD Y13, Y13, Y13
	VXORPD Y14, Y14, Y14
	VXORPD Y15, Y15, Y15
	TESTQ  CX, CX
	JZ     peak_done

peak_loop:
	VFMADD231PD Y0, Y1, Y4
	VFMADD231PD Y0, Y1, Y5
	VFMADD231PD Y0, Y1, Y6
	VFMADD231PD Y0, Y1, Y7
	VFMADD231PD Y0, Y1, Y8
	VFMADD231PD Y0, Y1, Y9
	VFMADD231PD Y0, Y1, Y10
	VFMADD231PD Y0, Y1, Y11
	VFMADD231PD Y0, Y1, Y12
	VFMADD231PD Y0, Y1, Y13
	VFMADD231PD Y0, Y1, Y14
	VFMADD231PD Y0, Y1, Y15
	DECQ CX
	JNZ  peak_loop

peak_done:
	VZEROUPPER
	RET

// func gemmKernelAVX512(kc, mt int, a []float64, lda, sa, ta int, b []float64, sb int, c []float64, ldc, cols int, load bool)
// mt 4×24 float64 micro-tiles, one under the other: row r, 8-wide column
// vector v accumulates in Z(4+3r+v). Only the vectors that reach columns
// [0, cols) run — one when cols ≤ 8, two when cols ≤ 16, else three — and
// the last of them loads b and loads and stores c under the lane mask K1 of
// its valid columns, so the kernel reads and writes exactly columns
// [0, cols) of b and c: a partial panel needs no private edge tile, no zero
// padding and no padding arithmetic past its last vector, and is read in
// place right up to an operand's last element. Each step loads the running
// vectors of op(B) from b and broadcasts the four values of op(A) at a,
// a+lda, a+2·lda, a+3·lda (R12, R13 = lda, 3·lda in bytes) into Z16–Z19
// before the first multiply-add (one broadcast register reused per row ran
// the one-vector loop about a quarter slower), then advances a by sa (R14)
// and b by sb (SI) — a packed panel and an operand read in place are the
// same loop. The next tile starts ta further on in a (its base kept in a's
// argument slot, ta rescaled to bytes in its own) and four rows further on
// in c (DX = ldc in bytes), from the same b. Every accumulator lane takes
// exactly one fused multiply-add per step, steps ascending — the chain
// math.FMA gives gemmKernelGo. A tile starts from +0 (VPXORQ) or, when load
// is set, from the values stored in c.
TEXT ·gemmKernelAVX512(SB), NOSPLIT, $0-137
	MOVQ    mt+8(FP), CX
	TESTQ   CX, CX
	JZ      z_done
	MOVQ    cols+128(FP), DX
	// K1 = (1 << valid columns of the last vector) - 1, the valid count
	// being cols - 8·(vectors - 1), in 1…8.
	LEAQ    -1(DX), CX
	ANDQ    $7, CX
	INCQ    CX
	MOVL    $1, R13
	SHLL    CX, R13
	DECL    R13
	KMOVW   R13, K1
	MOVQ    ta+56(FP), BX
	SHLQ    $3, BX
	MOVQ    BX, ta+56(FP)
	MOVQ    a_base+16(FP), AX
	MOVQ    lda+40(FP), R12
	SHLQ    $3, R12
	LEAQ    (R12)(R12*2), R13
	MOVQ    sa+48(FP), R14
	SHLQ    $3, R14
	MOVQ    sb+88(FP), SI
	SHLQ    $3, SI
	MOVQ    c_base+96(FP), DI
	MOVBLZX load+136(FP), R8
	CMPQ    DX, $8
	JLE     v1_start
	CMPQ    DX, $16
	JLE     v2_start

v3_start:
	MOVQ ldc+120(FP), DX
	SHLQ $3, DX

v3_tile:
	MOVQ  kc+0(FP), CX
	MOVQ  b_base+64(FP), BX
	MOVQ  AX, a_base+16(FP)
	LEAQ  (DI)(DX*1), R9
	LEAQ  (R9)(DX*1), R10
	LEAQ  (R10)(DX*1), R11
	TESTQ R8, R8
	JZ    v3_zero
	VMOVUPD   (DI), Z4
	VMOVUPD   64(DI), Z5
	VMOVUPD.Z 128(DI), K1, Z6
	VMOVUPD   (R9), Z7
	VMOVUPD   64(R9), Z8
	VMOVUPD.Z 128(R9), K1, Z9
	VMOVUPD   (R10), Z10
	VMOVUPD   64(R10), Z11
	VMOVUPD.Z 128(R10), K1, Z12
	VMOVUPD   (R11), Z13
	VMOVUPD   64(R11), Z14
	VMOVUPD.Z 128(R11), K1, Z15
	JMP       v3_steps

v3_zero:
	VPXORQ Z4, Z4, Z4
	VPXORQ Z5, Z5, Z5
	VPXORQ Z6, Z6, Z6
	VPXORQ Z7, Z7, Z7
	VPXORQ Z8, Z8, Z8
	VPXORQ Z9, Z9, Z9
	VPXORQ Z10, Z10, Z10
	VPXORQ Z11, Z11, Z11
	VPXORQ Z12, Z12, Z12
	VPXORQ Z13, Z13, Z13
	VPXORQ Z14, Z14, Z14
	VPXORQ Z15, Z15, Z15

v3_steps:
	TESTQ CX, CX
	JZ    v3_store

v3_loop:
	VMOVUPD      (BX), Z0
	VMOVUPD      64(BX), Z1
	VMOVUPD.Z    128(BX), K1, Z2
	VBROADCASTSD (AX), Z16
	VBROADCASTSD (AX)(R12*1), Z17
	VBROADCASTSD (AX)(R12*2), Z18
	VBROADCASTSD (AX)(R13*1), Z19
	VFMADD231PD  Z0, Z16, Z4
	VFMADD231PD  Z1, Z16, Z5
	VFMADD231PD  Z2, Z16, Z6
	VFMADD231PD  Z0, Z17, Z7
	VFMADD231PD  Z1, Z17, Z8
	VFMADD231PD  Z2, Z17, Z9
	VFMADD231PD  Z0, Z18, Z10
	VFMADD231PD  Z1, Z18, Z11
	VFMADD231PD  Z2, Z18, Z12
	VFMADD231PD  Z0, Z19, Z13
	VFMADD231PD  Z1, Z19, Z14
	VFMADD231PD  Z2, Z19, Z15
	ADDQ R14, AX
	ADDQ SI, BX
	DECQ CX
	JNZ  v3_loop

v3_store:
	VMOVUPD Z4, (DI)
	VMOVUPD Z5, 64(DI)
	VMOVUPD Z6, K1, 128(DI)
	VMOVUPD Z7, (R9)
	VMOVUPD Z8, 64(R9)
	VMOVUPD Z9, K1, 128(R9)
	VMOVUPD Z10, (R10)
	VMOVUPD Z11, 64(R10)
	VMOVUPD Z12, K1, 128(R10)
	VMOVUPD Z13, (R11)
	VMOVUPD Z14, 64(R11)
	VMOVUPD Z15, K1, 128(R11)
	MOVQ    a_base+16(FP), AX
	ADDQ    ta+56(FP), AX
	LEAQ    (R11)(DX*1), DI
	DECQ    mt+8(FP)
	JNZ     v3_tile
	VZEROUPPER
	RET

v2_start:
	MOVQ ldc+120(FP), DX
	SHLQ $3, DX

v2_tile:
	MOVQ  kc+0(FP), CX
	MOVQ  b_base+64(FP), BX
	MOVQ  AX, a_base+16(FP)
	LEAQ  (DI)(DX*1), R9
	LEAQ  (R9)(DX*1), R10
	LEAQ  (R10)(DX*1), R11
	TESTQ R8, R8
	JZ    v2_zero
	VMOVUPD   (DI), Z4
	VMOVUPD.Z 64(DI), K1, Z5
	VMOVUPD   (R9), Z7
	VMOVUPD.Z 64(R9), K1, Z8
	VMOVUPD   (R10), Z10
	VMOVUPD.Z 64(R10), K1, Z11
	VMOVUPD   (R11), Z13
	VMOVUPD.Z 64(R11), K1, Z14
	JMP       v2_steps

v2_zero:
	VPXORQ Z4, Z4, Z4
	VPXORQ Z5, Z5, Z5
	VPXORQ Z7, Z7, Z7
	VPXORQ Z8, Z8, Z8
	VPXORQ Z10, Z10, Z10
	VPXORQ Z11, Z11, Z11
	VPXORQ Z13, Z13, Z13
	VPXORQ Z14, Z14, Z14

v2_steps:
	TESTQ CX, CX
	JZ    v2_store

v2_loop:
	VMOVUPD      (BX), Z0
	VMOVUPD.Z    64(BX), K1, Z1
	VBROADCASTSD (AX), Z16
	VBROADCASTSD (AX)(R12*1), Z17
	VBROADCASTSD (AX)(R12*2), Z18
	VBROADCASTSD (AX)(R13*1), Z19
	VFMADD231PD  Z0, Z16, Z4
	VFMADD231PD  Z1, Z16, Z5
	VFMADD231PD  Z0, Z17, Z7
	VFMADD231PD  Z1, Z17, Z8
	VFMADD231PD  Z0, Z18, Z10
	VFMADD231PD  Z1, Z18, Z11
	VFMADD231PD  Z0, Z19, Z13
	VFMADD231PD  Z1, Z19, Z14
	ADDQ R14, AX
	ADDQ SI, BX
	DECQ CX
	JNZ  v2_loop

v2_store:
	VMOVUPD Z4, (DI)
	VMOVUPD Z5, K1, 64(DI)
	VMOVUPD Z7, (R9)
	VMOVUPD Z8, K1, 64(R9)
	VMOVUPD Z10, (R10)
	VMOVUPD Z11, K1, 64(R10)
	VMOVUPD Z13, (R11)
	VMOVUPD Z14, K1, 64(R11)
	MOVQ    a_base+16(FP), AX
	ADDQ    ta+56(FP), AX
	LEAQ    (R11)(DX*1), DI
	DECQ    mt+8(FP)
	JNZ     v2_tile
	VZEROUPPER
	RET

v1_start:
	MOVQ ldc+120(FP), DX
	SHLQ $3, DX

v1_tile:
	MOVQ  kc+0(FP), CX
	MOVQ  b_base+64(FP), BX
	MOVQ  AX, a_base+16(FP)
	LEAQ  (DI)(DX*1), R9
	LEAQ  (R9)(DX*1), R10
	LEAQ  (R10)(DX*1), R11
	TESTQ R8, R8
	JZ    v1_zero
	VMOVUPD.Z (DI), K1, Z4
	VMOVUPD.Z (R9), K1, Z7
	VMOVUPD.Z (R10), K1, Z10
	VMOVUPD.Z (R11), K1, Z13
	JMP       v1_steps

v1_zero:
	VPXORQ Z4, Z4, Z4
	VPXORQ Z7, Z7, Z7
	VPXORQ Z10, Z10, Z10
	VPXORQ Z13, Z13, Z13

v1_steps:
	TESTQ CX, CX
	JZ    v1_store

v1_loop:
	VMOVUPD.Z    (BX), K1, Z0
	VBROADCASTSD (AX), Z16
	VBROADCASTSD (AX)(R12*1), Z17
	VBROADCASTSD (AX)(R12*2), Z18
	VBROADCASTSD (AX)(R13*1), Z19
	VFMADD231PD  Z0, Z16, Z4
	VFMADD231PD  Z0, Z17, Z7
	VFMADD231PD  Z0, Z18, Z10
	VFMADD231PD  Z0, Z19, Z13
	ADDQ R14, AX
	ADDQ SI, BX
	DECQ CX
	JNZ  v1_loop

v1_store:
	VMOVUPD Z4, K1, (DI)
	VMOVUPD Z7, K1, (R9)
	VMOVUPD Z10, K1, (R10)
	VMOVUPD Z13, K1, (R11)
	MOVQ    a_base+16(FP), AX
	ADDQ    ta+56(FP), AX
	LEAQ    (R11)(DX*1), DI
	DECQ    mt+8(FP)
	JNZ     v1_tile
	VZEROUPPER
	RET

z_done:
	RET

// func copyStepsAVX512(dst, src []float64, ld, kc int)
// dst[p*24+l] = src[p*ld+l]: three 8-wide vector moves per step.
TEXT ·copyStepsAVX512(SB), NOSPLIT, $0-64
	MOVQ dst_base+0(FP), DI
	MOVQ src_base+24(FP), SI
	MOVQ ld+48(FP), R8
	SHLQ $3, R8
	MOVQ kc+56(FP), CX
	TESTQ CX, CX
	JZ   copyz_done

copyz_loop24:
	VMOVUPD (SI), Z0
	VMOVUPD 64(SI), Z1
	VMOVUPD 128(SI), Z2
	VMOVUPD Z0, (DI)
	VMOVUPD Z1, 64(DI)
	VMOVUPD Z2, 128(DI)
	ADDQ R8, SI
	ADDQ $192, DI
	DECQ CX
	JNZ  copyz_loop24

copyz_done:
	VZEROUPPER
	RET

// func fmaPeakAVX512(iters int)
// Twelve independent 8-wide accumulator chains (the AVX-512 micro-kernel's
// register tile), no memory operands: that set's one-core FMA roofline.
TEXT ·fmaPeakAVX512(SB), NOSPLIT, $0-8
	MOVQ   iters+0(FP), CX
	VPXORQ Z0, Z0, Z0
	VPXORQ Z1, Z1, Z1
	VPXORQ Z4, Z4, Z4
	VPXORQ Z5, Z5, Z5
	VPXORQ Z6, Z6, Z6
	VPXORQ Z7, Z7, Z7
	VPXORQ Z8, Z8, Z8
	VPXORQ Z9, Z9, Z9
	VPXORQ Z10, Z10, Z10
	VPXORQ Z11, Z11, Z11
	VPXORQ Z12, Z12, Z12
	VPXORQ Z13, Z13, Z13
	VPXORQ Z14, Z14, Z14
	VPXORQ Z15, Z15, Z15
	TESTQ  CX, CX
	JZ     peakz_done

peakz_loop:
	VFMADD231PD Z0, Z1, Z4
	VFMADD231PD Z0, Z1, Z5
	VFMADD231PD Z0, Z1, Z6
	VFMADD231PD Z0, Z1, Z7
	VFMADD231PD Z0, Z1, Z8
	VFMADD231PD Z0, Z1, Z9
	VFMADD231PD Z0, Z1, Z10
	VFMADD231PD Z0, Z1, Z11
	VFMADD231PD Z0, Z1, Z12
	VFMADD231PD Z0, Z1, Z13
	VFMADD231PD Z0, Z1, Z14
	VFMADD231PD Z0, Z1, Z15
	DECQ CX
	JNZ  peakz_loop

peakz_done:
	VZEROUPPER
	RET

// func cpuidRaw(eaxIn, ecxIn uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuidRaw(SB), NOSPLIT, $0-24
	MOVL eaxIn+0(FP), AX
	MOVL ecxIn+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv0() (eax, edx uint32)
TEXT ·xgetbv0(SB), NOSPLIT, $0-8
	XORL CX, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET
