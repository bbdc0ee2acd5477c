//go:build amd64 && !purego

#include "textflag.h"

// AVX2 twins of the layer passes (layerpass.go). Go assembler operand order
// is reversed from Intel's: VSUBPD Ys, Ym, Yd computes Yd = Ym − Ys, and
// VMAXPD Ys, Ym, Yd returns Ys, the second source, unless Ym > Ys. Which of
// two NaN operands an instruction returns is not part of the contract: Go
// leaves it to the compiler in the oracles too.
//
// A per-channel twin runs channels [lo, hi), hi − lo a multiple of 4, of
// rows C = len(per-channel operand) wide. The reductions take blocks of up
// to four vectors (16 channels) with one accumulator per vector and walk
// every row of the block, so each lane sums its channel's rows in row order;
// a block narrower than four vectors skips the missing ones under branches
// that go the same way on every row. The elementwise per-channel twins walk
// rows, and within a row the channel vectors, reading the per-channel
// operands from memory. An elementwise twin takes a length that is a
// multiple of 4. Every routine executes VZEROUPPER before it returns.

// func channelSumsAVX(sum, x []float64, lo, hi int)
// sum[ch] = Σ_r x[r·C+ch] from +0.
TEXT ·channelSumsAVX(SB), NOSPLIT, $0-64
	MOVQ sum_base+0(FP), DI
	MOVQ sum_len+8(FP), R8
	SHLQ $3, R8
	MOVQ x_base+24(FP), SI
	MOVQ x_len+32(FP), R9
	LEAQ (SI)(R9*8), R9
	MOVQ lo+48(FP), CX
	MOVQ hi+56(FP), R10

sums_block:
	MOVQ R10, BX
	SUBQ CX, BX
	SHRQ $2, BX
	JZ   sums_done
	CMPQ BX, $4
	JBE  sums_start
	MOVQ $4, BX

sums_start:
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	LEAQ   (SI)(CX*8), R12
	CMPQ   R12, R9
	JAE    sums_store

sums_row:
	VADDPD (R12), Y0, Y0
	CMPQ   BX, $2
	JB     sums_next
	VADDPD 32(R12), Y1, Y1
	CMPQ   BX, $3
	JB     sums_next
	VADDPD 64(R12), Y2, Y2
	CMPQ   BX, $4
	JB     sums_next
	VADDPD 96(R12), Y3, Y3

sums_next:
	ADDQ R8, R12
	CMPQ R12, R9
	JB   sums_row

sums_store:
	LEAQ    (DI)(CX*8), R12
	VMOVUPD Y0, (R12)
	CMPQ    BX, $2
	JB      sums_advance
	VMOVUPD Y1, 32(R12)
	CMPQ    BX, $3
	JB      sums_advance
	VMOVUPD Y2, 64(R12)
	CMPQ    BX, $4
	JB      sums_advance
	VMOVUPD Y3, 96(R12)

sums_advance:
	LEAQ (CX)(BX*4), CX
	JMP  sums_block

sums_done:
	VZEROUPPER
	RET

// func channelSqDevsAVX(sq, x, mean []float64, lo, hi int)
// sq[ch] = Σ_r d·d, d = x[r·C+ch] − mean[ch], from +0. The block's means
// sit in Y4–Y7.
TEXT ·channelSqDevsAVX(SB), NOSPLIT, $0-88
	MOVQ sq_base+0(FP), DI
	MOVQ sq_len+8(FP), R8
	SHLQ $3, R8
	MOVQ x_base+24(FP), SI
	MOVQ x_len+32(FP), R9
	LEAQ (SI)(R9*8), R9
	MOVQ mean_base+48(FP), DX
	MOVQ lo+72(FP), CX
	MOVQ hi+80(FP), R10

sq_block:
	MOVQ R10, BX
	SUBQ CX, BX
	SHRQ $2, BX
	JZ   sq_done
	CMPQ BX, $4
	JBE  sq_start
	MOVQ $4, BX

sq_start:
	LEAQ    (DX)(CX*8), R12
	VMOVUPD (R12), Y4
	CMPQ    BX, $2
	JB      sq_zero
	VMOVUPD 32(R12), Y5
	CMPQ    BX, $3
	JB      sq_zero
	VMOVUPD 64(R12), Y6
	CMPQ    BX, $4
	JB      sq_zero
	VMOVUPD 96(R12), Y7

sq_zero:
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	LEAQ   (SI)(CX*8), R12
	CMPQ   R12, R9
	JAE    sq_store

sq_row:
	VMOVUPD (R12), Y8
	VSUBPD  Y4, Y8, Y8
	VMULPD  Y8, Y8, Y8
	VADDPD  Y8, Y0, Y0
	CMPQ    BX, $2
	JB      sq_next
	VMOVUPD 32(R12), Y9
	VSUBPD  Y5, Y9, Y9
	VMULPD  Y9, Y9, Y9
	VADDPD  Y9, Y1, Y1
	CMPQ    BX, $3
	JB      sq_next
	VMOVUPD 64(R12), Y10
	VSUBPD  Y6, Y10, Y10
	VMULPD  Y10, Y10, Y10
	VADDPD  Y10, Y2, Y2
	CMPQ    BX, $4
	JB      sq_next
	VMOVUPD 96(R12), Y11
	VSUBPD  Y7, Y11, Y11
	VMULPD  Y11, Y11, Y11
	VADDPD  Y11, Y3, Y3

sq_next:
	ADDQ R8, R12
	CMPQ R12, R9
	JB   sq_row

sq_store:
	LEAQ    (DI)(CX*8), R12
	VMOVUPD Y0, (R12)
	CMPQ    BX, $2
	JB      sq_advance
	VMOVUPD Y1, 32(R12)
	CMPQ    BX, $3
	JB      sq_advance
	VMOVUPD Y2, 64(R12)
	CMPQ    BX, $4
	JB      sq_advance
	VMOVUPD Y3, 96(R12)

sq_advance:
	LEAQ (CX)(BX*4), CX
	JMP  sq_block

sq_done:
	VZEROUPPER
	RET

// func channelSumPairAVX(s, sp, dy, xh []float64, lo, hi int)
// s[ch] = Σ_r dy and sp[ch] = Σ_r dy·xh from +0: s in Y0–Y3, sp in Y4–Y7.
// R13 is xh's distance from dy, so one row pointer walks both.
TEXT ·channelSumPairAVX(SB), NOSPLIT, $0-112
	MOVQ s_base+0(FP), DI
	MOVQ s_len+8(FP), R8
	SHLQ $3, R8
	MOVQ sp_base+24(FP), DX
	MOVQ dy_base+48(FP), SI
	MOVQ dy_len+56(FP), R9
	LEAQ (SI)(R9*8), R9
	MOVQ xh_base+72(FP), R13
	SUBQ SI, R13
	MOVQ lo+96(FP), CX
	MOVQ hi+104(FP), R10

pair_block:
	MOVQ R10, BX
	SUBQ CX, BX
	SHRQ $2, BX
	JZ   pair_done
	CMPQ BX, $4
	JBE  pair_start
	MOVQ $4, BX

pair_start:
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	VXORPD Y4, Y4, Y4
	VXORPD Y5, Y5, Y5
	VXORPD Y6, Y6, Y6
	VXORPD Y7, Y7, Y7
	LEAQ   (SI)(CX*8), R12
	CMPQ   R12, R9
	JAE    pair_store

pair_row:
	VMOVUPD (R12), Y8
	VADDPD  Y8, Y0, Y0
	VMULPD  (R12)(R13*1), Y8, Y8
	VADDPD  Y8, Y4, Y4
	CMPQ    BX, $2
	JB      pair_next
	VMOVUPD 32(R12), Y9
	VADDPD  Y9, Y1, Y1
	VMULPD  32(R12)(R13*1), Y9, Y9
	VADDPD  Y9, Y5, Y5
	CMPQ    BX, $3
	JB      pair_next
	VMOVUPD 64(R12), Y10
	VADDPD  Y10, Y2, Y2
	VMULPD  64(R12)(R13*1), Y10, Y10
	VADDPD  Y10, Y6, Y6
	CMPQ    BX, $4
	JB      pair_next
	VMOVUPD 96(R12), Y11
	VADDPD  Y11, Y3, Y3
	VMULPD  96(R12)(R13*1), Y11, Y11
	VADDPD  Y11, Y7, Y7

pair_next:
	ADDQ R8, R12
	CMPQ R12, R9
	JB   pair_row

pair_store:
	LEAQ    (DI)(CX*8), R12
	LEAQ    (DX)(CX*8), R11
	VMOVUPD Y0, (R12)
	VMOVUPD Y4, (R11)
	CMPQ    BX, $2
	JB      pair_advance
	VMOVUPD Y1, 32(R12)
	VMOVUPD Y5, 32(R11)
	CMPQ    BX, $3
	JB      pair_advance
	VMOVUPD Y2, 64(R12)
	VMOVUPD Y6, 64(R11)
	CMPQ    BX, $4
	JB      pair_advance
	VMOVUPD Y3, 96(R12)
	VMOVUPD Y7, 96(R11)

pair_advance:
	LEAQ (CX)(BX*4), CX
	JMP  pair_block

pair_done:
	VZEROUPPER
	RET

// func normalizeAVX(xh, out, x, mean, inv, gamma, beta []float64, lo, hi int)
// xh = (x − mean)·inv, out = gamma·xh + beta. R12, R13, R14 walk the rows
// of x, xh and out from channel lo; DX, R10, R11, R15 point at mean, inv,
// gamma and beta from channel lo; AX steps the row's bytes up to BX.
TEXT ·normalizeAVX(SB), NOSPLIT, $0-184
	MOVQ mean_len+80(FP), R8
	SHLQ $3, R8
	MOVQ lo+168(FP), CX
	MOVQ hi+176(FP), BX
	SUBQ CX, BX
	SHLQ $3, BX
	JZ   norm_done
	SHLQ $3, CX
	MOVQ x_base+48(FP), R12
	MOVQ x_len+56(FP), R9
	LEAQ (R12)(R9*8), R9
	ADDQ CX, R12
	MOVQ xh_base+0(FP), R13
	ADDQ CX, R13
	MOVQ out_base+24(FP), R14
	ADDQ CX, R14
	MOVQ mean_base+72(FP), DX
	ADDQ CX, DX
	MOVQ inv_base+96(FP), R10
	ADDQ CX, R10
	MOVQ gamma_base+120(FP), R11
	ADDQ CX, R11
	MOVQ beta_base+144(FP), R15
	ADDQ CX, R15

norm_row:
	CMPQ R12, R9
	JAE  norm_done
	XORQ AX, AX

norm_vec:
	VMOVUPD (R12)(AX*1), Y0
	VSUBPD  (DX)(AX*1), Y0, Y0
	VMULPD  (R10)(AX*1), Y0, Y0
	VMOVUPD Y0, (R13)(AX*1)
	VMULPD  (R11)(AX*1), Y0, Y1
	VADDPD  (R15)(AX*1), Y1, Y1
	VMOVUPD Y1, (R14)(AX*1)
	ADDQ    $32, AX
	CMPQ    AX, BX
	JB      norm_vec
	ADDQ    R8, R12
	ADDQ    R8, R13
	ADDQ    R8, R14
	JMP     norm_row

norm_done:
	VZEROUPPER
	RET

// func normalizeGradAVX(dx, dy, xh, k, s, sp []float64, n float64, lo, hi int)
// dx = k·((n·dy − s) − xh·sp), n broadcast in Y15. R12, R13, R14 walk the
// rows of dy, xh and dx from channel lo; DX, R10, R11 point at k, s and sp
// from channel lo; AX steps the row's bytes up to BX.
TEXT ·normalizeGradAVX(SB), NOSPLIT, $0-168
	MOVQ k_len+80(FP), R8
	SHLQ $3, R8
	MOVQ lo+152(FP), CX
	MOVQ hi+160(FP), BX
	SUBQ CX, BX
	SHLQ $3, BX
	JZ   ngrad_done
	SHLQ $3, CX
	VBROADCASTSD n+144(FP), Y15
	MOVQ dy_base+24(FP), R12
	MOVQ dy_len+32(FP), R9
	LEAQ (R12)(R9*8), R9
	ADDQ CX, R12
	MOVQ xh_base+48(FP), R13
	ADDQ CX, R13
	MOVQ dx_base+0(FP), R14
	ADDQ CX, R14
	MOVQ k_base+72(FP), DX
	ADDQ CX, DX
	MOVQ s_base+96(FP), R10
	ADDQ CX, R10
	MOVQ sp_base+120(FP), R11
	ADDQ CX, R11

ngrad_row:
	CMPQ R12, R9
	JAE  ngrad_done
	XORQ AX, AX

ngrad_vec:
	VMOVUPD (R12)(AX*1), Y0
	VMULPD  Y15, Y0, Y0
	VSUBPD  (R10)(AX*1), Y0, Y0
	VMOVUPD (R13)(AX*1), Y1
	VMULPD  (R11)(AX*1), Y1, Y1
	VSUBPD  Y1, Y0, Y0
	VMULPD  (DX)(AX*1), Y0, Y0
	VMOVUPD Y0, (R14)(AX*1)
	ADDQ    $32, AX
	CMPQ    AX, BX
	JB      ngrad_vec
	ADDQ    R8, R12
	ADDQ    R8, R13
	ADDQ    R8, R14
	JMP     ngrad_row

ngrad_done:
	VZEROUPPER
	RET

// func rectifyAVX(dst, src []float64)
// dst = max(src, +0) with +0 as the second source: NaN, −0 and negative
// values give +0.
TEXT ·rectifyAVX(SB), NOSPLIT, $0-48
	MOVQ   dst_base+0(FP), DI
	MOVQ   src_base+24(FP), SI
	MOVQ   src_len+32(FP), CX
	SHLQ   $3, CX
	XORQ   AX, AX
	VXORPD Y15, Y15, Y15

rect_loop:
	CMPQ    AX, CX
	JAE     rect_done
	VMOVUPD (SI)(AX*1), Y0
	VMAXPD  Y15, Y0, Y0
	VMOVUPD Y0, (DI)(AX*1)
	ADDQ    $32, AX
	JMP     rect_loop

rect_done:
	VZEROUPPER
	RET

// func addRectifyAVX(dst, a, b []float64)
// dst = max(a + b, +0), +0 the second source.
TEXT ·addRectifyAVX(SB), NOSPLIT, $0-72
	MOVQ   dst_base+0(FP), DI
	MOVQ   a_base+24(FP), SI
	MOVQ   a_len+32(FP), CX
	SHLQ   $3, CX
	MOVQ   b_base+48(FP), DX
	XORQ   AX, AX
	VXORPD Y15, Y15, Y15

addrect_loop:
	CMPQ    AX, CX
	JAE     addrect_done
	VMOVUPD (SI)(AX*1), Y0
	VADDPD  (DX)(AX*1), Y0, Y0
	VMAXPD  Y15, Y0, Y0
	VMOVUPD Y0, (DI)(AX*1)
	ADDQ    $32, AX
	JMP     addrect_loop

addrect_done:
	VZEROUPPER
	RET

// func rectifyGradAVX(dx, g, out []float64)
// dx = g with every lane whose out bits are all zero cleared: VPCMPEQQ
// against +0 gives the lanes to clear, VANDNPD clears them.
TEXT ·rectifyGradAVX(SB), NOSPLIT, $0-72
	MOVQ   dx_base+0(FP), DI
	MOVQ   g_base+24(FP), DX
	MOVQ   out_base+48(FP), SI
	MOVQ   out_len+56(FP), CX
	SHLQ   $3, CX
	XORQ   AX, AX
	VPXOR  Y15, Y15, Y15

rgrad_loop:
	CMPQ     AX, CX
	JAE      rgrad_done
	VPCMPEQQ (SI)(AX*1), Y15, Y0
	VANDNPD  (DX)(AX*1), Y0, Y0
	VMOVUPD  Y0, (DI)(AX*1)
	ADDQ     $32, AX
	JMP      rgrad_loop

rgrad_done:
	VZEROUPPER
	RET

// func addAVX(dst, a, b []float64)
// dst = a + b.
TEXT ·addAVX(SB), NOSPLIT, $0-72
	MOVQ dst_base+0(FP), DI
	MOVQ a_base+24(FP), SI
	MOVQ a_len+32(FP), CX
	SHLQ $3, CX
	MOVQ b_base+48(FP), DX
	XORQ AX, AX

add_loop:
	CMPQ    AX, CX
	JAE     add_done
	VMOVUPD (SI)(AX*1), Y0
	VADDPD  (DX)(AX*1), Y0, Y0
	VMOVUPD Y0, (DI)(AX*1)
	ADDQ    $32, AX
	JMP     add_loop

add_done:
	VZEROUPPER
	RET

// func momentumStepAVX(w, buf, g []float64, lr, momentum, wd float64)
// d = g (+ wd·w unless wd is ±0), buf = momentum·buf + d, w −= lr·buf; wd,
// momentum and lr broadcast in Y13–Y15, R8 = wd's bits without the sign.
TEXT ·momentumStepAVX(SB), NOSPLIT, $0-96
	MOVQ         w_base+0(FP), DI
	MOVQ         buf_base+24(FP), SI
	MOVQ         g_base+48(FP), DX
	MOVQ         g_len+56(FP), CX
	SHLQ         $3, CX
	VBROADCASTSD lr+72(FP), Y15
	VBROADCASTSD momentum+80(FP), Y14
	VBROADCASTSD wd+88(FP), Y13
	MOVQ         wd+88(FP), R8
	SHLQ         $1, R8
	XORQ         AX, AX

mom_loop:
	CMPQ    AX, CX
	JAE     mom_done
	VMOVUPD (DX)(AX*1), Y0
	TESTQ   R8, R8
	JZ      mom_buf
	VMULPD  (DI)(AX*1), Y13, Y1
	VADDPD  Y1, Y0, Y0

mom_buf:
	VMULPD  (SI)(AX*1), Y14, Y1
	VADDPD  Y0, Y1, Y1
	VMOVUPD Y1, (SI)(AX*1)
	VMULPD  Y15, Y1, Y1
	VMOVUPD (DI)(AX*1), Y2
	VSUBPD  Y1, Y2, Y2
	VMOVUPD Y2, (DI)(AX*1)
	ADDQ    $32, AX
	JMP     mom_loop

mom_done:
	VZEROUPPER
	RET
