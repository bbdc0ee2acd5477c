//go:build amd64 && !purego

#include "textflag.h"

// AVX2+FMA float64 kernels for the blocked eigensolver. Operand order
// note: the Go assembler reverses Intel operand order, so
// VFMADD231PD Ys, Ym, Yd computes Yd += Ym*Ys. Every routine handles
// arbitrary lengths (vector body + scalar tail) and executes VZEROUPPER
// before returning to avoid SSE/AVX transition stalls.

// func dotF64AVX(a, b []float64) float64
// Inner product: 4×4 float64 FMA lanes (16 elements per iteration), a
// 4-lane cleanup loop, and a scalar tail kept in its own accumulator so
// the VEX.128 scalar ops cannot clobber the packed lanes.
TEXT ·dotF64AVX(SB), NOSPLIT, $0-56
	MOVQ   a_base+0(FP), SI
	MOVQ   a_len+8(FP), CX
	MOVQ   b_base+24(FP), DI
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	VXORPD X8, X8, X8   // scalar-tail accumulator
	XORQ   AX, AX
	MOVQ   CX, DX
	ANDQ   $-16, DX

dot_loop16:
	CMPQ AX, DX
	JGE  dot_rem4
	VMOVUPD     (SI)(AX*8), Y4
	VMOVUPD     32(SI)(AX*8), Y5
	VMOVUPD     64(SI)(AX*8), Y6
	VMOVUPD     96(SI)(AX*8), Y7
	VFMADD231PD (DI)(AX*8), Y4, Y0
	VFMADD231PD 32(DI)(AX*8), Y5, Y1
	VFMADD231PD 64(DI)(AX*8), Y6, Y2
	VFMADD231PD 96(DI)(AX*8), Y7, Y3
	ADDQ $16, AX
	JMP  dot_loop16

dot_rem4:
	MOVQ CX, DX
	ANDQ $-4, DX

dot_rem4_loop:
	CMPQ AX, DX
	JGE  dot_tail
	VMOVUPD     (SI)(AX*8), Y4
	VFMADD231PD (DI)(AX*8), Y4, Y0
	ADDQ $4, AX
	JMP  dot_rem4_loop

dot_tail:
	CMPQ AX, CX
	JGE  dot_sum
	VMOVSD      (SI)(AX*8), X4
	VFMADD231SD (DI)(AX*8), X4, X8
	INCQ AX
	JMP  dot_tail

dot_sum:
	VADDPD       Y1, Y0, Y0
	VADDPD       Y3, Y2, Y2
	VADDPD       Y2, Y0, Y0
	VEXTRACTF128 $1, Y0, X2
	VADDPD       X2, X0, X0
	VHADDPD      X0, X0, X0
	VADDSD       X8, X0, X0
	VMOVSD       X0, ret+48(FP)
	VZEROUPPER
	RET

// func axpyF64AVX(dst, src []float64, a float64)
// dst += a*src, 4 lanes per iteration. Element-wise FMA, so the packed
// body and scalar tail produce identical bits per element.
TEXT ·axpyF64AVX(SB), NOSPLIT, $0-56
	MOVQ         dst_base+0(FP), DI
	MOVQ         dst_len+8(FP), CX
	MOVQ         src_base+24(FP), SI
	VBROADCASTSD a+48(FP), Y0
	XORQ         AX, AX
	MOVQ         CX, DX
	ANDQ         $-4, DX

axpy_loop4:
	CMPQ AX, DX
	JGE  axpy_tail
	VMOVUPD     (SI)(AX*8), Y1
	VMOVUPD     (DI)(AX*8), Y2
	VFMADD231PD Y1, Y0, Y2
	VMOVUPD     Y2, (DI)(AX*8)
	ADDQ $4, AX
	JMP  axpy_loop4

axpy_tail:
	CMPQ AX, CX
	JGE  axpy_done
	VMOVSD      (SI)(AX*8), X1
	VMOVSD      (DI)(AX*8), X2
	VFMADD231SD X1, X0, X2
	VMOVSD      X2, (DI)(AX*8)
	INCQ AX
	JMP  axpy_tail

axpy_done:
	VZEROUPPER
	RET
