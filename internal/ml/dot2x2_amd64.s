//go:build !purego

#include "textflag.h"

// func dot2x2(x0, x1, y0, y1 []float64) (s00, s01, s10, s11 float64)
//
// Four steps a sweep: the pair k, k+1 of every operand in one register,
// the pair k+2, k+3 in a second. Output s has two accumulators, lanes
// (p0, p1) and (p2, p3), so partial sum l collects k ≡ l (mod 4). SSE2
// only (amd64's baseline): packed multiply, then packed add, no FMA.
TEXT ·dot2x2(SB), NOSPLIT, $0-128
	MOVQ x0_base+0(FP), SI
	MOVQ x0_len+8(FP), CX
	MOVQ x1_base+24(FP), DI
	MOVQ y0_base+48(FP), R8
	MOVQ y1_base+72(FP), R9
	XORPS X8, X8   // s00: p0, p1
	XORPS X9, X9   // s00: p2, p3
	XORPS X10, X10 // s01
	XORPS X11, X11
	XORPS X12, X12 // s10
	XORPS X13, X13
	XORPS X14, X14 // s11
	XORPS X15, X15
	MOVQ CX, DX
	ANDQ $-4, DX   // n &^ 3
	XORQ AX, AX
	CMPQ DX, $0
	JEQ  reduce

sweep:
	MOVUPD (SI)(AX*8), X0 // x0[k:k+2]
	MOVUPD (DI)(AX*8), X1 // x1[k:k+2]
	MOVUPD (R8)(AX*8), X2 // y0[k:k+2]
	MOVUPD (R9)(AX*8), X3 // y1[k:k+2]
	MOVAPD X0, X4
	MULPD  X2, X4
	ADDPD  X4, X8
	MULPD  X3, X0
	ADDPD  X0, X10
	MULPD  X1, X2
	ADDPD  X2, X12
	MULPD  X3, X1
	ADDPD  X1, X14
	MOVUPD 16(SI)(AX*8), X5 // x0[k+2:k+4]
	MOVUPD 16(DI)(AX*8), X6
	MOVUPD 16(R8)(AX*8), X7
	MOVUPD 16(R9)(AX*8), X3
	MOVAPD X5, X4
	MULPD  X7, X4
	ADDPD  X4, X9
	MULPD  X3, X5
	ADDPD  X5, X11
	MULPD  X6, X7
	ADDPD  X7, X13
	MULPD  X3, X6
	ADDPD  X6, X15
	ADDQ   $4, AX
	CMPQ   AX, DX
	JLT    sweep

reduce:
	// (p0+p2, p1+p3), then lane 0 + lane 1.
	ADDPD    X9, X8
	MOVAPD   X8, X9
	UNPCKHPD X9, X9
	ADDSD    X9, X8
	ADDPD    X11, X10
	MOVAPD   X10, X11
	UNPCKHPD X11, X11
	ADDSD    X11, X10
	ADDPD    X13, X12
	MOVAPD   X12, X13
	UNPCKHPD X13, X13
	ADDSD    X13, X12
	ADDPD    X15, X14
	MOVAPD   X14, X15
	UNPCKHPD X15, X15
	ADDSD    X15, X14

tail:
	// The last n mod 4 steps, one at a time, in order.
	CMPQ  AX, CX
	JGE   done
	MOVSD (SI)(AX*8), X0
	MOVSD (DI)(AX*8), X1
	MOVSD (R8)(AX*8), X2
	MOVSD (R9)(AX*8), X3
	MOVAPD X0, X4
	MULSD X2, X4
	ADDSD X4, X8
	MULSD X3, X0
	ADDSD X0, X10
	MULSD X1, X2
	ADDSD X2, X12
	MULSD X3, X1
	ADDSD X1, X14
	INCQ  AX
	JMP   tail

done:
	MOVSD X8, s00+96(FP)
	MOVSD X10, s01+104(FP)
	MOVSD X12, s10+112(FP)
	MOVSD X14, s11+120(FP)
	RET
