#include "textflag.h"

// The AVX2 row loops of rows.go. Each does exactly the Go loop's multiplies
// and adds, operands in the Go expression's order (Go's VEX operand order is
// src2, src1, dst), and no FMA, so every lane rounds as the scalar loop
// does: four float64 lanes per instruction over the multiple-of-4 prefix of
// the row, then the scalar VEX forms of the same instructions over the
// remaining 0–3 samples. The Go wrappers slice every operand to the row's
// length, so nothing past it is read or written.

// func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL leaf+0(FP), AX
	MOVL sub+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv() (eax, edx uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-8
	MOVL $0, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET

// func interpRowAVX2(dst, src, wx, fx []float64)
//
//	dst[i] = src[i]*wx[i] + src[i+1]*fx[i]
TEXT ·interpRowAVX2(SB), NOSPLIT, $0-96
	MOVQ dst_base+0(FP), DI
	MOVQ dst_len+8(FP), CX
	MOVQ src_base+24(FP), SI
	MOVQ wx_base+48(FP), R8
	MOVQ fx_base+72(FP), R9
	SHLQ $3, CX
	XORQ AX, AX
	MOVQ CX, BX
	ANDQ $-32, BX
	JZ   interpTail

interpLoop:
	VMOVUPD (SI)(AX*1), Y0
	VMOVUPD 8(SI)(AX*1), Y1
	VMULPD  (R8)(AX*1), Y0, Y0 // l*wx
	VMULPD  (R9)(AX*1), Y1, Y1 // r*fx
	VADDPD  Y1, Y0, Y0         // l*wx + r*fx
	VMOVUPD Y0, (DI)(AX*1)
	ADDQ    $32, AX
	CMPQ    AX, BX
	JLT     interpLoop

interpTail:
	CMPQ    AX, CX
	JGE     interpDone
	VMOVSD  (SI)(AX*1), X0
	VMOVSD  8(SI)(AX*1), X1
	VMULSD  (R8)(AX*1), X0, X0
	VMULSD  (R9)(AX*1), X1, X1
	VADDSD  X1, X0, X0
	VMOVSD  X0, (DI)(AX*1)
	ADDQ    $8, AX
	JMP     interpTail

interpDone:
	VZEROUPPER
	RET

// func advectRowAVX2(out, tops, src, wx, fx []float64, wy0, fy, decay float64)
//
//	bot     = src[i]*wx[i] + src[i+1]*fx[i]
//	out[i]  = (tops[i]*wy0 + bot*fy) * decay
//	tops[i] = bot
TEXT ·advectRowAVX2(SB), NOSPLIT, $0-144
	MOVQ         out_base+0(FP), DI
	MOVQ         out_len+8(FP), CX
	MOVQ         tops_base+24(FP), DX
	MOVQ         src_base+48(FP), SI
	MOVQ         wx_base+72(FP), R8
	MOVQ         fx_base+96(FP), R9
	VBROADCASTSD wy0+120(FP), Y5
	VBROADCASTSD fy+128(FP), Y6
	VBROADCASTSD decay+136(FP), Y7
	SHLQ         $3, CX
	XORQ         AX, AX
	MOVQ         CX, BX
	ANDQ         $-32, BX
	JZ           advectTail

advectLoop:
	VMOVUPD (SI)(AX*1), Y0
	VMOVUPD 8(SI)(AX*1), Y1
	VMULPD  (R8)(AX*1), Y0, Y0 // l*wx
	VMULPD  (R9)(AX*1), Y1, Y1 // r*fx
	VADDPD  Y1, Y0, Y0         // bot = l*wx + r*fx
	VMOVUPD (DX)(AX*1), Y2
	VMULPD  Y5, Y2, Y2         // top*wy0
	VMULPD  Y6, Y0, Y3         // bot*fy
	VADDPD  Y3, Y2, Y2         // top*wy0 + bot*fy
	VMULPD  Y7, Y2, Y2         // (...) * decay
	VMOVUPD Y2, (DI)(AX*1)
	VMOVUPD Y0, (DX)(AX*1)     // tops[i] = bot
	ADDQ    $32, AX
	CMPQ    AX, BX
	JLT     advectLoop

advectTail:
	CMPQ    AX, CX
	JGE     advectDone
	VMOVSD  (SI)(AX*1), X0
	VMOVSD  8(SI)(AX*1), X1
	VMULSD  (R8)(AX*1), X0, X0
	VMULSD  (R9)(AX*1), X1, X1
	VADDSD  X1, X0, X0
	VMOVSD  (DX)(AX*1), X2
	VMULSD  X5, X2, X2
	VMULSD  X6, X0, X3
	VADDSD  X3, X2, X2
	VMULSD  X7, X2, X2
	VMOVSD  X2, (DI)(AX*1)
	VMOVSD  X0, (DX)(AX*1)
	ADDQ    $8, AX
	JMP     advectTail

advectDone:
	VZEROUPPER
	RET

// func addScaledAVX2(row, w []float64, a float64)
//
//	row[i] += a*w[i]
TEXT ·addScaledAVX2(SB), NOSPLIT, $0-56
	MOVQ         row_base+0(FP), DI
	MOVQ         w_base+24(FP), SI
	MOVQ         w_len+32(FP), CX
	VBROADCASTSD a+48(FP), Y2
	SHLQ         $3, CX
	XORQ         AX, AX
	MOVQ         CX, BX
	ANDQ         $-32, BX
	JZ           addTail

addLoop:
	VMULPD  (SI)(AX*1), Y2, Y1 // a*w
	VMOVUPD (DI)(AX*1), Y0
	VADDPD  Y1, Y0, Y0         // row + a*w
	VMOVUPD Y0, (DI)(AX*1)
	ADDQ    $32, AX
	CMPQ    AX, BX
	JLT     addLoop

addTail:
	CMPQ    AX, CX
	JGE     addDone
	VMULSD  (SI)(AX*1), X2, X1
	VMOVSD  (DI)(AX*1), X0
	VADDSD  X1, X0, X0
	VMOVSD  X0, (DI)(AX*1)
	ADDQ    $8, AX
	JMP     addTail

addDone:
	VZEROUPPER
	RET
