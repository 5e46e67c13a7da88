//go:build amd64 && !purego

#include "textflag.h"

// func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL eaxArg+0(FP), AX
	MOVL ecxArg+4(FP), CX
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

// func l1x8AVX2(w, q, flat []float64, offs *[8]int, out *[8]float64)
//
// Rows 0-3 and rows 4-7 form two groups of four. For each group and each
// block of 4 dimensions j..j+3, the four rows' terms w*|q-x| are
// computed one row per register (VSUBPD, VANDPD with the sign-clearing
// mask, VMULPD), then transposed 4x4 so that register k holds dimension
// j+k of all four rows, one row per lane. Adding those registers to the
// group's accumulator in k order adds each lane's terms in ascending
// dimension order: every lane performs exactly the scalar loop's
// roundings, in the scalar loop's order. The remaining len(q)%4
// dimensions are gathered one at a time into the same lanes. Multiply
// and add are separate instructions; this kernel uses no FMA.
TEXT ·l1x8AVX2(SB), NOSPLIT, $0-88
	MOVQ w_base+0(FP), SI
	MOVQ q_base+24(FP), DI
	MOVQ q_len+32(FP), DX
	MOVQ flat_base+48(FP), AX
	MOVQ offs+72(FP), BX

	// Row pointers: R8..R15 = &flat[offs[r]].
	MOVQ 0(BX), R8
	LEAQ (AX)(R8*8), R8
	MOVQ 8(BX), R9
	LEAQ (AX)(R9*8), R9
	MOVQ 16(BX), R10
	LEAQ (AX)(R10*8), R10
	MOVQ 24(BX), R11
	LEAQ (AX)(R11*8), R11
	MOVQ 32(BX), R12
	LEAQ (AX)(R12*8), R12
	MOVQ 40(BX), R13
	LEAQ (AX)(R13*8), R13
	MOVQ 48(BX), R14
	LEAQ (AX)(R14*8), R14
	MOVQ 56(BX), R15
	LEAQ (AX)(R15*8), R15

	// Y15 = 0x7fff...ffff in every lane: AND clears the sign bit, which
	// is exactly math.Abs.
	VPCMPEQQ Y15, Y15, Y15
	VPSRLQ   $1, Y15, Y15

	// Y12 and Y11 accumulate rows 0-3 and rows 4-7; both start at +0
	// like the scalar sum.
	VXORPD Y12, Y12, Y12
	VXORPD Y11, Y11, Y11

	XORQ CX, CX
	MOVQ DX, BX
	ANDQ $-4, BX
	JZ   tail

loop4:
	VMOVUPD (SI)(CX*8), Y14 // w[j:j+4]
	VMOVUPD (DI)(CX*8), Y13 // q[j:j+4]

	// Rows 0-3.
	VSUBPD (R8)(CX*8), Y13, Y0
	VSUBPD (R9)(CX*8), Y13, Y1
	VSUBPD (R10)(CX*8), Y13, Y2
	VSUBPD (R11)(CX*8), Y13, Y3
	VANDPD Y15, Y0, Y0
	VANDPD Y15, Y1, Y1
	VANDPD Y15, Y2, Y2
	VANDPD Y15, Y3, Y3
	VMULPD Y14, Y0, Y0
	VMULPD Y14, Y1, Y1
	VMULPD Y14, Y2, Y2
	VMULPD Y14, Y3, Y3
	VUNPCKLPD  Y1, Y0, Y4         // a0 b0 a2 b2
	VUNPCKHPD  Y1, Y0, Y5         // a1 b1 a3 b3
	VUNPCKLPD  Y3, Y2, Y6         // c0 d0 c2 d2
	VUNPCKHPD  Y3, Y2, Y7         // c1 d1 c3 d3
	VPERM2F128 $0x20, Y6, Y4, Y0  // a0 b0 c0 d0
	VPERM2F128 $0x20, Y7, Y5, Y1  // a1 b1 c1 d1
	VPERM2F128 $0x31, Y6, Y4, Y2  // a2 b2 c2 d2
	VPERM2F128 $0x31, Y7, Y5, Y3  // a3 b3 c3 d3
	VADDPD     Y0, Y12, Y12
	VADDPD     Y1, Y12, Y12
	VADDPD     Y2, Y12, Y12
	VADDPD     Y3, Y12, Y12

	// Rows 4-7.
	VSUBPD (R12)(CX*8), Y13, Y0
	VSUBPD (R13)(CX*8), Y13, Y1
	VSUBPD (R14)(CX*8), Y13, Y2
	VSUBPD (R15)(CX*8), Y13, Y3
	VANDPD Y15, Y0, Y0
	VANDPD Y15, Y1, Y1
	VANDPD Y15, Y2, Y2
	VANDPD Y15, Y3, Y3
	VMULPD Y14, Y0, Y0
	VMULPD Y14, Y1, Y1
	VMULPD Y14, Y2, Y2
	VMULPD Y14, Y3, Y3
	VUNPCKLPD  Y1, Y0, Y4
	VUNPCKHPD  Y1, Y0, Y5
	VUNPCKLPD  Y3, Y2, Y6
	VUNPCKHPD  Y3, Y2, Y7
	VPERM2F128 $0x20, Y6, Y4, Y0
	VPERM2F128 $0x20, Y7, Y5, Y1
	VPERM2F128 $0x31, Y6, Y4, Y2
	VPERM2F128 $0x31, Y7, Y5, Y3
	VADDPD     Y0, Y11, Y11
	VADDPD     Y1, Y11, Y11
	VADDPD     Y2, Y11, Y11
	VADDPD     Y3, Y11, Y11

	ADDQ $4, CX
	CMPQ CX, BX
	JLT  loop4

tail:
	CMPQ CX, DX
	JGE  done

tail1:
	VBROADCASTSD (SI)(CX*8), Y14 // w[j] in every lane
	VBROADCASTSD (DI)(CX*8), Y13 // q[j] in every lane

	VMOVSD      (R8)(CX*8), X0
	VMOVHPD     (R9)(CX*8), X0, X0
	VMOVSD      (R10)(CX*8), X1
	VMOVHPD     (R11)(CX*8), X1, X1
	VINSERTF128 $1, X1, Y0, Y0   // x0[j] x1[j] x2[j] x3[j]
	VSUBPD      Y0, Y13, Y0
	VANDPD      Y15, Y0, Y0
	VMULPD      Y14, Y0, Y0
	VADDPD      Y0, Y12, Y12

	VMOVSD      (R12)(CX*8), X0
	VMOVHPD     (R13)(CX*8), X0, X0
	VMOVSD      (R14)(CX*8), X1
	VMOVHPD     (R15)(CX*8), X1, X1
	VINSERTF128 $1, X1, Y0, Y0
	VSUBPD      Y0, Y13, Y0
	VANDPD      Y15, Y0, Y0
	VMULPD      Y14, Y0, Y0
	VADDPD      Y0, Y11, Y11

	INCQ CX
	CMPQ CX, DX
	JLT  tail1

done:
	MOVQ    out+80(FP), AX
	VMOVUPD Y12, 0(AX)
	VMOVUPD Y11, 32(AX)
	VZEROUPPER
	RET
