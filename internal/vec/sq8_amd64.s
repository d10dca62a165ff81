#include "textflag.h"

// func squaredL2BytesAVX2(a, b []uint8) uint32
//
// Per 16 bytes: zero-extend both operands to 16 words, subtract (the
// differences fit int16), VPMADDWD the difference with itself (pairs of
// squares summed into 8 int32 lanes, at most 2·255² each) and add into
// one of two accumulators. A horizontal add folds the 16 lanes, and a
// scalar loop takes the last len mod 16 bytes. Lane sums wrap mod 2³²
// exactly like the generic kernel's uint32 sums.
TEXT ·squaredL2BytesAVX2(SB), NOSPLIT, $0-52
	MOVQ a_base+0(FP), SI
	MOVQ a_len+8(FP), CX
	MOVQ b_base+24(FP), DI
	VPXOR Y0, Y0, Y0
	VPXOR Y1, Y1, Y1
	CMPQ CX, $32
	JB   block16

loop32:
	VPMOVZXBW (SI), Y2
	VPMOVZXBW (DI), Y3
	VPMOVZXBW 16(SI), Y4
	VPMOVZXBW 16(DI), Y5
	VPSUBW    Y3, Y2, Y2
	VPSUBW    Y5, Y4, Y4
	VPMADDWD  Y2, Y2, Y2
	VPMADDWD  Y4, Y4, Y4
	VPADDD    Y2, Y0, Y0
	VPADDD    Y4, Y1, Y1
	ADDQ      $32, SI
	ADDQ      $32, DI
	SUBQ      $32, CX
	CMPQ      CX, $32
	JAE       loop32

block16:
	CMPQ      CX, $16
	JB        reduce
	VPMOVZXBW (SI), Y2
	VPMOVZXBW (DI), Y3
	VPSUBW    Y3, Y2, Y2
	VPMADDWD  Y2, Y2, Y2
	VPADDD    Y2, Y0, Y0
	ADDQ      $16, SI
	ADDQ      $16, DI
	SUBQ      $16, CX

reduce:
	VPADDD       Y1, Y0, Y0
	VEXTRACTI128 $1, Y0, X1
	VPADDD       X1, X0, X0
	VPSHUFD      $0x4e, X0, X1
	VPADDD       X1, X0, X0
	VPSHUFD      $0xb1, X0, X1
	VPADDD       X1, X0, X0
	VMOVD        X0, AX
	VZEROUPPER
	TESTQ        CX, CX
	JZ           done

tail:
	MOVBLZX (SI), R8
	MOVBLZX (DI), R9
	SUBL    R9, R8
	IMULL   R8, R8
	ADDL    R8, AX
	INCQ    SI
	INCQ    DI
	DECQ    CX
	JNZ     tail

done:
	MOVL AX, ret+48(FP)
	RET

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

// func xgetbv() (eax uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-4
	MOVL $0, CX
	XGETBV
	MOVL AX, eax+0(FP)
	RET
