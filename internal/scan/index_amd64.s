#include "textflag.h"

// func structuralAVX2(p *byte, blocks int, delim byte, nl, dl *uint64)
//
// For each 64-byte block of p, two VPCMPEQB per 32 bytes mark the bytes
// equal to '\n' and to delim, and VPMOVMSKB packs each half's marks into
// 32 bits; the halves join into one word of nl and one of dl, bit i for
// byte i of the block. blocks may be 0.
TEXT ·structuralAVX2(SB), NOSPLIT, $0-40
	MOVQ         p+0(FP), SI
	MOVQ         blocks+8(FP), CX
	MOVQ         nl+24(FP), DI
	MOVQ         dl+32(FP), R8
	MOVQ         $0x0a, AX
	MOVQ         AX, X0
	VPBROADCASTB X0, Y0
	MOVBQZX      delim+16(FP), AX
	MOVQ         AX, X1
	VPBROADCASTB X1, Y1
	TESTQ        CX, CX
	JZ           done

loop:
	VMOVDQU   (SI), Y2
	VMOVDQU   32(SI), Y3
	VPCMPEQB  Y0, Y2, Y4
	VPCMPEQB  Y0, Y3, Y5
	VPMOVMSKB Y4, AX
	VPMOVMSKB Y5, BX
	SHLQ      $32, BX
	ORQ       BX, AX
	MOVQ      AX, (DI)
	VPCMPEQB  Y1, Y2, Y4
	VPCMPEQB  Y1, Y3, Y5
	VPMOVMSKB Y4, AX
	VPMOVMSKB Y5, BX
	SHLQ      $32, BX
	ORQ       BX, AX
	MOVQ      AX, (R8)
	ADDQ      $64, SI
	ADDQ      $8, DI
	ADDQ      $8, R8
	DECQ      CX
	JNZ       loop

done:
	VZEROUPPER
	RET
