#include "textflag.h"

// The range-select kernels. Each compares 8 rows per iteration with a
// biased signed compare: with base = lo^signbit and limit =
// (hi-lo)^signbit, x-base > limit (signed) exactly when x-lo > hi-lo
// (unsigned), so the lanes that compare greater are the rejects. VMOVMSKPS
// (VMOVMSKPD) gathers the 8 reject bits, XOR 0xff turns them into the keep
// mask m, and COMPRESS writes the kept positions. Register use:
//	SI v, CX row index i, R9 rows n, DI out, DX survivors k,
//	R8 &compressIdx, Y1 base, Y2 limit, Y4 i in every lane, Y5 8 in
//	every lane.

// COMPRESS writes i+compressIdx[m] — the positions of the kept lanes,
// ascending, then garbage — as 8 int32 at out[k] and advances k by
// popcount(m) and i by 8. The store stays within out[:n] because k <= i
// and i+8 <= n.
#define COMPRESS \
	POPCNTL AX, BX; \
	SHLQ    $5, AX; \
	VPADDD  (R8)(AX*1), Y4, Y3; \
	VMOVDQU Y3, (DI)(DX*4); \
	ADDQ    BX, DX; \
	VPADDD  Y5, Y4, Y4; \
	ADDQ    $8, CX

// SETUP32 loads the arguments of a kernel over int32 lanes.
#define SETUP32 \
	MOVQ         v+0(FP), SI; \
	MOVQ         n+8(FP), R9; \
	VPBROADCASTD base+16(FP), Y1; \
	VPBROADCASTD limit+20(FP), Y2; \
	MOVQ         out+24(FP), DI; \
	SETUP

// SETUP zeroes i and k and fills R8, Y4 and Y5.
#define SETUP \
	LEAQ         ·compressIdx(SB), R8; \
	XORQ         CX, CX; \
	XORQ         DX, DX; \
	VPXOR        Y4, Y4, Y4; \
	MOVQ         $8, AX; \
	MOVQ         AX, X5; \
	VPBROADCASTD X5, Y5

// MASK32 leaves in AX the keep mask of the 8 int32 lanes in Y0.
#define MASK32 \
	VPSUBD    Y1, Y0, Y0; \
	VPCMPGTD  Y2, Y0, Y0; \
	VMOVMSKPS Y0, AX; \
	XORL      $0xff, AX

// func selectRange8AVX2(v *int8, n int, base, limit int32, out *int32) (k int)
TEXT ·selectRange8AVX2(SB), NOSPLIT, $0-40
	SETUP32

loop8:
	VPMOVSXBD (SI)(CX*1), Y0
	MASK32
	COMPRESS
	CMPQ      CX, R9
	JB        loop8
	VZEROUPPER
	MOVQ      DX, k+32(FP)
	RET

// func selectRange16AVX2(v *int16, n int, base, limit int32, out *int32) (k int)
TEXT ·selectRange16AVX2(SB), NOSPLIT, $0-40
	SETUP32

loop16:
	VPMOVSXWD (SI)(CX*2), Y0
	MASK32
	COMPRESS
	CMPQ      CX, R9
	JB        loop16
	VZEROUPPER
	MOVQ      DX, k+32(FP)
	RET

// func selectRange32AVX2(v *int32, n int, base, limit int32, out *int32) (k int)
TEXT ·selectRange32AVX2(SB), NOSPLIT, $0-40
	SETUP32

loop32:
	VMOVDQU (SI)(CX*4), Y0
	MASK32
	COMPRESS
	CMPQ    CX, R9
	JB      loop32
	VZEROUPPER
	MOVQ    DX, k+32(FP)
	RET

// func selectRange64AVX2(v *int64, n int, base, limit int64, out *int32) (k int)
//
// Two 4-lane compares per iteration; the second's reject bits become
// bits 4-7 of the mask.
TEXT ·selectRange64AVX2(SB), NOSPLIT, $0-48
	MOVQ         v+0(FP), SI
	MOVQ         n+8(FP), R9
	VPBROADCASTQ base+16(FP), Y1
	VPBROADCASTQ limit+24(FP), Y2
	MOVQ         out+32(FP), DI
	SETUP

loop64:
	VMOVDQU   (SI)(CX*8), Y0
	VMOVDQU   32(SI)(CX*8), Y6
	VPSUBQ    Y1, Y0, Y0
	VPSUBQ    Y1, Y6, Y6
	VPCMPGTQ  Y2, Y0, Y0
	VPCMPGTQ  Y2, Y6, Y6
	VMOVMSKPD Y0, AX
	VMOVMSKPD Y6, BX
	SHLL      $4, BX
	ORL       BX, AX
	XORL      $0xff, AX
	COMPRESS
	CMPQ      CX, R9
	JB        loop64
	VZEROUPPER
	MOVQ      DX, k+40(FP)
	RET

// func selectRangeSel32AVX2(v *int32, sel *int32, n int, base, limit int32, out *int32) (k int)
//
// The ranged step over a selection vector, width 4: 8 positions of sel
// per iteration. Register use: SI v, R10 sel, CX index i into sel, R9
// positions n, DI out, DX survivors k, R8 &compressIdx, Y1 base, Y2
// limit, Y3 the positions sel[i:i+8], Y7 the gather mask (a gather
// clears it, so it is refilled before each).
//
// It writes the positions of the kept lanes of Y3 — VPERMD by
// compressIdx[m], ascending, then garbage — as 8 int32 at out[k] and
// advances k by popcount(m) and i by 8. The store stays within out[:n]
// because k <= i and i+8 <= n. When out is sel itself the store at
// out[k] with k <= i overwrites only positions already loaded.
TEXT ·selectRangeSel32AVX2(SB), NOSPLIT, $0-48
	MOVQ         v+0(FP), SI
	MOVQ         sel+8(FP), R10
	MOVQ         n+16(FP), R9
	MOVL         base+24(FP), AX
	MOVL         limit+28(FP), BX
	MOVQ         out+32(FP), DI
	MOVQ         AX, X1
	MOVQ         BX, X2
	VPBROADCASTD X1, Y1
	VPBROADCASTD X2, Y2
	LEAQ         ·compressIdx(SB), R8
	XORQ         CX, CX
	XORQ         DX, DX

loopsel32:
	VMOVDQU    (R10)(CX*4), Y3
	VPCMPEQD   Y7, Y7, Y7
	VPGATHERDD Y7, (SI)(Y3*4), Y0
	MASK32
	POPCNTL    AX, BX
	SHLQ       $5, AX
	VMOVDQU    (R8)(AX*1), Y6
	VPERMD     Y3, Y6, Y6
	VMOVDQU    Y6, (DI)(DX*4)
	ADDQ       BX, DX
	ADDQ       $8, CX
	CMPQ       CX, R9
	JB         loopsel32
	VZEROUPPER
	MOVQ       DX, k+40(FP)
	RET

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
