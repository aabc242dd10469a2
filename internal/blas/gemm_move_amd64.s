//go:build amd64

#include "textflag.h"

// The blocked GEMM's data movement (gemm_blocked.go): the packers'
// panels, the writeback of full 8- and 16-lane tile rows, and the
// writeback of 4-row tiles into a transposed C. Every routine
// here moves or combines values exactly as its Go twin does — packing is
// a copy, and the writeback uses the Go expression's multiplies and adds
// in the compiler's operand order, never a fused multiply-add — so C comes
// out bit for bit the same on either path (TestDataMovementMatchesGo).

// func packBN16AVX2(dst, src *float32, ldb, kc int)
//
// dst[l*16 : l*16+16] = src[l*ldb : l*ldb+16] for l < kc: a full 16-wide
// panel of a dense B, two YMM moves per depth step. kc > 0.
TEXT ·packBN16AVX2(SB), NOSPLIT, $0-32
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ ldb+16(FP), R8
	MOVQ kc+24(FP), CX
	SHLQ $2, R8

nloop:
	VMOVUPS (SI), Y0
	VMOVUPS 32(SI), Y1
	VMOVUPS Y0, (DI)
	VMOVUPS Y1, 32(DI)
	ADDQ    R8, SI
	ADDQ    $64, DI
	DECQ    CX
	JNE     nloop
	VZEROUPPER
	RET

// func packBTAVX2(dst, src *float32, ldb, kc8, cols int)
//
// dst[l*16+j] = src[j*ldb+l] for j < cols, 0 for cols <= j < 16, l < kc8:
// a 16-wide panel of a transposed B, whose cols columns are cols stored
// rows. Each block of eight depth steps is two 8x8 transposes (stored rows
// 0-7 into lanes 0-7 of eight panel rows, rows 8-15 into lanes 8-15):
// unpack pairs of rows, shuffle pairs of pairs, swap 128-bit halves. A
// half with fewer than eight rows loads the ones that exist and
// transposes zero registers in place of the rest. kc8 is a positive
// multiple of 8, cols is 1-16.
TEXT ·packBTAVX2(SB), NOSPLIT, $0-40
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ ldb+16(FP), R8
	MOVQ kc8+24(FP), CX
	MOVQ cols+32(FP), R13
	SHLQ $2, R8               // row stride, bytes
	LEAQ (R8)(R8*2), R9       // three rows
	SHRQ $3, CX               // blocks of eight depth steps

tblock:
	MOVQ SI, AX               // first of the eight stored rows
	MOVQ DI, DX               // their lanes in the first panel row
	MOVQ R13, R12             // rows from AX on
	MOVQ $2, R11

thalf:
	LEAQ    (AX)(R8*4), R10
	CMPQ    R12, $8
	JLT     tpart
	VMOVUPS (AX), Y0          // r0[0:8]
	VMOVUPS (AX)(R8*1), Y1
	VMOVUPS (AX)(R8*2), Y2
	VMOVUPS (AX)(R9*1), Y3
	VMOVUPS (R10), Y4
	VMOVUPS (R10)(R8*1), Y5
	VMOVUPS (R10)(R8*2), Y6
	VMOVUPS (R10)(R9*1), Y7   // r7[0:8]
	JMP     ttrans

tpart:
	VXORPS  Y0, Y0, Y0
	VXORPS  Y1, Y1, Y1
	VXORPS  Y2, Y2, Y2
	VXORPS  Y3, Y3, Y3
	VXORPS  Y4, Y4, Y4
	VXORPS  Y5, Y5, Y5
	VXORPS  Y6, Y6, Y6
	VXORPS  Y7, Y7, Y7
	CMPQ    R12, $1
	JLT     ttrans
	VMOVUPS (AX), Y0
	CMPQ    R12, $2
	JLT     ttrans
	VMOVUPS (AX)(R8*1), Y1
	CMPQ    R12, $3
	JLT     ttrans
	VMOVUPS (AX)(R8*2), Y2
	CMPQ    R12, $4
	JLT     ttrans
	VMOVUPS (AX)(R9*1), Y3
	CMPQ    R12, $5
	JLT     ttrans
	VMOVUPS (R10), Y4
	CMPQ    R12, $6
	JLT     ttrans
	VMOVUPS (R10)(R8*1), Y5
	CMPQ    R12, $7
	JLT     ttrans
	VMOVUPS (R10)(R8*2), Y6

ttrans:
	VUNPCKLPS Y1, Y0, Y8      // r0[0] r1[0] r0[1] r1[1] | r0[4] r1[4] r0[5] r1[5]
	VUNPCKHPS Y1, Y0, Y9      // r0[2] r1[2] r0[3] r1[3] | r0[6] r1[6] r0[7] r1[7]
	VUNPCKLPS Y3, Y2, Y10
	VUNPCKHPS Y3, Y2, Y11
	VUNPCKLPS Y5, Y4, Y12
	VUNPCKHPS Y5, Y4, Y13
	VUNPCKLPS Y7, Y6, Y14
	VUNPCKHPS Y7, Y6, Y15

	VSHUFPS $0x44, Y10, Y8, Y0  // r0..r3 at l = 0 | at l = 4
	VSHUFPS $0xEE, Y10, Y8, Y1  // l = 1 | 5
	VSHUFPS $0x44, Y11, Y9, Y2  // l = 2 | 6
	VSHUFPS $0xEE, Y11, Y9, Y3  // l = 3 | 7
	VSHUFPS $0x44, Y14, Y12, Y4 // r4..r7 at l = 0 | at l = 4
	VSHUFPS $0xEE, Y14, Y12, Y5
	VSHUFPS $0x44, Y15, Y13, Y6
	VSHUFPS $0xEE, Y15, Y13, Y7

	VPERM2F128 $0x20, Y4, Y0, Y8  // r0..r7 at l = 0
	VPERM2F128 $0x20, Y5, Y1, Y9
	VPERM2F128 $0x20, Y6, Y2, Y10
	VPERM2F128 $0x20, Y7, Y3, Y11
	VPERM2F128 $0x31, Y4, Y0, Y12 // r0..r7 at l = 4
	VPERM2F128 $0x31, Y5, Y1, Y13
	VPERM2F128 $0x31, Y6, Y2, Y14
	VPERM2F128 $0x31, Y7, Y3, Y15

	VMOVUPS Y8, (DX)
	VMOVUPS Y9, 64(DX)
	VMOVUPS Y10, 128(DX)
	VMOVUPS Y11, 192(DX)
	VMOVUPS Y12, 256(DX)
	VMOVUPS Y13, 320(DX)
	VMOVUPS Y14, 384(DX)
	VMOVUPS Y15, 448(DX)

	LEAQ (AX)(R8*8), AX       // stored rows 8-15
	ADDQ $32, DX              // lanes 8-15
	SUBQ $8, R12
	DECQ R11
	JNE  thalf

	ADDQ $32, SI              // next eight depth steps
	ADDQ $512, DI             // eight panel rows of 16 floats
	DECQ CX
	JNE  tblock
	VZEROUPPER
	RET

// func packA4AVX2(dst, src *float32, lda, kc8 int)
//
// dst[l*4+i] = src[i*lda+l] for i < 4, l < kc8: four rows of A
// interleaved into a full mr-tall panel, eight depth steps (one 4x8
// transpose) at a time. kc8 is a positive multiple of 8.
TEXT ·packA4AVX2(SB), NOSPLIT, $0-32
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ lda+16(FP), R8
	MOVQ kc8+24(FP), CX
	SHLQ $2, R8
	LEAQ (R8)(R8*2), R9
	SHRQ $3, CX

aloop:
	VMOVUPS (SI), Y0          // r0[0:8]
	VMOVUPS (SI)(R8*1), Y1
	VMOVUPS (SI)(R8*2), Y2
	VMOVUPS (SI)(R9*1), Y3

	VUNPCKLPS Y1, Y0, Y4      // r0[0] r1[0] r0[1] r1[1] | r0[4] r1[4] r0[5] r1[5]
	VUNPCKHPS Y1, Y0, Y5      // r0[2] r1[2] r0[3] r1[3] | r0[6] r1[6] r0[7] r1[7]
	VUNPCKLPS Y3, Y2, Y6
	VUNPCKHPS Y3, Y2, Y7

	VSHUFPS $0x44, Y6, Y4, Y0 // l = 0 | 4
	VSHUFPS $0xEE, Y6, Y4, Y1 // l = 1 | 5
	VSHUFPS $0x44, Y7, Y5, Y2 // l = 2 | 6
	VSHUFPS $0xEE, Y7, Y5, Y3 // l = 3 | 7

	VPERM2F128 $0x20, Y1, Y0, Y4 // l = 0, 1
	VPERM2F128 $0x20, Y3, Y2, Y5 // l = 2, 3
	VPERM2F128 $0x31, Y1, Y0, Y6 // l = 4, 5
	VPERM2F128 $0x31, Y3, Y2, Y7 // l = 6, 7

	VMOVUPS Y4, (DI)
	VMOVUPS Y5, 32(DI)
	VMOVUPS Y6, 64(DI)
	VMOVUPS Y7, 96(DI)
	ADDQ    $32, SI
	ADDQ    $128, DI
	DECQ    CX
	JNE     aloop
	VZEROUPPER
	RET

// func packAT4AVX2(dst, src *float32, lda, kc, panels int)
//
// dst[(p*kc+l)*4 : +4] = src[l*lda+p*4 : +4] for l < kc, p < panels: the
// full mr-tall panels of a transposed A, whose panel rows are 4-float runs
// of the stored rows. The panels lie end to end, so dst is one stream.
// kc, panels > 0.
TEXT ·packAT4AVX2(SB), NOSPLIT, $0-40
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ lda+16(FP), R8
	MOVQ kc+24(FP), DX
	MOVQ panels+32(FP), CX
	SHLQ $2, R8

rpanel:
	MOVQ SI, AX
	MOVQ DX, R10

rstep:
	VMOVUPS (AX), X0
	VMOVUPS X0, (DI)
	ADDQ    R8, AX
	ADDQ    $16, DI
	DECQ    R10
	JNE     rstep

	ADDQ $16, SI              // the next four columns of the stored rows
	DECQ CX
	JNE  rpanel
	RET

// func writebackAVX2(acc, c, bias *float32, nr, ldc, mrr, nrr, mode int, alpha, beta float32)
//
// writebackTileGo for nrr = 8 or 16 lanes, eight lanes a step. acc rows
// are nr floats apart, C rows ldc; bias is nil or one float per row, added
// after the mode's expression as its own rounding. mode is the Go switch:
//
//	0  c = alpha*v + c          (a later KC block)
//	1  c = v                    (beta == 0, alpha == 1)
//	2  c = alpha*v              (beta == 0: C is not read)
//	3  c = beta*c + alpha*v
//
// with each product's operands in the order the compiler issues them for
// the Go loops (v*alpha, c*beta; (alpha*v)+c, (beta*c)+(alpha*v), c+bias),
// which is what decides the payload of a NaN result when both operands of
// an operation are NaN. mrr > 0.
TEXT ·writebackAVX2(SB), NOSPLIT, $0-72
	MOVQ         acc+0(FP), SI
	MOVQ         c+8(FP), DI
	MOVQ         bias+16(FP), R8
	MOVQ         nr+24(FP), R9
	MOVQ         ldc+32(FP), R10
	MOVQ         mrr+40(FP), CX
	MOVQ         nrr+48(FP), DX
	MOVQ         mode+56(FP), R11
	VBROADCASTSS alpha+64(FP), Y14
	VBROADCASTSS beta+68(FP), Y15
	SHLQ         $2, R9
	SHLQ         $2, R10
	SHLQ         $2, DX       // row length, bytes

wrow:
	TESTQ        R8, R8
	JEQ          wlanes
	VBROADCASTSS (R8), Y13    // this row's bias

wlanes:
	XORQ BX, BX

wgroup:
	VMOVUPS (SI)(BX*1), Y0    // v
	CMPQ    R11, $1
	JEQ     wbias
	VMULPS  Y14, Y0, Y0       // v*alpha
	CMPQ    R11, $2
	JEQ     wbias
	CMPQ    R11, $3
	JEQ     wgeneral
	VADDPS  (DI)(BX*1), Y0, Y0 // (alpha*v) + c
	JMP     wbias

wgeneral:
	VMOVUPS (DI)(BX*1), Y1
	VMULPS  Y15, Y1, Y1       // c*beta
	VADDPS  Y0, Y1, Y0        // (beta*c) + (alpha*v)

wbias:
	TESTQ   R8, R8
	JEQ     wstore
	VADDPS  Y13, Y0, Y0       // c + bias

wstore:
	VMOVUPS Y0, (DI)(BX*1)
	ADDQ    $32, BX
	CMPQ    BX, DX
	JLT     wgroup

	ADDQ  R9, SI
	ADDQ  R10, DI
	TESTQ R8, R8
	JEQ   wnext
	ADDQ  $4, R8

wnext:
	DECQ CX
	JNE  wrow
	VZEROUPPER
	RET

// func writebackTAVX2(acc, c *float32, nr, ldc, nrr, mode int, alpha, beta float32)
//
// writebackTileTGo for a tile of four rows and nrr (1-16) lanes: lane j's
// four rows go to c[j*ldc : j*ldc+4], through the writebackAVX2 mode's
// expression on four floats, operands in the same order, without a bias.
// The tile is first transposed eight lanes at a time into the frame,
// t[j*4+i] = acc[i*nr+j] (the 4x8 transpose of packA4AVX2), then each lane
// is one 4-float combine of t with its row of C.
TEXT ·writebackTAVX2(SB), NOSPLIT, $256-56
	MOVQ         acc+0(FP), SI
	MOVQ         c+8(FP), DI
	MOVQ         nr+16(FP), R9
	MOVQ         ldc+24(FP), R10
	MOVQ         nrr+32(FP), DX
	MOVQ         mode+40(FP), R11
	VBROADCASTSS alpha+48(FP), X14
	VBROADCASTSS beta+52(FP), X15
	SHLQ         $2, R9       // acc row stride, bytes
	SHLQ         $2, R10      // C row stride, bytes
	LEAQ         (R9)(R9*2), R12
	LEAQ         0(SP), BX    // t
	MOVQ         DX, CX       // lanes left to transpose

ttile:
	VMOVUPS (SI), Y0          // row 0, eight lanes
	VMOVUPS (SI)(R9*1), Y1
	VMOVUPS (SI)(R9*2), Y2
	VMOVUPS (SI)(R12*1), Y3

	VUNPCKLPS Y1, Y0, Y4
	VUNPCKHPS Y1, Y0, Y5
	VUNPCKLPS Y3, Y2, Y6
	VUNPCKHPS Y3, Y2, Y7

	VSHUFPS $0x44, Y6, Y4, Y0 // lane 0 | 4
	VSHUFPS $0xEE, Y6, Y4, Y1 // lane 1 | 5
	VSHUFPS $0x44, Y7, Y5, Y2 // lane 2 | 6
	VSHUFPS $0xEE, Y7, Y5, Y3 // lane 3 | 7

	VPERM2F128 $0x20, Y1, Y0, Y4 // lanes 0, 1
	VPERM2F128 $0x20, Y3, Y2, Y5 // lanes 2, 3
	VPERM2F128 $0x31, Y1, Y0, Y6 // lanes 4, 5
	VPERM2F128 $0x31, Y3, Y2, Y7 // lanes 6, 7

	VMOVUPS Y4, (BX)
	VMOVUPS Y5, 32(BX)
	VMOVUPS Y6, 64(BX)
	VMOVUPS Y7, 96(BX)
	ADDQ    $32, SI
	ADDQ    $128, BX
	SUBQ    $8, CX
	JGT     ttile

	LEAQ 0(SP), BX

tlane:
	VMOVUPS (BX), X0          // v: lane j's four rows
	CMPQ    R11, $1
	JEQ     tstore
	VMULPS  X14, X0, X0       // v*alpha
	CMPQ    R11, $2
	JEQ     tstore
	CMPQ    R11, $3
	JEQ     tgeneral
	VADDPS  (DI), X0, X0      // (alpha*v) + c
	JMP     tstore

tgeneral:
	VMOVUPS (DI), X1
	VMULPS  X15, X1, X1       // c*beta
	VADDPS  X0, X1, X0        // (beta*c) + (alpha*v)

tstore:
	VMOVUPS X0, (DI)
	ADDQ    $16, BX
	ADDQ    R10, DI
	DECQ    DX
	JNE     tlane
	VZEROUPPER
	RET
