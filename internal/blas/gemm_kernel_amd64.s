//go:build amd64

#include "textflag.h"

// func sgemmKernel4x16(ap, bp *float32, kc int, acc *[64]float32)
//
// Rank-kc update of a 4x16 micro-tile from packed panels:
//   ap: kc groups of 4 contiguous float32 (one column of the A panel)
//   bp: kc groups of 16 contiguous float32 (one row of the B panel)
// Accumulators: Y0..Y7 = rows 0..3, two 8-lane halves per row.
// Per step: 2 B loads + 4 A broadcasts + 8 FMAs = 64 flops.
TEXT ·sgemmKernel4x16(SB), NOSPLIT, $0-32
	MOVQ ap+0(FP), DI
	MOVQ bp+8(FP), SI
	MOVQ kc+16(FP), DX
	MOVQ acc+24(FP), R8

	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	VXORPS Y2, Y2, Y2
	VXORPS Y3, Y3, Y3
	VXORPS Y4, Y4, Y4
	VXORPS Y5, Y5, Y5
	VXORPS Y6, Y6, Y6
	VXORPS Y7, Y7, Y7

loop:
	VMOVUPS (SI), Y8             // b[0:8]
	VMOVUPS 32(SI), Y9           // b[8:16]

	VBROADCASTSS (DI), Y10       // a0
	VFMADD231PS  Y8, Y10, Y0
	VFMADD231PS  Y9, Y10, Y1

	VBROADCASTSS 4(DI), Y11      // a1
	VFMADD231PS  Y8, Y11, Y2
	VFMADD231PS  Y9, Y11, Y3

	VBROADCASTSS 8(DI), Y12      // a2
	VFMADD231PS  Y8, Y12, Y4
	VFMADD231PS  Y9, Y12, Y5

	VBROADCASTSS 12(DI), Y13     // a3
	VFMADD231PS  Y8, Y13, Y6
	VFMADD231PS  Y9, Y13, Y7

	ADDQ $16, DI
	ADDQ $64, SI
	DECQ DX
	JNE  loop

	VMOVUPS Y0, (R8)
	VMOVUPS Y1, 32(R8)
	VMOVUPS Y2, 64(R8)
	VMOVUPS Y3, 96(R8)
	VMOVUPS Y4, 128(R8)
	VMOVUPS Y5, 160(R8)
	VMOVUPS Y6, 192(R8)
	VMOVUPS Y7, 224(R8)
	VZEROUPPER
	RET

// func sgemmGather4x16(ap, b0, b1 *float32, off *int32, kc int, acc *[64]float32)
//
// sgemmKernel4x16 with the B panel read in place instead of packed: step l
// takes lanes 0..7 from b0[off[l]:] and lanes 8..15 from b1[off[l]:] (off
// counts float32s). Same registers, same FMA order, so a lane holds bit for
// bit what the packed kernel computes from a panel holding the same values.
// Per step: 1 offset load + 2 B loads + 4 A broadcasts + 8 FMAs.
TEXT ·sgemmGather4x16(SB), NOSPLIT, $0-48
	MOVQ ap+0(FP), DI
	MOVQ b0+8(FP), SI
	MOVQ b1+16(FP), BX
	MOVQ off+24(FP), R9
	MOVQ kc+32(FP), DX
	MOVQ acc+40(FP), R8

	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	VXORPS Y2, Y2, Y2
	VXORPS Y3, Y3, Y3
	VXORPS Y4, Y4, Y4
	VXORPS Y5, Y5, Y5
	VXORPS Y6, Y6, Y6
	VXORPS Y7, Y7, Y7

gloop:
	MOVLQSX (R9), R10
	VMOVUPS (SI)(R10*4), Y8      // b0[off[l] : off[l]+8]
	VMOVUPS (BX)(R10*4), Y9      // b1[off[l] : off[l]+8]

	VBROADCASTSS (DI), Y10       // a0
	VFMADD231PS  Y8, Y10, Y0
	VFMADD231PS  Y9, Y10, Y1

	VBROADCASTSS 4(DI), Y11      // a1
	VFMADD231PS  Y8, Y11, Y2
	VFMADD231PS  Y9, Y11, Y3

	VBROADCASTSS 8(DI), Y12      // a2
	VFMADD231PS  Y8, Y12, Y4
	VFMADD231PS  Y9, Y12, Y5

	VBROADCASTSS 12(DI), Y13     // a3
	VFMADD231PS  Y8, Y13, Y6
	VFMADD231PS  Y9, Y13, Y7

	ADDQ $16, DI
	ADDQ $4, R9
	DECQ DX
	JNE  gloop

	VMOVUPS Y0, (R8)
	VMOVUPS Y1, 32(R8)
	VMOVUPS Y2, 64(R8)
	VMOVUPS Y3, 96(R8)
	VMOVUPS Y4, 128(R8)
	VMOVUPS Y5, 160(R8)
	VMOVUPS Y6, 192(R8)
	VMOVUPS Y7, 224(R8)
	VZEROUPPER
	RET

// func sgemmGatherSum4x16(ap, b0, b1 *float32, off *int32, kc int, shifts *int32, npos int, acc *[64]float32)
//
// sgemmGather4x16 once per kernel position, summed: for each shifts[q]
// (q < npos, in order) it zeroes Y0..Y7, runs the kc-step chain of the
// next A panel (ap walks on from one position's panel into the next's)
// against lanes 0..7 from b0[shifts[q]+off[l]:] and lanes 8..15 from
// b1[shifts[q]+off[l]:], and adds the tile into the sum held in acc,
// which starts at +0: sum = sum + tile, the sum the first operand. Eight
// accumulators and eight sums do not fit beside the B and broadcast
// registers, so the sum lives in the (L1) acc tile: 8 loads, adds and
// stores per position against 8 FMAs per step.
// Per step: 1 offset load + 2 B loads + 4 A broadcasts + 8 FMAs.
TEXT ·sgemmGatherSum4x16(SB), NOSPLIT, $0-64
	MOVQ ap+0(FP), DI
	MOVQ b0+8(FP), SI
	MOVQ b1+16(FP), BX
	MOVQ off+24(FP), R9
	MOVQ kc+32(FP), DX
	MOVQ shifts+40(FP), R11
	MOVQ npos+48(FP), R12
	MOVQ acc+56(FP), R8
	SHLQ $2, DX                  // kc in bytes of off

	VXORPS  Y8, Y8, Y8
	VMOVUPS Y8, (R8)
	VMOVUPS Y8, 32(R8)
	VMOVUPS Y8, 64(R8)
	VMOVUPS Y8, 96(R8)
	VMOVUPS Y8, 128(R8)
	VMOVUPS Y8, 160(R8)
	VMOVUPS Y8, 192(R8)
	VMOVUPS Y8, 224(R8)

spos:
	MOVLQSX (R11), R10
	LEAQ    (SI)(R10*4), AX      // b0 + shift
	LEAQ    (BX)(R10*4), R13     // b1 + shift
	XORQ    CX, CX

	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	VXORPS Y2, Y2, Y2
	VXORPS Y3, Y3, Y3
	VXORPS Y4, Y4, Y4
	VXORPS Y5, Y5, Y5
	VXORPS Y6, Y6, Y6
	VXORPS Y7, Y7, Y7

sstep:
	MOVLQSX (R9)(CX*1), R10
	VMOVUPS (AX)(R10*4), Y8      // b0[shift+off[l] : +8]
	VMOVUPS (R13)(R10*4), Y9     // b1[shift+off[l] : +8]

	VBROADCASTSS (DI), Y10       // a0
	VFMADD231PS  Y8, Y10, Y0
	VFMADD231PS  Y9, Y10, Y1

	VBROADCASTSS 4(DI), Y11      // a1
	VFMADD231PS  Y8, Y11, Y2
	VFMADD231PS  Y9, Y11, Y3

	VBROADCASTSS 8(DI), Y12      // a2
	VFMADD231PS  Y8, Y12, Y4
	VFMADD231PS  Y9, Y12, Y5

	VBROADCASTSS 12(DI), Y13     // a3
	VFMADD231PS  Y8, Y13, Y6
	VFMADD231PS  Y9, Y13, Y7

	ADDQ $16, DI
	ADDQ $4, CX
	CMPQ CX, DX
	JNE  sstep

	// sum = sum + tile (Intel operand order: vaddps sum, sum, tile)
	VMOVUPS (R8), Y8
	VMOVUPS 32(R8), Y9
	VMOVUPS 64(R8), Y10
	VMOVUPS 96(R8), Y11
	VADDPS  Y0, Y8, Y8
	VADDPS  Y1, Y9, Y9
	VADDPS  Y2, Y10, Y10
	VADDPS  Y3, Y11, Y11
	VMOVUPS Y8, (R8)
	VMOVUPS Y9, 32(R8)
	VMOVUPS Y10, 64(R8)
	VMOVUPS Y11, 96(R8)
	VMOVUPS 128(R8), Y12
	VMOVUPS 160(R8), Y13
	VMOVUPS 192(R8), Y14
	VMOVUPS 224(R8), Y15
	VADDPS  Y4, Y12, Y12
	VADDPS  Y5, Y13, Y13
	VADDPS  Y6, Y14, Y14
	VADDPS  Y7, Y15, Y15
	VMOVUPS Y12, 128(R8)
	VMOVUPS Y13, 160(R8)
	VMOVUPS Y14, 192(R8)
	VMOVUPS Y15, 224(R8)

	ADDQ $4, R11
	DECQ R12
	JNE  spos

	VZEROUPPER
	RET

// func sgemmGatherA4x16(a0, a1, a2, a3 *float32, steps *int32, bp *float32, kc int, acc *[64]float32)
//
// sgemmKernel4x16 with the A panel read in place instead of packed: step
// l broadcasts row i's element from a_i[steps[l]] (steps counts float32s)
// and takes the B row from the packed panel. Same registers, same FMA
// order; the broadcast operand is now the one the packed kernel loads as a
// row, and a product is the same float in either order.
// Per step: 1 step load + 2 B loads + 4 A broadcasts + 8 FMAs.
TEXT ·sgemmGatherA4x16(SB), NOSPLIT, $0-64
	MOVQ a0+0(FP), SI
	MOVQ a1+8(FP), BX
	MOVQ a2+16(FP), R11
	MOVQ a3+24(FP), R12
	MOVQ steps+32(FP), R9
	MOVQ bp+40(FP), DI
	MOVQ kc+48(FP), DX
	MOVQ acc+56(FP), R8

	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	VXORPS Y2, Y2, Y2
	VXORPS Y3, Y3, Y3
	VXORPS Y4, Y4, Y4
	VXORPS Y5, Y5, Y5
	VXORPS Y6, Y6, Y6
	VXORPS Y7, Y7, Y7

galoop:
	MOVLQSX (R9), R10
	VMOVUPS (DI), Y8             // b[0:8]
	VMOVUPS 32(DI), Y9           // b[8:16]

	VBROADCASTSS (SI)(R10*4), Y10  // a0[steps[l]]
	VFMADD231PS  Y8, Y10, Y0
	VFMADD231PS  Y9, Y10, Y1

	VBROADCASTSS (BX)(R10*4), Y11  // a1[steps[l]]
	VFMADD231PS  Y8, Y11, Y2
	VFMADD231PS  Y9, Y11, Y3

	VBROADCASTSS (R11)(R10*4), Y12 // a2[steps[l]]
	VFMADD231PS  Y8, Y12, Y4
	VFMADD231PS  Y9, Y12, Y5

	VBROADCASTSS (R12)(R10*4), Y13 // a3[steps[l]]
	VFMADD231PS  Y8, Y13, Y6
	VFMADD231PS  Y9, Y13, Y7

	ADDQ $64, DI
	ADDQ $4, R9
	DECQ DX
	JNE  galoop

	VMOVUPS Y0, (R8)
	VMOVUPS Y1, 32(R8)
	VMOVUPS Y2, 64(R8)
	VMOVUPS Y3, 96(R8)
	VMOVUPS Y4, 128(R8)
	VMOVUPS Y5, 160(R8)
	VMOVUPS Y6, 192(R8)
	VMOVUPS Y7, 224(R8)
	VZEROUPPER
	RET

DATA lanes07<>+0(SB)/4, $0
DATA lanes07<>+4(SB)/4, $1
DATA lanes07<>+8(SB)/4, $2
DATA lanes07<>+12(SB)/4, $3
DATA lanes07<>+16(SB)/4, $4
DATA lanes07<>+20(SB)/4, $5
DATA lanes07<>+24(SB)/4, $6
DATA lanes07<>+28(SB)/4, $7
GLOBL lanes07<>(SB), RODATA|NOPTR, $32

// func maxPool8AVX2(src *float32, base, w, rows, kw, sw int, out *float32, idx *int32)
//
// Eight adjacent max-pooling windows, one per lane: lane i's window is rows
// x kw elements with its corner at src[i*sw], row stride w; base is the
// plane index of src[0]. sw is 1 or 2. Elements are folded in row-major
// order: form the vector of the eight windows' element (r, j) — one load
// at stride 1; at stride 2 the even floats of p[0:8] and the odd ones of
// p[7:15], so that nothing past the last window's element is read —
// compare it > the running best (ordered, so a NaN is never greater) and
// blend value and plane index where it is. No VGATHERDPS: under the
// gather-data-sampling microcode it costs more than the scalar scan. out
// gets the maxima, idx their plane indices (-Inf and -1 where nothing beat
// -Inf). rows, kw > 0.
TEXT ·maxPool8AVX2(SB), NOSPLIT, $0-64
	MOVQ src+0(FP), SI
	MOVQ base+8(FP), AX
	MOVQ w+16(FP), BX
	MOVQ rows+24(FP), CX
	MOVQ kw+32(FP), DX
	MOVQ sw+40(FP), R8
	MOVQ out+48(FP), R9
	MOVQ idx+56(FP), R10

	VMOVDQU      lanes07<>(SB), Y2
	VMOVQ        R8, X3
	VPBROADCASTD X3, Y3
	VPMULLD      Y3, Y2, Y2      // lane * sw
	VMOVQ        AX, X3
	VPBROADCASTD X3, Y4
	VPADDD       Y2, Y4, Y4      // Y4 = plane index of each window's row start
	VMOVQ        BX, X3
	VPBROADCASTD X3, Y8          // Y8 = w
	VPCMPEQD     Y9, Y9, Y9
	VMOVDQA      Y9, Y1          // Y1 = best index = -1
	VPSRLD       $31, Y9, Y9     // Y9 = 1
	MOVL         $0xff800000, R11
	VMOVQ        R11, X3
	VPBROADCASTD X3, Y0          // Y0 = best = -Inf
	SHLQ         $2, BX          // row stride in bytes

prow:
	MOVQ    SI, DI
	VMOVDQA Y4, Y5               // Y5 = plane index of element (r, 0)
	MOVQ    DX, R12

pcol:
	VMOVUPS (DI), Y6
	CMPQ    R8, $1
	JEQ     pfold
	VMOVUPS 28(DI), Y7
	VSHUFPS $0xD8, Y7, Y6, Y6    // p0 p2 p8 p10 | p4 p6 p12 p14
	VPERMPD $0xD8, Y6, Y6        // p0 p2 p4 ... p14

pfold:
	VCMPPS    $0x1E, Y0, Y6, Y7  // element > best, false on NaN
	VBLENDVPS Y7, Y6, Y0, Y0
	VBLENDVPS Y7, Y5, Y1, Y1
	VPADDD    Y9, Y5, Y5
	ADDQ      $4, DI
	DECQ      R12
	JNE       pcol

	VPADDD Y8, Y4, Y4
	ADDQ   BX, SI
	DECQ   CX
	JNE    prow

	VMOVUPS Y0, (R9)
	VMOVDQU Y1, (R10)
	VZEROUPPER
	RET

// func addRunsAVX2(dst, src *float32, runs, n, ds, ss int)
//
// dst[k*ds+i] += src[k*ss+i] for k < runs, i < n: eight floats a step, the
// last n%8 one at a time. runs, n > 0.
TEXT ·addRunsAVX2(SB), NOSPLIT, $0-48
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ runs+16(FP), CX
	MOVQ n+24(FP), DX
	MOVQ ds+32(FP), R8
	MOVQ ss+40(FP), R9
	SHLQ $2, R8
	SHLQ $2, R9

arun:
	MOVQ DI, R10
	MOVQ SI, R11
	MOVQ DX, R12
	CMPQ R12, $8
	JLT  atail

avec:
	VMOVUPS (R10), Y0
	VADDPS  (R11), Y0, Y0
	VMOVUPS Y0, (R10)
	ADDQ    $32, R10
	ADDQ    $32, R11
	SUBQ    $8, R12
	CMPQ    R12, $8
	JGE     avec

atail:
	TESTQ R12, R12
	JEQ   anext

aone:
	VMOVSS (R10), X0
	VADDSS (R11), X0, X0
	VMOVSS X0, (R10)
	ADDQ   $4, R10
	ADDQ   $4, R11
	DECQ   R12
	JNE    aone

anext:
	ADDQ R8, DI
	ADDQ R9, SI
	DECQ CX
	JNE  arun
	VZEROUPPER
	RET

// func cpuidAsm(eaxIn, ecxIn uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuidAsm(SB), NOSPLIT, $0-24
	MOVL eaxIn+0(FP), AX
	MOVL ecxIn+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbvAsm() (eax, edx uint32)
TEXT ·xgetbvAsm(SB), NOSPLIT, $0-8
	XORL CX, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET
