//go:build amd64

#include "textflag.h"

// The avx512 set's two kernels: the avx2 gather-A and gather-sum kernels
// (gemm_kernel_amd64.s) on 8x16 tiles, one 16-lane ZMM accumulator per
// tile row — eight independent FMA chains, two row-quads per call. Each
// lane's chain is the avx2 kernel's: the same steps in the same order from
// zero, each FMA with the accumulator as destination, the broadcast A
// element as second source and the B row as third. AVX-512F instructions
// only.

// func sgemmGatherA8x16(a0, a1, a2, a3, a4, a5, a6, a7 *float32, steps *int32, bp *float32, kc int, acc *[128]float32)
//
// sgemmGatherA4x16 on eight rows: step l broadcasts row i's element from
// a_i[steps[l]] and takes the 16-lane B row from the packed panel. Row i
// accumulates in Zi and goes to acc[i*16:].
// Per step: 1 step load + 1 B load + 8 A broadcasts + 8 FMAs.
TEXT ·sgemmGatherA8x16(SB), NOSPLIT, $0-96
	MOVQ a0+0(FP), SI
	MOVQ a1+8(FP), BX
	MOVQ a2+16(FP), R11
	MOVQ a3+24(FP), R12
	MOVQ a4+32(FP), R13
	MOVQ a5+40(FP), AX
	MOVQ a6+48(FP), CX
	MOVQ a7+56(FP), R8
	MOVQ steps+64(FP), R9
	MOVQ bp+72(FP), DI
	MOVQ kc+80(FP), DX

	VPXORD Z0, Z0, Z0
	VPXORD Z1, Z1, Z1
	VPXORD Z2, Z2, Z2
	VPXORD Z3, Z3, Z3
	VPXORD Z4, Z4, Z4
	VPXORD Z5, Z5, Z5
	VPXORD Z6, Z6, Z6
	VPXORD Z7, Z7, Z7

zaloop:
	MOVLQSX (R9), R10
	VMOVUPS (DI), Z16              // b[0:16]

	VBROADCASTSS (SI)(R10*4), Z17  // a0[steps[l]]
	VFMADD231PS  Z16, Z17, Z0
	VBROADCASTSS (BX)(R10*4), Z18  // a1[steps[l]]
	VFMADD231PS  Z16, Z18, Z1
	VBROADCASTSS (R11)(R10*4), Z19 // a2[steps[l]]
	VFMADD231PS  Z16, Z19, Z2
	VBROADCASTSS (R12)(R10*4), Z20 // a3[steps[l]]
	VFMADD231PS  Z16, Z20, Z3
	VBROADCASTSS (R13)(R10*4), Z21 // a4[steps[l]]
	VFMADD231PS  Z16, Z21, Z4
	VBROADCASTSS (AX)(R10*4), Z22  // a5[steps[l]]
	VFMADD231PS  Z16, Z22, Z5
	VBROADCASTSS (CX)(R10*4), Z23  // a6[steps[l]]
	VFMADD231PS  Z16, Z23, Z6
	VBROADCASTSS (R8)(R10*4), Z24  // a7[steps[l]]
	VFMADD231PS  Z16, Z24, Z7

	ADDQ $64, DI
	ADDQ $4, R9
	DECQ DX
	JNE  zaloop

	MOVQ    acc+88(FP), R8
	VMOVUPS Z0, (R8)
	VMOVUPS Z1, 64(R8)
	VMOVUPS Z2, 128(R8)
	VMOVUPS Z3, 192(R8)
	VMOVUPS Z4, 256(R8)
	VMOVUPS Z5, 320(R8)
	VMOVUPS Z6, 384(R8)
	VMOVUPS Z7, 448(R8)
	VZEROUPPER
	RET

// func sgemmGatherSum8x16(ap, b0, b1 *float32, off *int32, kc int, shifts *int32, npos int, acc *[128]float32)
//
// sgemmGatherSum4x16 on two row-quads: the second quad's panels start one
// quad's panels (4*kc*npos floats) past the first's, position for position.
// For each shifts[q] it zeroes Z0..Z7, runs the kc-step chain against a
// B row whose lanes 0..7 are b0[shifts[q]+off[l]:] and lanes 8..15
// b1[shifts[q]+off[l]:] (two 8-float loads: nothing past a lane group is
// read), and adds the tile into the sum, Z8..Z15 from +0: sum = sum +
// tile, the sum the first operand. With 32 vector registers the sum stays
// in registers; acc receives it once, rows 16 floats apart.
// Per step: 1 offset load + 2 half-row loads + 8 A broadcasts + 8 FMAs.
TEXT ·sgemmGatherSum8x16(SB), NOSPLIT, $0-64
	MOVQ ap+0(FP), DI
	MOVQ b0+8(FP), SI
	MOVQ b1+16(FP), BX
	MOVQ off+24(FP), R9
	MOVQ kc+32(FP), DX
	MOVQ shifts+40(FP), R11
	MOVQ npos+48(FP), R12
	SHLQ $2, DX                  // kc in bytes of off
	MOVQ DX, R8
	IMULQ R12, R8
	SHLQ $2, R8                  // R8 = one quad's panels in bytes: 16*kc*npos

	VPXORD Z8, Z8, Z8
	VPXORD Z9, Z9, Z9
	VPXORD Z10, Z10, Z10
	VPXORD Z11, Z11, Z11
	VPXORD Z12, Z12, Z12
	VPXORD Z13, Z13, Z13
	VPXORD Z14, Z14, Z14
	VPXORD Z15, Z15, Z15

zspos:
	MOVLQSX (R11), R10
	LEAQ    (SI)(R10*4), AX      // b0 + shift
	LEAQ    (BX)(R10*4), R13     // b1 + shift
	XORQ    CX, CX

	VPXORD Z0, Z0, Z0
	VPXORD Z1, Z1, Z1
	VPXORD Z2, Z2, Z2
	VPXORD Z3, Z3, Z3
	VPXORD Z4, Z4, Z4
	VPXORD Z5, Z5, Z5
	VPXORD Z6, Z6, Z6
	VPXORD Z7, Z7, Z7

zsstep:
	MOVLQSX         (R9)(CX*1), R10
	VBROADCASTF64X4 (AX)(R10*4), Z16            // lanes 0..7: b0[shift+off[l] : +8]
	VINSERTF64X4    $1, (R13)(R10*4), Z16, Z16  // lanes 8..15: b1[shift+off[l] : +8]

	VBROADCASTSS (DI), Z17       // quad 0: a0
	VFMADD231PS  Z16, Z17, Z0
	VBROADCASTSS 4(DI), Z18      // a1
	VFMADD231PS  Z16, Z18, Z1
	VBROADCASTSS 8(DI), Z19      // a2
	VFMADD231PS  Z16, Z19, Z2
	VBROADCASTSS 12(DI), Z20     // a3
	VFMADD231PS  Z16, Z20, Z3
	VBROADCASTSS (DI)(R8*1), Z21   // quad 1: a4
	VFMADD231PS  Z16, Z21, Z4
	VBROADCASTSS 4(DI)(R8*1), Z22  // a5
	VFMADD231PS  Z16, Z22, Z5
	VBROADCASTSS 8(DI)(R8*1), Z23  // a6
	VFMADD231PS  Z16, Z23, Z6
	VBROADCASTSS 12(DI)(R8*1), Z24 // a7
	VFMADD231PS  Z16, Z24, Z7

	ADDQ $16, DI
	ADDQ $4, CX
	CMPQ CX, DX
	JNE  zsstep

	// sum = sum + tile (Intel operand order: vaddps sum, sum, tile)
	VADDPS Z0, Z8, Z8
	VADDPS Z1, Z9, Z9
	VADDPS Z2, Z10, Z10
	VADDPS Z3, Z11, Z11
	VADDPS Z4, Z12, Z12
	VADDPS Z5, Z13, Z13
	VADDPS Z6, Z14, Z14
	VADDPS Z7, Z15, Z15

	ADDQ $4, R11
	DECQ R12
	JNE  zspos

	MOVQ    acc+56(FP), R8
	VMOVUPS Z8, (R8)
	VMOVUPS Z9, 64(R8)
	VMOVUPS Z10, 128(R8)
	VMOVUPS Z11, 192(R8)
	VMOVUPS Z12, 256(R8)
	VMOVUPS Z13, 320(R8)
	VMOVUPS Z14, 384(R8)
	VMOVUPS Z15, 448(R8)
	VZEROUPPER
	RET
