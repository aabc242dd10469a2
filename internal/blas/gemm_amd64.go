//go:build amd64

package blas

// avx2 is the AVX2+FMA kernel set. Its 4x16 assembly micro-kernel
// (gemm_kernel_amd64.s) keeps eight 8-lane YMM accumulators and issues two
// fused multiply-adds per broadcast A element — 64 flops per packed step
// against the portable kernel's 32 flops per 24 scalar ops — and so do its
// two gather twins, whose tile is two 8-lane groups. Its data movement
// (gemm_move_amd64.s) packs the full panels and writes back the full 8-
// and 16-lane tile rows and the 4-row tiles of a transposed C, each
// routine bit for bit the Go loop it stands in for.
var avx2 = kernels{
	name: "avx2", nr: 16, gw: 8, mb: gemmMR,
	microKernel: microKernelAVX4x16, gatherKernel: gatherKernelAVX4x16, gatherAKernel: gatherAKernelAVX4x16, gatherSumKernel: gatherSumKernelAVX4x16,
	packBDense: packBDense16Vec, packBTransposed: packBTransVec,
	packARows: packARows4Vec, packARuns: packARuns4Vec,
	writeback: writebackTileVec, writebackT: writebackTileTVec,
	maxPool8: maxPool8AVX2, addRuns: addRunsVec, normals: normalsAVX2,
}

// avx512 is avx2 with its two training-only kernels on 16-lane ZMM
// registers (gemm_avx512_amd64.s): the conv weight gradient's gather-A
// kernel and the gathered dX route's gather-sum kernel, each on 8x16
// tiles — two row quads per call, eight accumulator chains, on avx2's
// 16-lane dTopᵀ panels and 8-lane dX groups — so mb is 8. Each lane's
// chain is avx2's, FMA for FMA, so the set writes avx2's bits. Everything
// else is avx2's: nr, gw, the forward and GEMM micro-kernels, the packers,
// the writebacks and the loops outside the GEMM, so a forward pass runs
// the same code under either set.
var avx512 = func() kernels {
	ks := avx2
	ks.name, ks.mb = "avx512", gemmMBMax
	ks.gatherAKernel, ks.gatherSumKernel = gatherAKernelAVX8x16, gatherSumKernelAVX8x16
	return ks
}()

// hostSets lists the kernel sets this host runs, best last: portable, then
// avx2 where the CPU and the OS support AVX2+FMA, then avx512 where they
// support AVX-512F too.
func hostSets() []kernels {
	sets := []kernels{portable}
	if hasAVX2FMA() {
		sets = append(sets, avx2)
	}
	if hasAVX512F() {
		sets = append(sets, avx512)
	}
	return sets
}

// init makes the best set the host runs active. It runs once, before any
// product, so every Gemm in the process (and every band of every Gemm)
// uses the same kernels; see the determinism contract in gemm_blocked.go.
// The choice is the CPU's alone.
func init() {
	sets := hostSets()
	active = sets[len(sets)-1]
}

// cpuidAsm executes CPUID with the given EAX/ECX inputs.
func cpuidAsm(eaxIn, ecxIn uint32) (eax, ebx, ecx, edx uint32)

// xgetbvAsm reads extended control register 0 (XCR0).
func xgetbvAsm() (eax, edx uint32)

// hasAVX2FMA reports whether both the CPU and the OS support the AVX2+FMA
// kernel: FMA and OSXSAVE from CPUID.1:ECX, AVX2 from CPUID.7:EBX, and
// XMM+YMM state enabled in XCR0 (without the OS saving YMM state across
// context switches, executing VEX instructions faults).
func hasAVX2FMA() bool {
	maxID, _, _, _ := cpuidAsm(0, 0)
	if maxID < 7 {
		return false
	}
	_, _, ecx1, _ := cpuidAsm(1, 0)
	const fma = 1 << 12
	const osxsave = 1 << 27
	if ecx1&fma == 0 || ecx1&osxsave == 0 {
		return false
	}
	if xcr0, _ := xgetbvAsm(); xcr0&0x6 != 0x6 { // XMM and YMM state
		return false
	}
	_, ebx7, _, _ := cpuidAsm(7, 0)
	const avx2 = 1 << 5
	return ebx7&avx2 != 0
}

// hasAVX512F reports whether both the CPU and the OS support the avx512
// set: the avx2 set's AVX2+FMA, AVX-512F from CPUID.7:EBX, and the opmask,
// upper-ZMM and high-ZMM state enabled in XCR0 (bits 5-7) beside the XMM
// and YMM state (bits 1-2).
func hasAVX512F() bool {
	if !hasAVX2FMA() {
		return false
	}
	if xcr0, _ := xgetbvAsm(); xcr0&0xe6 != 0xe6 {
		return false
	}
	_, ebx7, _, _ := cpuidAsm(7, 0)
	const avx512f = 1 << 16
	return ebx7&avx512f != 0
}

// sgemmKernel4x16 (assembly) accumulates a 4x16 micro-tile:
// acc[i*16+j] = sum over l of ap[l*4+i] * bp[l*16+j], for kc > 0.
//
//go:noescape
func sgemmKernel4x16(ap, bp *float32, kc int, acc *[gemmMBMax * gemmNRMax]float32)

func microKernelAVX4x16(ap, bp []float32, kc int, acc *[gemmMBMax * gemmNRMax]float32) {
	sgemmKernel4x16(&ap[0], &bp[0], kc, acc)
}

// sgemmGather4x16 (assembly) is sgemmKernel4x16 reading its B rows in
// place: acc[i*16+j] = sum over l of ap[l*4+i] * b[off[l]+j%8], b = b0 for
// the lanes j < 8 and b1 for the rest. The caller vouches that every
// off[l]+8 is inside both.
//
//go:noescape
func sgemmGather4x16(ap, b0, b1 *float32, off *int32, kc int, acc *[gemmMBMax * gemmNRMax]float32)

func gatherKernelAVX4x16(ap, p []float32, b0, b1 int, off []int32, acc *[gemmMBMax * gemmNRMax]float32) {
	sgemmGather4x16(&ap[0], &p[b0], &p[b1], &off[0], len(off), acc)
}

// sgemmGatherSum4x16 (assembly) is sgemmGather4x16 once per kernel
// position, summed: acc = Σq (sum over l of ap[(q*kc+l)*4+i] *
// b[shifts[q]+off[l]+j%8]) for q < npos, each position's chain from zero,
// the sum from +0 and added in q order. The caller vouches that every
// shifts[q]+off[l]+8 is inside both B bases' buffer.
//
//go:noescape
func sgemmGatherSum4x16(ap, b0, b1 *float32, off *int32, kc int, shifts *int32, npos int, acc *[gemmMBMax * gemmNRMax]float32)

func gatherSumKernelAVX4x16(ap, p []float32, b0, b1 int, off, shifts []int32, acc *[gemmMBMax * gemmNRMax]float32) {
	_ = ap[gemmMR*len(off)*len(shifts)-1]
	sgemmGatherSum4x16(&ap[0], &p[b0], &p[b1], &off[0], len(off), &shifts[0], len(shifts), acc)
}

// sgemmGatherA4x16 (assembly) is sgemmKernel4x16 reading its A rows in
// place: acc[i*16+j] = sum over l of a_i[steps[l]] * bp[l*16+j], a_i = a0,
// a1, a2, a3. The caller vouches that every a_i[steps[l]] is inside the
// image.
//
//go:noescape
func sgemmGatherA4x16(a0, a1, a2, a3 *float32, steps *int32, bp *float32, kc int, acc *[gemmMBMax * gemmNRMax]float32)

func gatherAKernelAVX4x16(p []float32, rows [gemmMBMax]int32, steps []int32, bp []float32, acc *[gemmMBMax * gemmNRMax]float32) {
	_ = bp[16*len(steps)-1]
	sgemmGatherA4x16(&p[rows[0]], &p[rows[1]], &p[rows[2]], &p[rows[3]], &steps[0], &bp[0], len(steps), acc)
}

// sgemmGatherA8x16 (assembly) is sgemmGatherA4x16 on eight rows, a0-a7,
// in ZMM registers.
//
//go:noescape
func sgemmGatherA8x16(a0, a1, a2, a3, a4, a5, a6, a7 *float32, steps *int32, bp *float32, kc int, acc *[gemmMBMax * gemmNRMax]float32)

func gatherAKernelAVX8x16(p []float32, rows [gemmMBMax]int32, steps []int32, bp []float32, acc *[gemmMBMax * gemmNRMax]float32) {
	_ = bp[16*len(steps)-1]
	sgemmGatherA8x16(&p[rows[0]], &p[rows[1]], &p[rows[2]], &p[rows[3]], &p[rows[4]], &p[rows[5]], &p[rows[6]], &p[rows[7]],
		&steps[0], &bp[0], len(steps), acc)
}

// sgemmGatherSum8x16 (assembly) is sgemmGatherSum4x16 on two row quads in
// ZMM registers, the second quad's panels 4*kc*npos floats past the
// first's. The caller vouches for the B reads as for sgemmGatherSum4x16.
//
//go:noescape
func sgemmGatherSum8x16(ap, b0, b1 *float32, off *int32, kc int, shifts *int32, npos int, acc *[gemmMBMax * gemmNRMax]float32)

// gatherSumKernelAVX8x16 runs a tile of one quad — the last of a channel
// range that is not a multiple of eight — on avx2's kernel, which computes
// the same lanes.
func gatherSumKernelAVX8x16(ap, p []float32, b0, b1 int, off, shifts []int32, acc *[gemmMBMax * gemmNRMax]float32) {
	panels := gemmMR * len(off) * len(shifts)
	if len(ap) < 2*panels {
		gatherSumKernelAVX4x16(ap, p, b0, b1, off, shifts, acc)
		return
	}
	sgemmGatherSum8x16(&ap[0], &p[b0], &p[b1], &off[0], len(off), &shifts[0], len(shifts), acc)
}

// maxPool8AVX2 (assembly) is MaxPoolWindows for eight windows, one per
// lane; see pool.go.
//
//go:noescape
func maxPool8AVX2(src *float32, base, w, rows, kw, sw int, out *float32, idx *int32)

// addRunsAVX2 (assembly) is addRunsGo's loops on raw pointers.
//
//go:noescape
func addRunsAVX2(dst, src *float32, runs, n, ds, ss int)

// addRunsVec bounds-checks the last run once, then hands the assembly
// pointers.
func addRunsVec(dst, src []float32, runs, n, ds, ss int) {
	_, _ = dst[(runs-1)*ds+n-1], src[(runs-1)*ss+n-1]
	addRunsAVX2(&dst[0], &src[0], runs, n, ds, ss)
}

// The data movement of gemm_move_amd64.s. Each wrapper bounds-checks the
// last float its routine reads and writes, then hands it pointers.

//go:noescape
func packBN16AVX2(dst, src *float32, ldb, kc int)

//go:noescape
func packBTAVX2(dst, src *float32, ldb, kc8, cols int)

//go:noescape
func packA4AVX2(dst, src *float32, lda, kc8 int)

//go:noescape
func packAT4AVX2(dst, src *float32, lda, kc, panels int)

//go:noescape
func writebackAVX2(acc, c, bias *float32, nr, ldc, mrr, nrr, mode int, alpha, beta float32)

//go:noescape
func writebackTAVX2(acc, c *float32, nr, ldc, nrr, mode int, alpha, beta float32)

func packBDense16Vec(dst, b []float32, ldb, kc int) {
	_, _ = dst[16*kc-1], b[(kc-1)*ldb+15]
	packBN16AVX2(&dst[0], &b[0], ldb, kc)
}

func packBTransVec(dst, b []float32, ldb, kc8, cols int) {
	_, _ = dst[16*kc8-1], b[(cols-1)*ldb+kc8-1]
	packBTAVX2(&dst[0], &b[0], ldb, kc8, cols)
}

func packARows4Vec(dst, a []float32, lda, kc8 int) {
	_, _ = dst[4*kc8-1], a[3*lda+kc8-1]
	packA4AVX2(&dst[0], &a[0], lda, kc8)
}

func packARuns4Vec(dst, a []float32, lda, kc, panels int) {
	_, _ = dst[4*kc*panels-1], a[(kc-1)*lda+4*panels-1]
	packAT4AVX2(&dst[0], &a[0], lda, kc, panels)
}

func writebackTileVec(acc []float32, nr int, alpha, beta float32, firstK bool, bias, c []float32, ldc, mrr, nrr int) {
	_, _ = acc[(mrr-1)*nr+nrr-1], c[(mrr-1)*ldc+nrr-1]
	var bp *float32
	if bias != nil {
		_ = bias[mrr-1]
		bp = &bias[0]
	}
	writebackAVX2(&acc[0], &c[0], bp, nr, ldc, mrr, nrr, writebackMode(alpha, beta, firstK), alpha, beta)
}

func writebackTileTVec(acc []float32, nr int, alpha, beta float32, firstK bool, c []float32, ldc, nrr int) {
	_, _ = acc[(gemmMR-1)*nr+roundUp(nrr, 8)-1], c[(nrr-1)*ldc+gemmMR-1]
	writebackTAVX2(&acc[0], &c[0], nr, ldc, nrr, writebackMode(alpha, beta, firstK), alpha, beta)
}

// writebackMode numbers writebackTileGo's switch for the assembly.
func writebackMode(alpha, beta float32, firstK bool) int {
	switch {
	case !firstK:
		return 0
	case beta == 0 && alpha == 1:
		return 1
	case beta == 0:
		return 2
	}
	return 3
}

// boxMuller4AVX2 (assembly) writes groups*4 normals to dst, four per step:
// lane i starts at s_i, the stream 4i steps past the first state, takes its
// words from its state and the states 1-3 steps on (add2, add3 and inc the
// increments of those jumps), and jumps 16 steps (add16) per group. It stops
// before a group in which some u1 is 0 and returns lane 0's state at the
// first group it did not write, and how many it wrote.
//
//go:noescape
func boxMuller4AVX2(dst *float32, groups int, s0, s1, s2, s3, add2, add3, inc, add16 uint64) (state uint64, done int)

// normalsAVX2 is Normals on the assembly: the lanes' first states and the
// jumps' increments are worked out here, once per call, and a tail of fewer
// than four goes to normalsGo.
func normalsAVX2(state, inc uint64, dst []float32) (uint64, int) {
	written := 0
	if groups := len(dst) / 4; groups > 0 {
		_, add2 := pcgJump(inc, 2)
		_, add3 := pcgJump(inc, 3)
		mul4, add4 := pcgJump(inc, 4)
		_, add16 := pcgJump(inc, 16)
		s1 := mul4*state + add4
		s2 := mul4*s1 + add4
		var done int
		state, done = boxMuller4AVX2(&dst[0], groups, state, s1, s2, mul4*s2+add4, add2, add3, inc, add16)
		if written = 4 * done; done < groups {
			return state, written
		}
	}
	state, n := normalsGo(state, inc, dst[written:])
	return state, written + n
}
