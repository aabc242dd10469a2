//go:build amd64

package blas

// AVX2+FMA micro-kernel selection. The 4x16 assembly kernel
// (gemm_kernel_amd64.s) keeps eight 8-lane YMM accumulators and issues
// two fused multiply-adds per broadcast A element — 64 flops per packed
// step against the scalar kernel's 32 flops per 24 scalar ops. Selection
// happens exactly once, at init, so every Gemm in the process (and every
// band of every Gemm) uses the same kernel; see the determinism contract
// in gemm_blocked.go.
func init() {
	if hasAVX2FMA() {
		gemmNR, gemmGW = 16, 8
		gemmMicroKernel = microKernelAVX4x16
		gemmGatherKernel = gatherKernelAVX4x16
		maxPool8 = maxPool8AVX2
		addRuns = addRunsVec
	}
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

// sgemmKernel4x16 (assembly) accumulates a 4x16 micro-tile:
// acc[i*16+j] = sum over l of ap[l*4+i] * bp[l*16+j], for kc > 0.
//
//go:noescape
func sgemmKernel4x16(ap, bp *float32, kc int, acc *[gemmMR * gemmNRMax]float32)

func microKernelAVX4x16(ap, bp []float32, kc int, acc *[gemmMR * gemmNRMax]float32) {
	sgemmKernel4x16(&ap[0], &bp[0], kc, acc)
}

// sgemmGather4x16 (assembly) is sgemmKernel4x16 reading its B rows in
// place: acc[i*16+j] = sum over l of ap[l*4+i] * b[off[l]+j%8], b = b0 for
// the lanes j < 8 and b1 for the rest. The caller vouches that every
// off[l]+8 is inside both.
//
//go:noescape
func sgemmGather4x16(ap, b0, b1 *float32, off *int32, kc int, acc *[gemmMR * gemmNRMax]float32)

func gatherKernelAVX4x16(ap, p []float32, b0, b1 int, off []int32, acc *[gemmMR * gemmNRMax]float32) {
	sgemmGather4x16(&ap[0], &p[b0], &p[b1], &off[0], len(off), acc)
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
