// Package blas is a from-scratch, pure-Go implementation of the basic
// linear algebra subroutines that DNN layer transformations are built on
// (§2.1.2 of the paper: layers are f_i(x, W_i, b_i) = W_i*x + b_i applied
// piecewise over blob segments). It replaces the OpenBLAS dependency of the
// paper's Caffe configuration.
//
// # Kernel hierarchy
//
// Gemm is organised as three levels, the same structure OpenBLAS uses
// (see PERFORMANCE.md for block sizes and measurements):
//
//   - Gemm: one path. Every dense product runs the cache-blocked
//     kernel, whatever its shape. The only outer products (K = 1) the
//     nets issue, an inner product's weight gradient over a one-sample
//     band, accumulate into a C that either kernel reads and writes once,
//     and take as long on the blocked kernel as on the seed's i-k-j loop
//     (PERFORMANCE.md §1). GemmReference keeps that loop as the kernel
//     figures' baseline and the differential tests' oracle.
//   - macro-tiles: the blocked kernel walks C in gemmMC x gemmNC tiles,
//     packing gemmKC-deep panels of op(A) and op(B) into contiguous
//     scratch (GemmScratch) so the inner loops read two linear streams.
//   - micro-kernel: the active kernel set's microKernel computes a
//     gemmMR x nr tile of C in registers with a rank-gemmKC update from one
//     A panel and one B panel. There is one kernel set per ISA, each a
//     micro-kernel with its tile width, gather twins and data movement:
//     avx2 (sgemmKernel4x16, AVX2+FMA assembly) where the CPU has it,
//     portable (microKernelScalar4x4, Go) elsewhere, chosen once at init.
//
// The lowered convolution (conv.go: ConvForward, ConvBackwardWeights,
// ConvBackwardData) is a second driver over the same macro-tile loop that
// never forms the im2col matrix. The matrix is separable over the sample's
// zero-bordered image — col[k, n] = P[off(k) + pix(n)] — so the forward
// product reads it in place as its B operand through gatherKernel (a
// base per lane group and an offset per rank-1 step instead of a packed
// panel), and the weight gradient, computed transposed as dWᵀ = col ·
// dTopᵀ with lanes over output channels, reads it in place as its A
// operand through gatherAKernel (four row bases and a pixel offset per
// step) and writes each tile back transposed into dW: one bordered copy
// per sample, no panel pack of col. A forward lane group's spare lanes
// read whatever follows in the image and are dropped in the writeback;
// lanes never mix, so they are harmless. The input gradient, at stride 1,
// reads dTop in place too: bordered by the kernel reach minus the pad, it
// is a gathered B operand read once per kernel position at a fixed shift,
// and gatherSumKernel runs each position's K = O chain (the dcol element)
// into zeroed accumulators and adds it into a tile sum that starts at +0,
// in the (kh, kw) order Col2im adds dcol's rows in, so no column matrix is
// formed (cuDNN's implicit-GEMM backward-data, with Col2im's bits).
// ConvDataGathers sends it there where that pays; elsewhere it produces
// dcol = Wᵀ·dTop gemmMC rows at a time and scatters each strip while it
// is cache-resident. What is still packed: the weights (once per band,
// GemmScratch.PackA and PackBackwardData), dTop (dW's B, and dX's B in
// strips) and the forward's B panels at StrideW != 1, which ConvGathers
// turns away. Every route is bit for bit Im2col, the blocked Gemm and
// Col2im.
//
// MaxPoolWindows and MaxPoolTable (pool.go) are the kernels here that are
// not linear algebra: max pooling's window scan, eight windows to a
// vector — in place along a row, or gathered through a window table —
// here because the CPUID dispatch and the assembly live here.
//
// Every kernel here is serial: the caller owns the threads, whichever of
// the paper's parallelism sources (§3.1) it schedules. A coarse-grain
// band issues whole products over its samples; the fine-grain engine's
// "BLAS level parallelism" (§3.1.1) is the caller cutting one logical
// product into row or column bands (the channel ranges of package
// layers).
//
// Every partition of one logical Gemm — serial, any band of rows (M) or
// of columns (N) — produces bit-identical C; see the determinism contract
// in gemm_blocked.go. The "bit-identical to sequential for any worker
// count" guarantees of the coarse and fine engines rest on this.
//
// All matrices are row-major, mirroring the C-contiguous blob layout.
package blas

import (
	"fmt"
)

// Transpose selects op(X) for Gemm and GemmScratch.PackA.
type Transpose bool

const (
	// NoTrans uses the matrix as stored.
	NoTrans Transpose = false
	// Trans uses the transpose of the stored matrix.
	Trans Transpose = true
)

// Gemm computes C = alpha*op(A)*op(B) + beta*C for row-major matrices.
// op(A) is M x K, op(B) is K x N, C is M x N. lda/ldb/ldc are the leading
// (row) strides of the *stored* matrices.
//
// Every product runs the cache-blocked packed kernel (gemm_blocked.go)
// with packing buffers borrowed from the package free list (GetScratch)
// for the call, so a warm Gemm allocates nothing.
func Gemm(transA, transB Transpose, m, n, k int, alpha float32, a []float32, lda int, b []float32, ldb int, beta float32, c []float32, ldc int) {
	checkGemm(transA, transB, m, n, k, a, lda, b, ldb, c, ldc)
	gemmDense(nil, transA, transB, n, k, alpha, a, lda, b, ldb, beta, c, ldc, 0, m)
}

// gemmDense runs rows [rowLo, rowHi) of a dense product on the blocked
// kernel: Gemm's band driver. Distinct bands write disjoint rows of C and
// the band split never changes the bits (see gemm_blocked.go). A nil
// scratch borrows one from the package free list.
func gemmDense(s *GemmScratch, transA, transB Transpose, n, k int, alpha float32, a []float32, lda int, b []float32, ldb int, beta float32, c []float32, ldc int, rowLo, rowHi int) {
	if s == nil {
		s = GetScratch()
		defer PutScratch(s)
	}
	gemmBlocked(s, &gemmOp{transA: transA, transB: transB, n: n, k: k, alpha: alpha, beta: beta,
		a: a, lda: lda, b: b, ldb: ldb, c: c, ldc: ldc}, rowLo, rowHi)
}

// GemmReference runs the seed's i-k-j kernel with a row accumulator: B
// accesses stay sequential and the axpyTo inner loop unrolls. It is the
// baseline the blocked kernel is measured against (internal/bench and
// PERFORMANCE.md) and the oracle it is differentially tested against;
// use Gemm everywhere else.
func GemmReference(transA, transB Transpose, m, n, k int, alpha float32, a []float32, lda int, b []float32, ldb int, beta float32, c []float32, ldc int) {
	checkGemm(transA, transB, m, n, k, a, lda, b, ldb, c, ldc)
	for i := 0; i < m; i++ {
		ci := c[i*ldc : i*ldc+n]
		if beta == 0 {
			for j := range ci {
				ci[j] = 0
			}
		} else if beta != 1 {
			for j := range ci {
				ci[j] *= beta
			}
		}
		if alpha == 0 {
			continue
		}
		for l := 0; l < k; l++ {
			var av float32
			if transA == NoTrans {
				av = a[i*lda+l]
			} else {
				av = a[l*lda+i]
			}
			if av == 0 {
				continue
			}
			av *= alpha
			if transB == NoTrans {
				bl := b[l*ldb : l*ldb+n]
				axpyTo(ci, bl, av)
			} else {
				// op(B)[l, j] = B[j, l]
				for j := 0; j < n; j++ {
					ci[j] += av * b[j*ldb+l]
				}
			}
		}
	}
}

// axpyTo computes dst += alpha*src elementwise; split out so the compiler
// can bounds-check-eliminate and unroll the innermost gemm loop.
func axpyTo(dst, src []float32, alpha float32) {
	n := len(dst)
	if len(src) < n {
		n = len(src)
	}
	var i int
	for ; i+3 < n; i += 4 {
		dst[i] += alpha * src[i]
		dst[i+1] += alpha * src[i+1]
		dst[i+2] += alpha * src[i+2]
		dst[i+3] += alpha * src[i+3]
	}
	for ; i < n; i++ {
		dst[i] += alpha * src[i]
	}
}

// checkGemm validates dimensions, leading strides, and backing-slice
// lengths; each panic names the operand that failed and the constraint it
// violated, so a crash in a deep layer stack points at the bad argument
// instead of a raw slice length.
func checkGemm(transA, transB Transpose, m, n, k int, a []float32, lda int, b []float32, ldb int, c []float32, ldc int) {
	if m < 0 || n < 0 || k < 0 {
		panic(fmt.Sprintf("blas: negative gemm dims m=%d n=%d k=%d", m, n, k))
	}
	// Minimal extents of the stored (pre-op) matrices.
	arows, acols := m, k
	if transA == Trans {
		arows, acols = k, m
	}
	brows, bcols := k, n
	if transB == Trans {
		brows, bcols = n, k
	}
	if lda < acols {
		panic(fmt.Sprintf("blas: gemm A: lda=%d < stored cols %d (stored A is %dx%d, transA=%v)", lda, acols, arows, acols, transA == Trans))
	}
	if ldb < bcols {
		panic(fmt.Sprintf("blas: gemm B: ldb=%d < stored cols %d (stored B is %dx%d, transB=%v)", ldb, bcols, brows, bcols, transB == Trans))
	}
	if ldc < n {
		panic(fmt.Sprintf("blas: gemm C: ldc=%d < n=%d", ldc, n))
	}
	if need := (arows-1)*lda + acols; arows > 0 && len(a) < need {
		panic(fmt.Sprintf("blas: gemm A too short: len=%d, need >= %d ((rows-1)*lda+cols = %d*%d+%d)", len(a), need, arows-1, lda, acols))
	}
	if need := (brows-1)*ldb + bcols; brows > 0 && len(b) < need {
		panic(fmt.Sprintf("blas: gemm B too short: len=%d, need >= %d ((rows-1)*ldb+cols = %d*%d+%d)", len(b), need, brows-1, ldb, bcols))
	}
	if need := (m-1)*ldc + n; m > 0 && len(c) < need {
		panic(fmt.Sprintf("blas: gemm C too short: len=%d, need >= %d ((m-1)*ldc+n = %d*%d+%d)", len(c), need, m-1, ldc, n))
	}
}

// Axpy computes y += alpha*x over min(len(x), len(y)) elements.
func Axpy(alpha float32, x, y []float32) { axpyTo(y, x, alpha) }

// AddScalar adds v to every element of x.
func AddScalar(x []float32, v float32) {
	for i := range x {
		x[i] += v
	}
}
