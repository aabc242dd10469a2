package blas

import (
	"fmt"
	"sync"
)

// This file implements the cache-blocked, panel-packed Gemm kernel — the
// GotoBLAS/BLIS structure (Goto & van de Geijn, 2008) that OpenBLAS (the
// paper's Caffe BLAS) and every tuned DNN library build on:
//
//	for jc over N in steps of gemmNC:          // B column block
//	  for pc over K in steps of gemmKC:        // depth block (fixed! see below)
//	    pack op(B)[pc:pc+KC, jc:jc+NC] into nr-wide micro-panels (bp),
//	      from a dense matrix or straight from a convolution's image —
//	      or pack nothing: a B packed ahead, or one the gather kernel
//	      reads in place (then jc is a single block)
//	    for ic over the row band in steps of gemmMC:
//	      pack op(A)[ic:ic+MC, pc:pc+KC] into mr-tall micro-panels (ap),
//	        or take the panels PackA packed ahead for a run of products
//	      for jr over NC in steps of nr:       // bp micro-panel stays in L1
//	        for ir over MC in steps of gemmMR:
//	          micro-kernel: register-tiled rank-KC update of a C tile
//
// Packing turns the strided (and possibly transposed) operand reads into
// two contiguous streams, so the micro-kernel reads exactly mr+nr floats
// per rank-1 step instead of the reference kernel's ~3 memory ops per 2
// flops, and the same packed B panel is reused by every row micro-panel
// of the block.
//
// Two micro-kernels exist. microKernelScalar4x4 is the portable pure-Go
// one: a 4x4 register tile (16 float32 accumulators + 8 temporaries,
// sized for the 16 XMM registers of amd64). On amd64 with AVX2+FMA, init
// (gemm_amd64.go) swaps in the 4x16 assembly kernel sgemmKernel4x16 and
// widens nr to 16: 8 YMM accumulators updated by two fused
// multiply-adds per broadcast A element, ~8x the scalar flop rate. The
// kernel choice is made once per process, never per call.
//
// Determinism contract (load-bearing — the coarse engine depends on it):
// the value written to C[i,j] must depend only on (i, j, the operands,
// alpha, beta, and the process-fixed blocking parameters), NEVER on which
// row band [rowLo, rowHi) the call computes or how that band is split
// into micro-tiles. This holds because
//
//   - each C element is accumulated in its own register lane, over l in
//     strictly increasing order within each KC block, and the KC blocking
//     of the K loop is a package constant independent of the band;
//   - partial edge tiles run the exact same micro-kernel on zero-padded
//     packed panels (x + a*0 == x for finite a), and the writeback loop
//     is the same code for full and partial tiles;
//   - the blocked-vs-reference dispatch (GemmIsBlocked) looks only at k,
//     which every band of the same Gemm shares;
//   - where a packed panel comes from — a dense operand, the (C,H,W) image
//     of a lowered convolution (conv.go), or panels PackA left in the
//     scratch — changes how it is filled, never what it holds; and the
//     gather kernel, which reads a convolution's B rows out of the bordered
//     image instead of a panel, feeds each lane the values the panel would
//     have held, in the same order. How the N dimension is cut into tiles
//     (gemmNC blocks of nr columns, or lane groups that follow the image's
//     rows) never enters a lane's sum.
//
// Consequently Gemm, GemmRows on any band partition, and a product over
// any band of C's columns (B and C offset, N the band width) all produce
// bit-identical C — the property TestBlockedGemmBandInvariance and the
// engines' bit-identity tests pin down.
const (
	// gemmMR is the micro-tile height shared by both micro-kernels.
	gemmMR = 4
	// gemmNRMax bounds the micro-tile width across kernels; the
	// writeback accumulator buffer is sized for it.
	gemmNRMax = 16
	// gemmKC sizes the depth block: one packed B micro-panel is at most
	// gemmKC*gemmNRMax*4 = 16KiB and one packed A micro-panel 4KiB, so
	// the working set of the inner two loops stays inside a 32-48KiB
	// L1d. gemmKC is part of the determinism contract above — changing
	// it changes low-order bits of every large Gemm.
	gemmKC = 256
	// gemmMC rows of packed A per block: gemmMC*gemmKC*4 = 64KiB, L2
	// resident alongside the packed B block.
	gemmMC = 64
	// gemmNC columns of packed B per block: gemmNC*gemmKC*4 = 512KiB,
	// sized to sit in a (typical 1-2MiB) L2 next to the A block. All the
	// network shapes this repo emits have N <= 1024, so B is usually
	// packed exactly once per KC block.
	gemmNC = 512
)

// gemmNR is the active micro-tile width and gemmMicroKernel the active
// micro-kernel; both are selected once, at package init (see
// gemm_amd64.go), and never changed afterwards — see the determinism
// contract above. The kernel accumulates a gemmMR x gemmNR product tile
// into acc (row stride gemmNR) without touching C.
//
// gemmGatherKernel is the same kernel reading its B rows in place (see
// gatherB in conv.go): step l takes each gemmGW-lane group of the tile
// from p[b+off[l]:], b0 for the first group and b1 for the second (the
// scalar tile is a single group and ignores b1). Same accumulators, same
// order, so a lane ends up with what the packed kernel would compute from
// a panel holding the same values.
var (
	gemmNR           = 4
	gemmGW           = 4
	gemmMicroKernel  = microKernelScalar4x4
	gemmGatherKernel = gatherKernelScalar4x4
)

// GemmScratch holds the packing buffers of the blocked kernel so callers
// sitting in a hot loop (one Gemm per sample inside a coarse-grain batch
// band) can reuse them across calls instead of re-allocating. The zero
// value is ready to use; a GemmScratch must not be used from two
// goroutines at once.
type GemmScratch struct {
	ap []float32 // packed A block: up to gemmMC x gemmKC, mr-tall panels
	bp []float32 // packed B block: up to gemmKC x gemmNC, nr-wide panels
	// pa holds all of an op(A) that PackA packed ahead of a run of
	// products sharing it (pm x pk; per KC block, every mr-tall panel).
	pa     []float32
	pm, pk int
	// row stages one lowered row of a convolution's B block (conv.go).
	row [gemmNC]float32
	// img is one sample's zero-bordered image, the buffer the gather kernel
	// reads a convolution's op(B) from; strip is gemmMC rows of a
	// convolution's dcol on their way into the bottom gradient (conv.go).
	img, strip []float32
	// acc is the micro-kernel's accumulator tile. It lives here rather
	// than on gemmBlocked's stack because the kernel is invoked through
	// the gemmMicroKernel package variable (the AVX dispatch), which
	// defeats escape analysis and would heap-allocate the tile on every
	// call — one GC object per GEMM on the serving hot path.
	acc [gemmMR * gemmNRMax]float32
}

func (s *GemmScratch) ensure(apLen, bpLen int) {
	if cap(s.ap) < apLen {
		//dnnlint:ignore hotalloc grow-once scratch, amortized across every later GEMM on this shape
		s.ap = make([]float32, apLen)
	}
	s.ap = s.ap[:cap(s.ap)]
	if cap(s.bp) < bpLen {
		//dnnlint:ignore hotalloc grow-once scratch, amortized across every later GEMM on this shape
		s.bp = make([]float32, bpLen)
	}
	s.bp = s.bp[:cap(s.bp)]
}

// scratchPool backs plain Gemm/GemmRows calls that do not
// thread an explicit scratch; pooled storage makes repeated calls
// allocation-free after warm-up.
var scratchPool = sync.Pool{New: func() any { return new(GemmScratch) }}

// GetScratch hands out a packing-buffer scratch from the package pool.
// Callers that issue many Gemms back to back (per-sample lowered
// convolutions, banded inner products) should hold one for the whole loop
// and return it with PutScratch.
func GetScratch() *GemmScratch { return scratchPool.Get().(*GemmScratch) }

// PutScratch returns a scratch obtained from GetScratch to the pool.
func PutScratch(s *GemmScratch) { scratchPool.Put(s) }

// GemmIsBlocked reports whether Gemm runs an m x n x k product on the
// blocked kernel (true) or on the reference kernel. The decision
// deliberately ignores M and N: GemmRows and the coarse engine split M
// into bands (the inner-product layers pass the band height as M), their
// channel ranges split N (the band width), the serving path runs the same
// layer at batch 1 and batch 32, and every one of those must take the
// same path for the results to be bit-identical.
//
// The rule is read off the ref-vs-blocked sweep `dnnbench -figure gemm`
// prints (PERFORMANCE.md §1): from M = 8 up the blocked kernel wins from
// K = 4 at every N — N = 1 included — and from K = 2 wherever N fills a
// micro-tile (K = 2 with N <= 4 is a draw), rising to 15-50x at K = 256.
// Only K = 1, an outer product with nothing to reuse a packed panel for,
// stays on the reference kernel. (At M = 1 the reference kernel is the
// faster one below N = 16, by microseconds at most; no shape a net emits
// is there.)
func GemmIsBlocked(_, _, k int) bool {
	return k >= 2
}

// gemmScaleRows applies C = beta*C over the row band; used for the
// degenerate k == 0 / alpha == 0 cases where the main loops never touch C.
func gemmScaleRows(n int, beta float32, c []float32, ldc, rowLo, rowHi int) {
	for i := rowLo; i < rowHi; i++ {
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
	}
}

// gemmOp is one product on the blocked kernel: C = alpha*op(A)*op(B) +
// beta*C, plus where the operands come from. The plain Gemm entry points
// fill in the dense fields only; the lowered convolution (conv.go) sets
// gather or conv, bias and cRow0, and leaves a (b) nil after a PackA
// (packBAhead).
type gemmOp struct {
	transA, transB Transpose
	n, k           int
	alpha, beta    float32
	a              []float32 // nil: the panels PackA left in the scratch
	lda            int
	b              []float32 // nil: the panels packBAhead left in the scratch
	ldb            int
	// gather non-nil: b is a bordered image and op(B) is read from it in
	// place by the gather kernel; nothing is packed and transB, ldb are
	// unused.
	gather *gatherB
	// conv non-nil: b is a (C,H,W) image and op(B) its lowered (im2col)
	// matrix under conv — transposed if transB — packed straight from the
	// image, so the matrix is never written; ldb is unused.
	conv *ConvGeom
	c    []float32
	ldc  int
	// cRow0 is the row of C that c starts at: a strip product hands in
	// only the rows it computes.
	cRow0 int
	// bias non-nil: bias[i] is added to row i of C once its last KC block
	// is in, in the tile's own writeback pass.
	bias []float32
}

// PackA packs all of op(A) (m x k) into the scratch in the layout
// gemmBlocked reads: per KC block, every mr-tall micro-panel. A run of
// products sharing A (a band's samples all multiply the same weights)
// then packs it once instead of once per product; the panels stay valid
// until the next PackA on this scratch.
func (s *GemmScratch) PackA(transA Transpose, m, k int, a []float32, lda int) {
	arows, acols := m, k
	if transA == Trans {
		arows, acols = k, m
	}
	if m <= 0 || k <= 0 || lda < acols || len(a) < (arows-1)*lda+acols {
		panic(fmt.Sprintf("blas: PackA: bad operand: m=%d k=%d transA=%v lda=%d len=%d", m, k, transA == Trans, lda, len(a)))
	}
	mp := roundUp(m, gemmMR)
	if cap(s.pa) < mp*k {
		s.pa = make([]float32, mp*k)
	}
	s.pa = s.pa[:mp*k]
	for pc := 0; pc < k; pc += gemmKC {
		packA(s.pa[mp*pc:], transA, a, lda, 0, m, pc, min(gemmKC, k-pc))
	}
	s.pm, s.pk = m, k
}

// packBAhead packs all of a dense op(B) (k x n) into the scratch's B
// buffer: per KC block, every nr-wide micro-panel — PackA's counterpart
// for a B that several row strips of one product share. Valid until the
// next product on this scratch that packs its own B.
func (s *GemmScratch) packBAhead(transB Transpose, n, k int, b []float32, ldb int) {
	np := roundUp(n, gemmNR)
	s.ensure(0, np*k)
	for pc := 0; pc < k; pc += gemmKC {
		packB(s.bp[np*pc:], transB, b, ldb, pc, min(gemmKC, k-pc), 0, n)
	}
}

// gemmBlocked computes rows [rowLo, rowHi) of op with the blocked/packed
// kernel. The caller has validated the operands; with pre-packed A the
// band must start on a micro-panel boundary.
func gemmBlocked(s *GemmScratch, op *gemmOp, rowLo, rowHi int) {
	if rowLo >= rowHi {
		return
	}
	n, k := op.n, op.k
	if op.alpha == 0 || k == 0 {
		gemmScaleRows(n, op.beta, op.c, op.ldc, rowLo, rowHi)
		return
	}
	nr := gemmNR
	mcMax := min(gemmMC, rowHi-rowLo)
	kcMax := min(gemmKC, k)
	// The column blocking bounds the B block packed here; a B gathered in
	// place or packed ahead is one block.
	ncMax, bpLen := gemmNC, roundUp(min(gemmNC, n), nr)*kcMax
	if op.gather != nil || op.b == nil {
		ncMax, bpLen = n, 0
	}
	s.ensure(roundUp(mcMax, gemmMR)*kcMax, bpLen)
	acc := &s.acc
	for jc := 0; jc < n; jc += ncMax {
		nc := min(ncMax, n-jc)
		for pc := 0; pc < k; pc += gemmKC {
			kc := min(gemmKC, k-pc)
			firstK := pc == 0
			var bias []float32
			if pc+kc == k {
				bias = op.bias
			}
			bp := s.bp
			switch {
			case op.gather != nil:
			case op.b == nil:
				bp = s.bp[roundUp(n, nr)*pc:]
			case op.conv == nil:
				packB(bp, op.transB, op.b, op.ldb, pc, kc, jc, nc)
			case op.transB == NoTrans:
				packBConv(bp, s.row[:], op.conv, op.b, pc, kc, jc, nc)
			default:
				packBConvT(bp, op.conv, op.b, pc, kc, jc, nc)
			}
			for ic := rowLo; ic < rowHi; ic += gemmMC {
				mc := min(gemmMC, rowHi-ic)
				ap := s.ap
				if op.a != nil {
					packA(ap, op.transA, op.a, op.lda, ic, mc, pc, kc)
				} else {
					ap = s.pa[roundUp(s.pm, gemmMR)*pc+ic*kc:]
				}
				if op.gather != nil {
					s.gatherTiles(op, ap, ic, mc, pc, kc, firstK, bias)
					continue
				}
				for jr := 0; jr < nc; jr += nr {
					nrr := min(nr, nc-jr)
					bpPanel := bp[(jr/nr)*kc*nr:]
					for ir := 0; ir < mc; ir += gemmMR {
						mrr := min(gemmMR, mc-ir)
						gemmMicroKernel(ap[ir*kc:], bpPanel, kc, acc)
						var tileBias []float32
						if bias != nil {
							tileBias = bias[ic+ir:]
						}
						writebackTile(acc[:], nr, op.alpha, op.beta, firstK, tileBias,
							op.c[(ic+ir-op.cRow0)*op.ldc+jc+jr:], op.ldc, mrr, nrr)
					}
				}
			}
		}
	}
}

// gatherTiles is gemmBlocked's tile loop pair for a gathered op(B): one
// packed A block (mc x kc at row ic, depth pc) against every lane group,
// gemmNR/gemmGW groups to a tile. Each group is written back at its own
// columns with its own clip — the lanes past a ragged group's n read
// whatever follows in the image and are dropped here, exactly as the
// zero-padded lanes of a packed edge tile are — and two groups that are
// neighbours in C go back as the one tile they form.
func (s *GemmScratch) gatherTiles(op *gemmOp, ap []float32, ic, mc, pc, kc int, firstK bool, bias []float32) {
	groups := op.gather.groups
	steps := op.gather.steps[pc : pc+kc]
	nr, gw := gemmNR, gemmGW
	acc := &s.acc
	for gi := 0; gi < len(groups); gi += nr / gw {
		g0 := groups[gi]
		g1, n1 := g0, 0 // the tile's second group; a dropped repeat of the first when it has none
		if nr > gw && gi+1 < len(groups) {
			g1 = groups[gi+1]
			n1 = int(g1.n)
		}
		n0 := int(g0.n)
		if n0 == gw && g1.col == g0.col+g0.n {
			n0, n1 = n0+n1, 0
		}
		for ir := 0; ir < mc; ir += gemmMR {
			mrr := min(gemmMR, mc-ir)
			gemmGatherKernel(ap[ir*kc:], op.b, int(g0.base), int(g1.base), steps, acc)
			var tileBias []float32
			if bias != nil {
				tileBias = bias[ic+ir:]
			}
			crow := op.c[(ic+ir-op.cRow0)*op.ldc:]
			writebackTile(acc[:], nr, op.alpha, op.beta, firstK, tileBias, crow[g0.col:], op.ldc, mrr, n0)
			if n1 > 0 {
				writebackTile(acc[gw:], nr, op.alpha, op.beta, firstK, tileBias, crow[g1.col:], op.ldc, mrr, n1)
			}
		}
	}
}

// writebackTile folds one accumulated micro-tile into C:
// C = beta*C + alpha*acc on the first KC block, C += alpha*acc on the
// rest, then C += bias[row] when the caller passes the row biases (last
// KC block only). mrr/nrr clip edge tiles; acc rows are nr apart (acc may
// start inside the tile, at a lane group). This
// is the only code that writes C on the blocked path, shared by every
// micro-kernel, which keeps edge and full tiles bit-identical. The bias
// is a second rounding step over the finished row, not part of the
// alpha*acc expression, so it equals a separate add pass over C bit for
// bit (also where the compiler fuses multiply-adds).
func writebackTile(acc []float32, nr int, alpha, beta float32, firstK bool, bias []float32, c []float32, ldc, mrr, nrr int) {
	for i := 0; i < mrr; i++ {
		ci := c[i*ldc : i*ldc+nrr]
		ai := acc[i*nr : i*nr+nrr]
		ci = ci[:len(ai)]
		switch {
		case !firstK:
			for j, v := range ai {
				ci[j] += alpha * v
			}
		case beta == 0 && alpha == 1:
			// What every layer's forward product asks for; 1*v is v.
			copy(ci, ai)
		case beta == 0:
			// beta == 0 must not read C (it may hold garbage/NaN).
			for j, v := range ai {
				ci[j] = alpha * v
			}
		default:
			for j, v := range ai {
				ci[j] = beta*ci[j] + alpha*v
			}
		}
		if bias != nil {
			bv := bias[i]
			for j := range ci {
				ci[j] += bv
			}
		}
	}
}

// packA copies op(A)[ic:ic+mc, pc:pc+kc] into mr-tall micro-panels:
// panel p holds rows [p*mr, p*mr+mr) as kc groups of mr contiguous
// values, zero-padded when the block has fewer than mr rows left. The
// zero padding is what lets edge tiles share the full micro-kernel.
func packA(dst []float32, transA Transpose, a []float32, lda, ic, mc, pc, kc int) {
	for ir := 0; ir < mc; ir += gemmMR {
		rows := min(gemmMR, mc-ir)
		panel := dst[ir*kc : (ir+gemmMR)*kc]
		switch {
		case transA == Trans:
			// op(A)[i, l] = A[l, i]: row pc+l of the stored matrix is
			// contiguous over i, so the pack is a strided gather of
			// mr-length runs.
			for l := 0; l < kc; l++ {
				copyPad(panel[l*gemmMR:l*gemmMR+gemmMR], a[(pc+l)*lda+ic+ir:][:rows])
			}
		case rows == gemmMR:
			base := (ic+ir)*lda + pc
			interleave4(panel, gemmMR, a[base:base+kc], a[base+lda:base+lda+kc],
				a[base+2*lda:base+2*lda+kc], a[base+3*lda:base+3*lda+kc])
		default:
			base := (ic+ir)*lda + pc
			for l := 0; l < kc; l++ {
				g := panel[l*gemmMR : l*gemmMR+gemmMR]
				for i := range g {
					g[i] = 0
				}
				for i := 0; i < rows; i++ {
					g[i] = a[base+i*lda+l]
				}
			}
		}
	}
}

// copyPad copies src into the front of dst and zeroes the rest: one group
// of a micro-panel, zero-padded at the block's edge.
func copyPad(dst, src []float32) {
	for i := copy(dst, src); i < len(dst); i++ {
		dst[i] = 0
	}
}

// interleave4 writes dst[l*stride+i] = r_i[l] for four equally long rows:
// the transposing step of both packers (four rows of A into an mr-tall
// panel, four stored rows of a transposed B into four columns of an
// nr-wide one), four sequential read streams and one write stream.
func interleave4(dst []float32, stride int, r0, r1, r2, r3 []float32) {
	r1, r2, r3 = r1[:len(r0)], r2[:len(r0)], r3[:len(r0)]
	for l, v := range r0 {
		g := dst[l*stride : l*stride+4 : l*stride+4]
		g[0], g[1], g[2], g[3] = v, r1[l], r2[l], r3[l]
	}
}

// packB copies op(B)[pc:pc+kc, jc:jc+nc] into nr-wide micro-panels:
// panel p holds columns [p*nr, p*nr+nr) as kc groups of nr contiguous
// values, zero-padded on the right edge.
func packB(dst []float32, transB Transpose, b []float32, ldb, pc, kc, jc, nc int) {
	nr := gemmNR
	for jr := 0; jr < nc; jr += nr {
		cols := min(nr, nc-jr)
		panel := dst[(jr/nr)*kc*nr : (jr/nr+1)*kc*nr]
		if transB == NoTrans {
			for l := 0; l < kc; l++ {
				copyPad(panel[l*nr:l*nr+nr], b[(pc+l)*ldb+jc+jr:][:cols])
			}
			continue
		}
		// op(B)[l, j] = B[j, l]: column j of the panel is row jc+jr+j of
		// the stored matrix, transposed in four rows at a time.
		j := 0
		for ; j+4 <= cols; j += 4 {
			base := (jc+jr+j)*ldb + pc
			interleave4(panel[j:], nr, b[base:base+kc], b[base+ldb:base+ldb+kc],
				b[base+2*ldb:base+2*ldb+kc], b[base+3*ldb:base+3*ldb+kc])
		}
		for ; j < nr; j++ {
			if j < cols {
				src := b[(jc+jr+j)*ldb+pc:][:kc]
				for l, v := range src {
					panel[l*nr+j] = v
				}
			} else {
				for l := 0; l < kc; l++ {
					panel[l*nr+j] = 0
				}
			}
		}
	}
}

// microKernelScalar4x4 is the portable micro-kernel: a rank-kc update of
// a 4x4 tile held in 16 register accumulators, 8 contiguous float32
// loads per 32 flops. acc receives the tile with row stride gemmNR (4
// here — the scalar kernel is only active when gemmNR == 4).
func microKernelScalar4x4(ap, bp []float32, kc int, acc *[gemmMR * gemmNRMax]float32) {
	var c00, c01, c02, c03 float32
	var c10, c11, c12, c13 float32
	var c20, c21, c22, c23 float32
	var c30, c31, c32, c33 float32
	ap = ap[: 4*kc : 4*kc]
	bp = bp[: 4*kc : 4*kc]
	for l := 0; l < kc; l++ {
		al := ap[4*l : 4*l+4 : 4*l+4]
		bl := bp[4*l : 4*l+4 : 4*l+4]
		a0, a1, a2, a3 := al[0], al[1], al[2], al[3]
		b0, b1, b2, b3 := bl[0], bl[1], bl[2], bl[3]
		c00 += a0 * b0
		c01 += a0 * b1
		c02 += a0 * b2
		c03 += a0 * b3
		c10 += a1 * b0
		c11 += a1 * b1
		c12 += a1 * b2
		c13 += a1 * b3
		c20 += a2 * b0
		c21 += a2 * b1
		c22 += a2 * b2
		c23 += a2 * b3
		c30 += a3 * b0
		c31 += a3 * b1
		c32 += a3 * b2
		c33 += a3 * b3
	}
	acc[0], acc[1], acc[2], acc[3] = c00, c01, c02, c03
	acc[4], acc[5], acc[6], acc[7] = c10, c11, c12, c13
	acc[8], acc[9], acc[10], acc[11] = c20, c21, c22, c23
	acc[12], acc[13], acc[14], acc[15] = c30, c31, c32, c33
}

// gatherKernelScalar4x4 is microKernelScalar4x4 with row l of the B panel
// read in place at p[base+off[l]:]: one 4-lane group per tile, so b1 is
// unused. The accumulation is the packed kernel's, expression for
// expression.
func gatherKernelScalar4x4(ap, p []float32, base, _ int, off []int32, acc *[gemmMR * gemmNRMax]float32) {
	var c00, c01, c02, c03 float32
	var c10, c11, c12, c13 float32
	var c20, c21, c22, c23 float32
	var c30, c31, c32, c33 float32
	ap = ap[: 4*len(off) : 4*len(off)]
	p = p[base:]
	for l, o := range off {
		al := ap[4*l : 4*l+4 : 4*l+4]
		bl := p[o : o+4 : o+4]
		a0, a1, a2, a3 := al[0], al[1], al[2], al[3]
		b0, b1, b2, b3 := bl[0], bl[1], bl[2], bl[3]
		c00 += a0 * b0
		c01 += a0 * b1
		c02 += a0 * b2
		c03 += a0 * b3
		c10 += a1 * b0
		c11 += a1 * b1
		c12 += a1 * b2
		c13 += a1 * b3
		c20 += a2 * b0
		c21 += a2 * b1
		c22 += a2 * b2
		c23 += a2 * b3
		c30 += a3 * b0
		c31 += a3 * b1
		c32 += a3 * b2
		c33 += a3 * b3
	}
	acc[0], acc[1], acc[2], acc[3] = c00, c01, c02, c03
	acc[4], acc[5], acc[6], acc[7] = c10, c11, c12, c13
	acc[8], acc[9], acc[10], acc[11] = c20, c21, c22, c23
	acc[12], acc[13], acc[14], acc[15] = c30, c31, c32, c33
}

func roundUp(x, to int) int { return (x + to - 1) / to * to }
