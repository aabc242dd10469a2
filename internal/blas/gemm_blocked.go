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
//	        or take the panels PackA packed ahead for a run of products,
//	        or pack nothing: an A the gather-A kernel reads in place
//	      for jr over NC in steps of nr:       // bp micro-panel stays in L1
//	        (a dense B under a band of one row block: pack just this
//	         panel here, not the block above)
//	        for ir over MC in steps of gemmMR:
//	          micro-kernel: register-tiled rank-KC update of a C tile,
//	            written back into C (or, for a C stored transposed, Cᵀ)
//
// Packing turns the strided (and possibly transposed) operand reads into
// two contiguous streams, so the micro-kernel reads exactly mr+nr floats
// per rank-1 step instead of the reference kernel's ~3 memory ops per 2
// flops, and the same packed B panel is reused by every row micro-panel
// of the block.
//
// The micro-kernel and the data movement around it come as one kernel set
// per instruction set (kernels, below), and init makes one set active,
// once per process, never per call. The portable set is pure Go:
// microKernelScalar4x4, a 4x4 register tile (16 float32 accumulators + 8
// temporaries, sized for the 16 XMM registers of amd64), and the Go loops
// for all packing and writeback. The avx2 set (gemm_amd64.go), active on
// amd64 hosts with AVX2+FMA, has the 4x16 assembly kernel sgemmKernel4x16
// (nr = 16: 8 YMM accumulators updated by two fused multiply-adds per
// broadcast A element, ~8x the scalar flop rate) and vector routines for
// the data movement (gemm_move_amd64.s): a full 16-wide panel of a dense B
// (two YMM moves per depth step), a panel of 1-16 columns of a transposed
// one (8x8 in-register transposes, zero lanes past the last column), a
// full 4-row A panel (a 4x8 transpose per eight steps, or one 4-float run
// per step of a transposed A), a tile row of 8 or 16 lanes (every mode and
// the bias) and a 4-row tile into a transposed C. Each set's micro-kernel
// has three gather twins reading one operand in place from a
// convolution's bordered image or dTop (conv.go): gatherKernel its B rows,
// gatherAKernel its A rows, and gatherSumKernel (the avx2 set's
// sgemmGatherSum4x16) its B rows once per kernel position at that
// position's shift, summing the positions' chains in the tile. The avx512
// set (gemm_amd64.go), active where the host adds AVX-512F, is avx2 with
// its two training-only kernels, gatherAKernel and gatherSumKernel, on
// 8x16 ZMM tiles: every forward product runs avx2's code. packA,
// packB, writebackTile and writebackTileT hand the active
// set's vector routines what they cover and run their own Go loops on the
// rest — ragged panels, rows and tiles, the depth steps past the last
// multiple of 8 — and on everything when the set has none. The vector
// routines move the same values, and compute the writeback's expression
// with the same unfused multiplies and adds in the same operand order, so
// which path packed a panel or wrote a row never shows in C.
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
//   - where a packed panel comes from — a dense operand, the (C,H,W) image
//     of a lowered convolution (conv.go), or panels PackA left in the
//     scratch — changes how it is filled, never what it holds; and the
//     gather kernels, which read a convolution's B rows or A rows out of
//     the bordered image instead of a panel, feed each lane the values
//     the panel would have held, in the same order. How the N dimension
//     is cut into tiles (gemmNC blocks of nr columns, or lane groups that
//     follow the image's rows) never enters a lane's sum, nor does
//     whether a tile is written to C or, transposed, to Cᵀ.
//
// Consequently Gemm, its band driver gemmDense on any row partition, and
// a product over any band of C's columns (B and C offset, N the band
// width) all produce bit-identical C — the property
// TestBlockedGemmBandInvariance and the engines' bit-identity tests pin
// down.
const (
	// gemmMR is the micro-tile height shared by every kernel set: the
	// forward tiles', the packed A panels' and the writebacks' row quad.
	gemmMR = 4
	// gemmMBMax bounds the height of a set's backward tiles (mb, below):
	// the gather-A and gather-sum kernels may compute two row quads at once.
	gemmMBMax = 2 * gemmMR
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

// kernels is one instruction set's kernel set: the micro-kernels, the tile
// they compute, the data movement written for them, and the three loops
// outside the GEMM that have a vector form. One value exists per ISA —
// portable below, avx2 and avx512 in gemm_amd64.go — and active is the
// one every call runs: chosen once, at package init, and never changed
// afterwards (tests aside), so every product in the process (and every
// band of every product) runs the same kernels — see the determinism
// contract above.
// Code reads a set's fields straight from active, a package variable at a
// fixed address, so a field costs a tile loop one load, as a plain
// package variable would.
type kernels struct {
	name string
	// nr is the micro-tile width, gw the width of one lane group of a
	// gathered B tile (nr/gw groups to a tile); both are the kernels'. mb
	// is the height of the two backward kernels' tiles, gatherAKernel's and
	// gatherSumKernel's: gemmMR, or gemmMBMax where they take two row quads
	// per call. Every other tile is gemmMR rows.
	nr, gw, mb int
	// microKernel accumulates a gemmMR x nr product tile of the packed
	// panels ap and bp into acc (row stride nr) without touching C.
	microKernel func(ap, bp []float32, kc int, acc *[gemmMBMax * gemmNRMax]float32)
	// gatherKernel is microKernel reading its B rows in place (see gatherB
	// in conv.go): step l takes each gw-lane group of the tile from
	// p[b+off[l]:], b0 for the first group and b1 for the second (a tile of
	// one group ignores b1). Same accumulators, same order, so a lane ends
	// up with what the packed kernel would compute from a panel holding the
	// same values.
	gatherKernel func(ap, p []float32, b0, b1 int, off []int32, acc *[gemmMBMax * gemmNRMax]float32)
	// gatherAKernel reads its A rows in place instead (see gatherA in
	// conv.go): step l takes row i of the mb-row tile from
	// p[rows[i]+steps[l]] and the B row from the packed panel bp, as
	// microKernel does.
	gatherAKernel func(p []float32, rows [gemmMBMax]int32, steps []int32, bp []float32, acc *[gemmMBMax * gemmNRMax]float32)
	// gatherSumKernel is gatherKernel once per shift, summed (the gathered
	// dX route, conv.go): for each shifts[q] in order it runs the K =
	// len(off) chain of ap's q-th panel (ap[q*gemmMR*len(off):]) against
	// B rows read at p[b+shifts[q]+off[l]:] into zeroed accumulators, and
	// adds the result into a tile sum that starts at +0, the sum the first
	// operand of each add. acc receives the sum. An mb-row tile reads its
	// second quad's panels one quad's panels on (ap[panels:], panels =
	// gemmMR*len(off)*len(shifts)); an ap shorter than two quads' panels
	// is a tile of one quad.
	gatherSumKernel func(ap, p []float32, b0, b1 int, off, shifts []int32, acc *[gemmMBMax * gemmNRMax]float32)

	// The vector data movement; nil in a set that has none, and then the
	// Go loops of packA, packB, writebackTile and writebackTileT do all of
	// it. Each covers only full panels and full rows — a ragged panel, a
	// depth tail past the last multiple of 8 and a ragged tile row stay on
	// the Go loops, which are also the routines' oracle
	// (TestDataMovementMatchesGo). Moving values, or computing the Go
	// expression in the compiler's operand order without fusing, they
	// write what the Go loops write, bit for bit.

	// packBDense packs one full 16-wide panel of a dense op(B):
	// dst[l*16+j] = b[l*ldb+j].
	packBDense func(dst, b []float32, ldb, kc int)
	// packBTransposed packs the first kc8 (a multiple of 8) steps of one
	// 16-wide panel of a transposed op(B) with cols (1-16) columns:
	// dst[l*16+j] = b[j*ldb+l] for j < cols, 0 for the lanes past them.
	// It reads only the cols stored rows.
	packBTransposed func(dst, b []float32, ldb, kc8, cols int)
	// packARows interleaves the first kc8 (a multiple of 8) steps of four
	// rows of A: dst[l*4+i] = a[i*lda+l].
	packARows func(dst, a []float32, lda, kc8 int)
	// packARuns packs panels full panels of a transposed op(A), end to
	// end: dst[(p*kc+l)*4+i] = a[l*lda+p*4+i].
	packARuns func(dst, a []float32, lda, kc, panels int)
	// writeback is writebackTileGo for rows of 8 or 16 lanes.
	writeback func(acc []float32, nr int, alpha, beta float32, firstK bool, bias, c []float32, ldc, mrr, nrr int)
	// writebackT is writebackTileTGo for a tile of gemmMR rows.
	writebackT func(acc []float32, nr int, alpha, beta float32, firstK bool, c []float32, ldc, nrr int)

	// maxPool8 is MaxPoolWindows for eight adjacent windows of stride 1
	// or 2, one per lane (pool.go), and MaxPoolTable's column fold; nil
	// in a set without it.
	maxPool8 func(src *float32, base, w, rows, kw, sw int, out *float32, idx *int32)
	// addRuns adds runs runs of n floats into dst, dst[k*ds+i] +=
	// src[k*ss+i] (ConvGeom.scatter): a plain float add, lane by lane, so
	// the sums are the same bits in every set.
	addRuns func(dst, src []float32, runs, n, ds, ss int)

	// normals is Normals (normal.go): the Box–Muller draws of an rng
	// stream, stopping before a normal whose first uniform is 0.
	normals func(state, inc uint64, dst []float32) (uint64, int)
}

// portable is the set every host can run: the 4x4 Go micro-kernels, whose
// tile is a single 4-lane group, and Go loops for everything else.
var portable = kernels{
	name: "portable", nr: 4, gw: 4, mb: gemmMR,
	microKernel: microKernelScalar4x4, gatherKernel: gatherKernelScalar4x4, gatherAKernel: gatherAKernelScalar4x4, gatherSumKernel: gatherSumKernelScalar4x4,
	addRuns: addRunsGo, normals: normalsGo,
}

// active is the kernel set in use: portable unless init picks a set the
// host has (gemm_amd64.go).
var active = portable

// KernelSet names the kernel set every product of this process runs on:
// "portable", "avx2" or "avx512", chosen by the CPU at start-up.
func KernelSet() string { return active.name }

// GemmScratch holds the packing buffers of the blocked kernel so callers
// sitting in a hot loop (one Gemm per sample inside a coarse-grain batch
// band) can reuse them across calls instead of re-allocating. The zero
// value is ready to use; a GemmScratch must not be used from two
// goroutines at once.
type GemmScratch struct {
	ap []float32 // packed A block: up to gemmMC x gemmKC, mr-tall panels
	bp []float32 // packed B block: up to gemmKC x gemmNC, nr-wide panels (one panel under a one-block band)
	// pa holds all of an op(A) that PackA packed ahead of a run of
	// products sharing it (pm x pk; per KC block, every mr-tall panel).
	pa     []float32
	pm, pk int
	// pdx: pa holds the gathered dX route's per-position weight panels
	// (PackBackwardData), not PackA's layout.
	pdx bool
	// row stages one lowered row of a convolution's B block (conv.go).
	row [gemmNC]float32
	// img is one sample's zero-bordered image (or dTop), the buffer the
	// gather kernels read a convolution's operand from; strip is gemmMC
	// rows of a convolution's dcol on their way into the bottom gradient
	// (conv.go).
	img, strip []float32
	// win holds MaxPoolTable's gathered columns; winOut and winIdx take
	// one run of eight windows' maxima and column indices from the kernel
	// (arrays here, not on the caller's stack, for the reason acc is).
	win    []float32
	winOut [8]float32
	winIdx [8]int32
	// acc is the micro-kernel's accumulator tile. It lives here rather
	// than on gemmBlocked's stack because the kernel is called through a
	// function value (the active set's microKernel), which defeats escape
	// analysis and would heap-allocate the tile on every call — one GC
	// object per GEMM on the serving hot path. It holds the tallest tile of
	// any set, mb rows of nr lanes.
	acc [gemmMBMax * gemmNRMax]float32
}

func (s *GemmScratch) ensure(apLen, bpLen int) {
	if cap(s.ap) < apLen {
		s.ap = make([]float32, apLen)
	}
	s.ap = s.ap[:cap(s.ap)]
	if cap(s.bp) < bpLen {
		s.bp = make([]float32, bpLen)
	}
	s.bp = s.bp[:cap(s.bp)]
}

// scratches backs Gemm and every other product that does not thread an
// explicit scratch: a last-in, first-out free list that holds as many
// scratches as were ever in use at once, each grown to the largest
// products it served, so repeated calls are allocation-free after
// warm-up. It is not a sync.Pool: that keeps one list per P and empties
// on every collection, so a band whose goroutine moved to another P, or
// ran after a GC, drew a fresh scratch and grew it again — allocations in
// warm passes, at a rate that depended on the scheduler.
var scratches struct {
	sync.Mutex
	free []*GemmScratch
}

// GetScratch hands out a packing-buffer scratch from the package free
// list. Callers that issue many products on one scratch (the per-sample
// lowered convolutions) hold one for the whole loop and return it with
// PutScratch; Gemm borrows one per call.
func GetScratch() *GemmScratch {
	scratches.Lock()
	defer scratches.Unlock()
	n := len(scratches.free)
	if n == 0 {
		return new(GemmScratch)
	}
	s := scratches.free[n-1]
	scratches.free = scratches.free[:n-1]
	return s
}

// PutScratch returns a scratch obtained from GetScratch to the free list.
func PutScratch(s *GemmScratch) {
	scratches.Lock()
	scratches.free = append(scratches.free, s)
	scratches.Unlock()
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
// beta*C, plus where the operands come from. Gemm fills in the dense
// fields only; the lowered convolution (conv.go) sets gather, gatherA or
// conv, bias, cRow0 and transC, and leaves a (b) nil after a PackA
// (packBAhead).
type gemmOp struct {
	transA, transB Transpose
	n, k           int
	alpha, beta    float32
	a              []float32 // nil: the panels PackA left in the scratch
	lda            int
	b              []float32 // nil: the panels packBAhead left in the scratch
	ldb            int
	// gatherA non-nil: a is a bordered image and op(A) is read from it in
	// place by the gather-A kernel; nothing is packed, transA and lda are
	// unused, and C must be stored transposed (transC): gatherATiles
	// writes no other layout.
	gatherA *gatherA
	// gather non-nil: b is a bordered image and op(B) is read from it in
	// place by the gather kernel; nothing is packed and transB, ldb are
	// unused.
	gather *gatherB
	// conv non-nil: b is a (C,H,W) image and op(B) its lowered (im2col)
	// matrix under conv, packed straight from the image, so the matrix is
	// never written; transB and ldb are unused.
	conv *ConvGeom
	c    []float32
	ldc  int
	// transC: c holds the product transposed, element (i, j) at
	// c[j*ldc+i]; cRow0 and bias are unused.
	transC bool
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
	s.pm, s.pk, s.pdx = m, k, false
}

// packBAhead packs all of a dense op(B) (k x n) into the scratch's B
// buffer: per KC block, every nr-wide micro-panel — PackA's counterpart
// for a B that several row strips of one product share. Valid until the
// next product on this scratch that packs its own B.
func (s *GemmScratch) packBAhead(transB Transpose, n, k int, b []float32, ldb int) {
	np := roundUp(n, active.nr)
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
	nr := active.nr
	mcMax := min(gemmMC, rowHi-rowLo)
	kcMax := min(gemmKC, k)
	// The column blocking bounds the B block packed here; a B gathered in
	// place or packed ahead is one block. A dense B under a band of one
	// row block is read by that block alone, so it is packed a panel at a
	// time, just before its tiles: the panel is still in L1 when the
	// kernel reads it, and the buffer is one panel, not a block.
	ncMax, bpLen := gemmNC, roundUp(min(gemmNC, n), nr)*kcMax
	panelwise := op.conv == nil && op.gather == nil && op.b != nil && rowHi-rowLo <= gemmMC
	switch {
	case op.gather != nil || op.b == nil:
		ncMax, bpLen = n, 0
	case panelwise:
		bpLen = nr * kcMax
	}
	apLen := roundUp(mcMax, gemmMR) * kcMax
	if op.gatherA != nil {
		apLen = 0
	}
	s.ensure(apLen, bpLen)
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
			case panelwise:
			case op.conv == nil:
				packB(bp, op.transB, op.b, op.ldb, pc, kc, jc, nc)
			default:
				packBConv(bp, s.row[:], op.conv, op.b, pc, kc, jc, nc)
			}
			for ic := rowLo; ic < rowHi; ic += gemmMC {
				mc := min(gemmMC, rowHi-ic)
				ap := s.ap
				switch {
				case op.gatherA != nil:
				case op.a != nil:
					packA(ap, op.transA, op.a, op.lda, ic, mc, pc, kc)
				default:
					ap = s.pa[roundUp(s.pm, gemmMR)*pc+ic*kc:]
				}
				if op.gather != nil {
					s.gatherTiles(op, ap, ic, mc, pc, kc, firstK, bias)
					continue
				}
				for jr := 0; jr < nc; jr += nr {
					nrr := min(nr, nc-jr)
					bpPanel := bp
					if panelwise {
						packB(bp, op.transB, op.b, op.ldb, pc, kc, jc+jr, nrr)
					} else {
						bpPanel = bp[(jr/nr)*kc*nr:]
					}
					if op.gatherA != nil {
						s.gatherATiles(op, bpPanel, ic, mc, pc, kc, jc+jr, nrr, firstK)
						continue
					}
					for ir := 0; ir < mc; ir += gemmMR {
						mrr := min(gemmMR, mc-ir)
						active.microKernel(ap[ir*kc:], bpPanel, kc, acc)
						if op.transC {
							writebackTileT(acc[:], nr, op.alpha, op.beta, firstK, op.c[(jc+jr)*op.ldc+ic+ir:], op.ldc, mrr, nrr)
							continue
						}
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

// gatherATiles is gemmBlocked's row loop for a gathered op(A) against one
// packed B panel (columns [col, col+nrr) of the product): tiles of the
// set's backward height mb, mc rows from row ic, each written back into
// the transposed C one gemmMR-row quad at a time — the writebacks every
// set shares, so the tile height never reaches C.
func (s *GemmScratch) gatherATiles(op *gemmOp, bp []float32, ic, mc, pc, kc, col, nrr int, firstK bool) {
	rows, steps := op.gatherA.rows[ic:ic+mc], op.gatherA.steps[pc:pc+kc]
	nr, mb := active.nr, active.mb
	acc := &s.acc
	for ir := 0; ir < mc; ir += mb {
		mrr := min(mb, mc-ir)
		active.gatherAKernel(op.a, tileRows(rows[ir:ir+mrr]), steps, bp, acc)
		for q := 0; q < mrr; q += gemmMR {
			writebackTileT(acc[q*nr:], nr, op.alpha, op.beta, firstK, op.c[col*op.ldc+ic+ir+q:], op.ldc, min(gemmMR, mrr-q), nrr)
		}
	}
}

// gatherTiles is gemmBlocked's tile loop pair for a gathered op(B): one
// packed A block (mc x kc at row ic, depth pc) against every lane group,
// nr/gw groups to a tile. Each group is written back at its own
// columns with its own clip — the lanes past a ragged group's n read
// whatever follows in the image and are dropped here, exactly as the
// zero-padded lanes of a packed edge tile are — and two groups that are
// neighbours in C go back as the one tile they form.
func (s *GemmScratch) gatherTiles(op *gemmOp, ap []float32, ic, mc, pc, kc int, firstK bool, bias []float32) {
	groups := op.gather.groups
	steps := op.gather.steps[pc : pc+kc]
	nr, gw := active.nr, active.gw
	acc := &s.acc
	for gi := 0; gi < len(groups); gi += nr / gw {
		g0, g1, n0, n1 := tileGroups(groups, gi, nr, gw)
		for ir := 0; ir < mc; ir += gemmMR {
			mrr := min(gemmMR, mc-ir)
			active.gatherKernel(ap[ir*kc:], op.b, int(g0.base), int(g1.base), steps, acc)
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

// tileGroups returns the lane groups of the gathered tile that starts at
// group gi — the second a dropped repeat of the first when there is none —
// and the columns to write back from each: two groups that are neighbours
// in C go back as the one run they form (n1 = 0).
func tileGroups(groups []laneGroup, gi, nr, gw int) (g0, g1 laneGroup, n0, n1 int) {
	g0 = groups[gi]
	g1 = g0
	if nr > gw && gi+1 < len(groups) {
		g1 = groups[gi+1]
		n1 = int(g1.n)
	}
	n0 = int(g0.n)
	if n0 == gw && g1.col == g0.col+g0.n {
		n0, n1 = n0+n1, 0
	}
	return g0, g1, n0, n1
}

// writebackTile folds one accumulated micro-tile into C:
// C = beta*C + alpha*acc on the first KC block, C += alpha*acc on the
// rest, then C += bias[row] when the caller passes the row biases (last
// KC block only). mrr/nrr clip edge tiles; acc rows are nr apart (acc may
// start inside the tile, at a lane group). This and its transposed twin
// writebackTileT are the only code that writes C on the blocked path,
// shared by every micro-kernel, which keeps edge and full tiles
// bit-identical. Rows of 8
// or 16 lanes go to the active set's writeback where it has one; the
// rest, and every row in a set without one, to writebackTileGo.
func writebackTile(acc []float32, nr int, alpha, beta float32, firstK bool, bias []float32, c []float32, ldc, mrr, nrr int) {
	if wb := active.writeback; wb != nil && (nrr == 8 || nrr == 16) {
		wb(acc, nr, alpha, beta, firstK, bias, c, ldc, mrr, nrr)
		return
	}
	writebackTileGo(acc, nr, alpha, beta, firstK, bias, c, ldc, mrr, nrr)
}

// writebackTileT is writebackTile into a transposed C: tile element
// (i, j) goes to c[j*ldc+i], through the same expression and without a
// bias. Tiles of gemmMR rows go to the active set's writebackT where it
// has one; ragged ones, and every tile in a set without one, to
// writebackTileTGo.
func writebackTileT(acc []float32, nr int, alpha, beta float32, firstK bool, c []float32, ldc, mrr, nrr int) {
	if wb := active.writebackT; wb != nil && mrr == gemmMR {
		wb(acc, nr, alpha, beta, firstK, c, ldc, nrr)
		return
	}
	writebackTileTGo(acc, nr, alpha, beta, firstK, c, ldc, mrr, nrr)
}

// writebackTileTGo is writebackTileT's portable path and the vector
// writebackT's oracle: writebackTileGo's loops with C's index transposed.
func writebackTileTGo(acc []float32, nr int, alpha, beta float32, firstK bool, c []float32, ldc, mrr, nrr int) {
	for i := 0; i < mrr; i++ {
		ai := acc[i*nr : i*nr+nrr]
		ci := c[i:]
		switch {
		case !firstK:
			for j, v := range ai {
				ci[j*ldc] += alpha * v
			}
		case beta == 0 && alpha == 1:
			for j, v := range ai {
				ci[j*ldc] = v
			}
		case beta == 0:
			for j, v := range ai {
				ci[j*ldc] = alpha * v
			}
		default:
			for j, v := range ai {
				ci[j*ldc] = beta*ci[j*ldc] + alpha*v
			}
		}
	}
}

// writebackTileGo is writebackTile's portable path and the vector
// writeback's oracle. The bias is a second rounding step over the finished row, not
// part of the alpha*acc expression, so it equals a separate add pass over
// C bit for bit (also where the compiler fuses multiply-adds).
func writebackTileGo(acc []float32, nr int, alpha, beta float32, firstK bool, bias []float32, c []float32, ldc, mrr, nrr int) {
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
// Where the active set has them, its packARuns packs a transposed A's
// full panels and its packARows the first kc&^7 steps of an untransposed
// one's; the Go loops pack the rest.
func packA(dst []float32, transA Transpose, a []float32, lda, ic, mc, pc, kc int) {
	ir := 0
	if full := mc &^ (gemmMR - 1); transA == Trans && active.packARuns != nil && full > 0 {
		active.packARuns(dst, a[pc*lda+ic:], lda, kc, full/gemmMR)
		ir = full
	}
	for ; ir < mc; ir += gemmMR {
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
			l0 := 0 // steps packed by the vector routine
			if active.packARows != nil && kc >= 8 {
				l0 = kc &^ 7
				active.packARows(panel, a[base:], lda, l0)
			}
			interleave4(panel[l0*gemmMR:], gemmMR, a[base+l0:base+kc], a[base+lda+l0:base+lda+kc],
				a[base+2*lda+l0:base+2*lda+kc], a[base+3*lda+l0:base+3*lda+kc])
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
// values, zero-padded on the right edge. Where the active set has them, a
// full 16-wide panel of a dense B goes to its packBDense, and the first
// kc&^7 steps of any panel of a transposed B to its packBTransposed; the
// Go loops pack the rest.
func packB(dst []float32, transB Transpose, b []float32, ldb, pc, kc, jc, nc int) {
	nr := active.nr
	for jr := 0; jr < nc; jr += nr {
		cols := min(nr, nc-jr)
		panel := dst[(jr/nr)*kc*nr : (jr/nr+1)*kc*nr]
		if transB == NoTrans {
			src := b[pc*ldb+jc+jr:]
			if cols == 16 && active.packBDense != nil {
				active.packBDense(panel, src, ldb, kc)
				continue
			}
			for l := 0; l < kc; l++ {
				copyPad(panel[l*nr:l*nr+nr], src[l*ldb:][:cols])
			}
			continue
		}
		// op(B)[l, j] = B[j, l]: column j of the panel is row jc+jr+j of
		// the stored matrix, transposed in four rows at a time.
		l0 := 0 // steps packed by the vector routine
		if active.packBTransposed != nil && kc >= 8 {
			l0 = kc &^ 7
			active.packBTransposed(panel, b[(jc+jr)*ldb+pc:], ldb, l0, cols)
			if l0 == kc {
				continue
			}
		}
		j := 0
		for ; j+4 <= cols; j += 4 {
			base := (jc+jr+j)*ldb + pc
			interleave4(panel[l0*nr+j:], nr, b[base+l0:base+kc], b[base+ldb+l0:base+ldb+kc],
				b[base+2*ldb+l0:base+2*ldb+kc], b[base+3*ldb+l0:base+3*ldb+kc])
		}
		for ; j < nr; j++ {
			if j < cols {
				src := b[(jc+jr+j)*ldb+pc+l0:][:kc-l0]
				for l, v := range src {
					panel[(l0+l)*nr+j] = v
				}
			} else {
				for l := l0; l < kc; l++ {
					panel[l*nr+j] = 0
				}
			}
		}
	}
}

// microKernelScalar4x4 is the portable micro-kernel: a rank-kc update of
// a 4x4 tile held in 16 register accumulators, 8 contiguous float32
// loads per 32 flops. acc receives the tile with row stride 4, the
// portable set's nr.
func microKernelScalar4x4(ap, bp []float32, kc int, acc *[gemmMBMax * gemmNRMax]float32) {
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
func gatherKernelScalar4x4(ap, p []float32, base, _ int, off []int32, acc *[gemmMBMax * gemmNRMax]float32) {
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

// gatherAKernelScalar4x4 is microKernelScalar4x4 with row i of the A
// panel read in place at p[rows[i]+steps[l]]. The accumulation is the
// packed kernel's, expression for expression; a product of an A and a B
// float is the same float in either order.
func gatherAKernelScalar4x4(p []float32, rows [gemmMBMax]int32, steps []int32, bp []float32, acc *[gemmMBMax * gemmNRMax]float32) {
	var c00, c01, c02, c03 float32
	var c10, c11, c12, c13 float32
	var c20, c21, c22, c23 float32
	var c30, c31, c32, c33 float32
	p0, p1, p2, p3 := p[rows[0]:], p[rows[1]:], p[rows[2]:], p[rows[3]:]
	bp = bp[: 4*len(steps) : 4*len(steps)]
	for l, o := range steps {
		bl := bp[4*l : 4*l+4 : 4*l+4]
		a0, a1, a2, a3 := p0[o], p1[o], p2[o], p3[o]
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

// gatherSumKernelScalar4x4 is the portable gatherSumKernel: the 4x4
// gather kernel once per shift (one lane group per tile, so b1 is unused),
// each tile added into the sum lane by lane.
func gatherSumKernelScalar4x4(ap, p []float32, b, _ int, off, shifts []int32, acc *[gemmMBMax * gemmNRMax]float32) {
	var sum [gemmMR * 4]float32
	panel := gemmMR * len(off)
	for q, sh := range shifts {
		gatherKernelScalar4x4(ap[q*panel:], p, b+int(sh), 0, off, acc)
		for j, v := range acc[:len(sum)] {
			sum[j] += v
		}
	}
	copy(acc[:], sum[:])
}

// tileRows returns the row bases of a gathered A tile of 1-gemmMBMax rows;
// a ragged tile repeats its last row in the rows it lacks, which the
// kernel computes and the writeback drops.
func tileRows(rows []int32) (r [gemmMBMax]int32) {
	for i := range r {
		r[i] = rows[min(i, len(rows)-1)]
	}
	return r
}

func roundUp(x, to int) int { return (x + to - 1) / to * to }
