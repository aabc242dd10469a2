package blas

import "fmt"

// This file is the lowered convolution: the three products Caffe's
// im2col+GEMM convolution issues per sample,
//
//	top  (O x ohw)  = W (O x ckk) · col (ckk x ohw) + bias     ConvForward
//	dWᵀ  (ckk x O) += col (ckk x ohw) · dTopᵀ (ohw x O)        ConvBackwardWeights
//	dX   (C,H,W)    = Col2im(Wᵀ (ckk x O) · dTop (O x ohw))    ConvBackwardData
//
// run on the blocked kernel of gemm_blocked.go with col = Im2col(im) and
// dcol = Wᵀ·dTop never written. Same gemmKC/gemmMC blocking, same
// accumulation order in every register lane, same writeback expression as
// a dense Gemm on a materialised col, so each product is bit for bit
// Im2col (or Col2im) around the blocked Gemm (TestConvMatchesIm2colGemm)
// and inherits the band-invariance contract. The weight gradient is
// computed transposed — Caffe's dW (O x ckk) += dTop·colᵀ — and written
// back into dW's O x ckk layout: each element still sums the same products
// (a·b and b·a are the same float, fused or not) over the same gemmKC
// blocks of output pixels in ascending order, so dW's bits are the
// untransposed product's.
//
// What is gathered. The lowered matrix is separable: with P the
// zero-bordered (C, H+2p, W+2p) copy of the sample,
//
//	col[k, n] = P[off(k) + pix(n)]
//	off(c,kh,kw) = (c·Hp + kh)·Wp + kw      pix(oh,ow) = oh·sH·Wp + ow·sW
//
// so both products that read col read it out of P through the two tables
// (built once per geometry, ConvPlan) instead of from packed panels.
// Forward has col as its B operand: the gather micro-kernel
// (gatherKernel) takes a run of output pixels inside one output row as
// a lane group (contiguous at StrideW = 1) and walks off with its steps.
// dW has col as its A operand: the gather-A micro-kernel
// (gatherAKernel) takes four lowered rows, four bases from off, and
// walks pix, at any stride, broadcasting one float of each row per step;
// its lanes are output channels, read from a packed dTopᵀ panel, so they
// are full at O = 16, 32, 64. Per sample that is one bordered copy —
// C·Hp·Wp floats — in place of a ckk·ohw-element panel pack in which a
// 5x5 window copied every pixel 25 times.
//
// Why slack lanes are harmless. A forward lane group is gw lanes wide
// whatever the row of pixels it covers, so the last group of a row is
// ragged: its spare lanes read what follows in P — the next row, the next
// channel, or up to gw-1 floats past the end, for which the scratch
// buffer keeps a group of slack. Lanes never mix (each accumulates its own
// column, as in the packed kernel), so whatever those lanes compute, NaN
// included, stays in them, and gatherTiles writes back only the columns
// that exist — the same clip an edge tile of a packed product gets. dW's
// A side reads single floats of real lowered rows (a ragged tile repeats
// a row it has), so it needs no slack.
//
// What is still packed. The weights, once per band by the caller
// (GemmScratch.PackA). dW's B operand, dTopᵀ: ohw x O, small, packed per
// sample one gemmKC block at a time. The forward product's B at StrideW
// != 1, which ConvGathers turns away, through packBConv. And dX's B
// operand, dTop: a dense matrix, packed once per sample for all its
// strips.
//
// Why dX is strips, not fused. See ConvBackwardData: Col2im's summation
// order is row order of dcol, a strip of rows keeps it, a tile does not.

// ConvGeom is the geometry of one sample's convolution: a (Channels,
// Height, Width) image swept by a KernelH x KernelW window. Its lowered
// matrix has Rows() rows, one per (channel, kernel row, kernel column),
// and Cols() columns, one per output position.
type ConvGeom struct {
	Channels, Height, Width int
	KernelH, KernelW        int
	PadH, PadW              int
	StrideH, StrideW        int
}

// OutH returns the output height.
func (g *ConvGeom) OutH() int { return ConvOutSize(g.Height, g.KernelH, g.PadH, g.StrideH) }

// OutW returns the output width.
func (g *ConvGeom) OutW() int { return ConvOutSize(g.Width, g.KernelW, g.PadW, g.StrideW) }

// Rows returns Channels*KernelH*KernelW, the lowered matrix's height.
func (g *ConvGeom) Rows() int { return g.Channels * g.KernelH * g.KernelW }

// Cols returns OutH*OutW, the lowered matrix's width.
func (g *ConvGeom) Cols() int { return g.OutH() * g.OutW() }

// rowCursor walks the lowered matrix's rows in order, keeping the
// (channel, kernel row, kernel column) a row index stands for.
type rowCursor struct{ c, kh, kw int }

func (g *ConvGeom) cursor(row int) rowCursor {
	khw := g.KernelH * g.KernelW
	return rowCursor{c: row / khw, kh: row % khw / g.KernelW, kw: row % g.KernelW}
}

func (g *ConvGeom) next(r *rowCursor) {
	if r.kw++; r.kw == g.KernelW {
		r.kw = 0
		if r.kh++; r.kh == g.KernelH {
			r.kh = 0
			r.c++
		}
	}
}

// lower writes n consecutive entries of lowered row r, starting at output
// position (oh, ow), to dst[0], dst[ds], dst[2*ds], ... Within one output
// row the source is a run of the image row with step StrideW; the part of
// it that falls in the padding is zero. No entry is bounds-tested on its
// own: each run is clipped once, and at stride 1 the rest is a copy.
func (g *ConvGeom) lower(dst []float32, ds int, im []float32, r rowCursor, oh, ow, outW, n int) {
	chIm := im[r.c*g.Height*g.Width : (r.c+1)*g.Height*g.Width]
	sw := g.StrideW
	ih := oh*g.StrideH - g.PadH + r.kh
	d := 0
	for n > 0 {
		run := min(n, outW-ow)
		iw := ow*sw - g.PadW + r.kw
		lo, hi := run, run // entries [lo, hi) of the run read the image
		if uint(ih) < uint(g.Height) {
			lo, hi = clipRun(iw, sw, g.Width, run)
		}
		for t := 0; t < lo; t++ {
			dst[d] = 0
			d += ds
		}
		if lo < hi {
			src := chIm[ih*g.Width+iw+lo*sw:]
			switch {
			case sw == 1 && ds == 1:
				d += copy(dst[d:d+hi-lo], src)
			case sw == 1:
				for _, v := range src[:hi-lo] {
					dst[d] = v
					d += ds
				}
			default:
				for t := 0; t < hi-lo; t++ {
					dst[d] = src[t*sw]
					d += ds
				}
			}
		}
		for t := hi; t < run; t++ {
			dst[d] = 0
			d += ds
		}
		n -= run
		ow = 0
		ih += g.StrideH
	}
}

// clipRun returns the sub-range [lo, hi) of t in [0, run) for which
// iw + t*stride is a column of a width-wide image row (lo == hi when
// none is).
func clipRun(iw, stride, width, run int) (lo, hi int) {
	if stride == 1 {
		lo = min(run, max(0, -iw))
		return lo, max(lo, min(run, width-iw))
	}
	if iw < 0 {
		lo = min(run, (-iw+stride-1)/stride)
	}
	if last := width - 1 - iw; last >= 0 {
		hi = min(run, last/stride+1)
	}
	return lo, max(lo, hi)
}

// packBConv is packB for op(B) = the lowered matrix of im, for the forward
// products the gather cannot serve: rows
// [pc, pc+kc), columns [jc, jc+nc), into nr-wide micro-panels. Each
// lowered row is formed once, in long runs, in the nc-float row buffer
// and then dealt out nr entries per panel: lowering straight into the
// panels would clip every run again for each panel it crosses.
func packBConv(dst, row []float32, g *ConvGeom, im []float32, pc, kc, jc, nc int) {
	nr := active.nr
	outW := g.OutW()
	oh, ow := jc/outW, jc%outW
	row = row[:roundUp(nc, nr)]
	for j := nc; j < len(row); j++ {
		row[j] = 0
	}
	r := g.cursor(pc)
	for l := 0; l < kc; l++ {
		g.lower(row, 1, im, r, oh, ow, outW, nc)
		d := l * nr
		for j := 0; j < len(row); j += nr {
			copy(dst[d:d+nr], row[j:j+nr])
			d += kc * nr
		}
		g.next(&r)
	}
}

// laneGroup is one run of a gathered operand's columns: for every step l,
// columns [col, col+n) of op(B) are P[base+steps[l] : base+steps[l]+n].
// The kernel always reads a full gw lanes; the ones past n belong to
// no column and are dropped in the writeback.
type laneGroup struct{ base, col, n int32 }

// gatherB describes an op(B) that is separable over a buffer P —
// op(B)[l, g.col+t] = P[g.base + steps[l] + t] — which is what a lowered
// matrix is over the zero-bordered image (see the file comment).
type gatherB struct {
	steps  []int32
	groups []laneGroup
}

// gatherA describes an op(A) that is separable over a buffer P —
// op(A)[i, l] = P[rows[i] + steps[l]] — which is what the lowered matrix
// is over the zero-bordered image with rows = off and steps = pix (see
// the file comment). Every index is a float of the bordered copy.
type gatherA struct{ rows, steps []int32 }

// ConvPlan is a ConvGeom plus what the three products need worked out
// once per geometry rather than once per sample: whether the forward
// product gathers (ConvGathers) and the offset tables the gathers read
// through. Immutable once built, so one plan serves every worker of a
// parallel region. The forward's lane groups are cut for the lane-group
// width of the micro-kernel active when the plan was built.
type ConvPlan struct {
	ConvGeom
	gw     int // lane-group width the forward's groups were cut for
	hp, wp int // bordered image: Height+2*PadH, Width+2*PadW
	// lowered is the lowered matrix as dW's A operand: its rows (off) and
	// output pixels (pix). Always built: dW has one route.
	lowered gatherA
	// fwd gathers the lowered matrix as the forward's B operand (steps
	// walk its rows, groups are runs of output pixels inside one output
	// row). nil: the forward packs its panels.
	fwd *gatherB
}

// ConvGathers reports whether a geometry's forward product W·col reads
// the lowered matrix through the gather kernel instead of packing it.
// Like GemmIsBlocked it only chooses between two ways to the same bits.
// It gathers whenever it can, which is at StrideW == 1: its lanes are
// neighbouring output pixels, and only there are they neighbours in the
// image. The weight gradient has no choice to make: it always reads col
// in place as its A operand, at any stride, with lanes over output
// channels.
//
// Read off the sweep `dnnbench -figure gemm` prints (PERFORMANCE.md §11;
// packed time over gathered time, each forced, AVX2 kernel, 8-lane groups):
//
//	                      O outW   forward   lanes
//	mnist.conv1          20   24    1.75x    100%
//	mnist.conv2          50    8    2.08x    100%
//	cifar.conv1          32   32    1.82x    100%
//	cifar.conv2          32   16    2.18x    100%
//	cifar.conv3          64    8    1.94x    100%
//	16ch 9x9 k5          32    5    2.15x     62%
//	16ch 14x14 k3        32   12    1.76x     75%
//	16ch 16x16 k4 p1     32   15    2.10x     94%
//	64ch 16x16 k1        32   16    1.94x    100%
//	8ch 28x28 k7 p3      16   28    2.46x     88%
//
// It wins by 1.7-2.5x wherever it applies, an output row of 5 pixels in 8
// lanes included: what it drops is the K x N panel pack, which cost as
// much as the product.
func ConvGathers(g ConvGeom) bool {
	return g.StrideW == 1
}

// NewConvPlan builds the plan the lowered convolution layer runs g on.
func NewConvPlan(g ConvGeom) *ConvPlan {
	return newConvPlan(g, ConvGathers(g))
}

// NewConvPlanForced builds a plan with the forward's gather-or-pack choice
// made by the caller instead of ConvGathers, for the sweep the predicate
// is read off (internal/bench) and for tests; use NewConvPlan everywhere
// else. A forward product at StrideW != 1 packs regardless: its lanes are
// not contiguous in the image.
func NewConvPlanForced(g ConvGeom, gather bool) *ConvPlan {
	return newConvPlan(g, gather && ConvGathers(g))
}

// LaneUse returns the share of the forward gather kernel's lanes that are
// columns of the product rather than a ragged group's dropped tail: OutW
// over OutW rounded up to whole lane groups, 0 where the forward packs.
func (p *ConvPlan) LaneUse() float64 {
	if p.fwd == nil {
		return 0
	}
	cols := 0
	for _, lg := range p.fwd.groups {
		cols += int(lg.n)
	}
	return float64(cols) / float64(len(p.fwd.groups)*p.gw)
}

func newConvPlan(g ConvGeom, fwd bool) *ConvPlan {
	p := &ConvPlan{ConvGeom: g, gw: active.gw, hp: g.Height + 2*g.PadH, wp: g.Width + 2*g.PadW}
	outH, outW, gw := g.OutH(), g.OutW(), p.gw
	// off: lowered row (c,kh,kw) -> its window corner in the bordered image.
	off := make([]int32, g.Rows())
	for ckh := range g.Channels * g.KernelH {
		row := (ckh/g.KernelH*p.hp + ckh%g.KernelH) * p.wp
		for kw := 0; kw < g.KernelW; kw++ {
			off[ckh*g.KernelW+kw] = int32(row + kw)
		}
	}
	// pix: output pixel (oh,ow) -> its window's corner.
	pix := make([]int32, outH*outW)
	for oh := range outH {
		for ow := 0; ow < outW; ow++ {
			pix[oh*outW+ow] = int32(oh*g.StrideH*p.wp + ow*g.StrideW)
		}
	}
	p.lowered = gatherA{rows: off, steps: pix}
	if fwd {
		// Each output row cut into lane groups: runs of the image at
		// StrideW = 1, the one case the forward product gathers at.
		perORow := (outW + gw - 1) / gw
		pixels := make([]laneGroup, outH*perORow)
		for oh := range outH {
			row := oh * g.StrideH * p.wp
			for i := range perORow {
				pixels[oh*perORow+i] = laneGroup{int32(row + i*gw), int32(oh*outW + i*gw), int32(min(gw, outW-i*gw))}
			}
		}
		p.fwd = &gatherB{steps: off, groups: pixels}
	}
	return p
}

// border writes im's zero-bordered copy into the scratch and returns it,
// a lane group of slack included: a ragged last group reads up to gw-1
// floats past the copy's end, into lanes nobody keeps, so the slack only
// has to be there, not to hold anything.
func (s *GemmScratch) border(p *ConvPlan, im []float32) []float32 {
	if p.gw != active.gw {
		panic(fmt.Sprintf("blas: ConvPlan built for %d-lane groups, kernel has %d", p.gw, active.gw))
	}
	h, w, hp, wp := p.Height, p.Width, p.hp, p.wp
	if need := p.Channels*hp*wp + p.gw; cap(s.img) < need {
		s.img = make([]float32, need)
	}
	dst := s.img[:cap(s.img)]
	if hp == h && wp == w {
		copy(dst, im[:p.Channels*h*w])
		return dst
	}
	for c := 0; c < p.Channels; c++ {
		d := dst[c*hp*wp : (c+1)*hp*wp]
		top := p.PadH*wp + p.PadW // the rows above, and the first row's left border
		clear(d[:top])
		for y := 0; y < h; y++ {
			copy(d[top+y*wp:top+y*wp+w], im[(c*h+y)*w:])
			// this row's right border and the next one's left (or the rows below)
			clear(d[top+y*wp+w : min(top+(y+1)*wp, len(d))])
		}
		clear(d[min(top+h*wp, len(d)):])
	}
	return dst
}

// ConvForward computes out (o x Cols) = W · lowered(im) for one sample,
// plus bias[i] on row i when bias is non-nil. W must have been packed
// into s with s.PackA(NoTrans, o, p.Rows(), w, p.Rows()).
func ConvForward(s *GemmScratch, p *ConvPlan, o int, im, bias, out []float32) {
	ckk, ohw := p.Rows(), p.Cols()
	checkPacked(s, "ConvForward", o, ckk)
	checkLen("ConvForward im", len(im), p.Channels*p.Height*p.Width)
	checkLen("ConvForward out", len(out), o*ohw)
	if bias != nil {
		checkLen("ConvForward bias", len(bias), o)
	}
	op := gemmOp{n: ohw, k: ckk, alpha: 1, b: im, conv: &p.ConvGeom, c: out, ldc: ohw, bias: bias}
	if p.fwd != nil {
		op.b, op.gather, op.conv = s.border(p, im), p.fwd, nil
	}
	gemmBlocked(s, &op, 0, o)
}

// ConvBackwardWeights accumulates one sample's weight gradient:
// wGrad (o x Rows) += dTop (o x Cols) · lowered(im)ᵀ, computed as its
// transpose lowered(im) · dTopᵀ with the lowered matrix read in place
// from the bordered image (the gather-A kernel), dTopᵀ packed one gemmKC
// block at a time and each tile written back transposed into wGrad. o
// (dTop's rows, wGrad's rows) is the product's N: a band of output
// channels is a band of its columns and gives the full product's bits.
func ConvBackwardWeights(s *GemmScratch, p *ConvPlan, o int, dTop, im, wGrad []float32) {
	ckk, ohw := p.Rows(), p.Cols()
	checkLen("ConvBackwardWeights dTop", len(dTop), o*ohw)
	checkLen("ConvBackwardWeights im", len(im), p.Channels*p.Height*p.Width)
	checkLen("ConvBackwardWeights wGrad", len(wGrad), o*ckk)
	op := gemmOp{transB: Trans, n: o, k: ohw, alpha: 1, beta: 1,
		a: s.border(p, im), gatherA: &p.lowered, b: dTop, ldb: ohw, c: wGrad, ldc: ckk, transC: true}
	gemmBlocked(s, &op, 0, ckk)
}

// ConvBackwardData computes channels [c0, c1) of one sample's bottom
// gradient dX (Channels x Height x Width; those channels overwritten, the
// rest untouched) = Col2im(Wᵀ · dTop). The rows of Wᵀ that feed them must
// have been packed into s: with kk = KernelH*KernelW,
// s.PackA(Trans, (c1-c0)*kk, o, w[c0*kk:], p.Rows()) — for the whole image,
// c0 = 0 and c1 = Channels, that is all of Wᵀ.
//
// dcol = Wᵀ·dTop (Rows x Cols) is produced gemmMC rows at a time into the
// scratch and each strip is scattered while it is still in cache, so the
// Rows x Cols matrix never exists. The strips go in ascending row order,
// which is the order Col2im adds in: an element of dX receives at most one
// term from each row of dcol, so row order is the whole of its summation
// order, and dX is bit for bit Col2im of the full matrix wherever the
// strips are cut — which is why a channel range, whose strips start at row
// c0*kk, gives the same bits as the whole image. Scattering from the tile
// writeback instead — true fusion — would add in tile order, rows 4-7 of
// one block of columns before rows 0-3 of the next, and an element fed by
// both would round differently.
func ConvBackwardData(s *GemmScratch, p *ConvPlan, o int, dTop, dX []float32, c0, c1 int) {
	kk, ohw, hw := p.KernelH*p.KernelW, p.Cols(), p.Height*p.Width
	if c0 < 0 || c1 > p.Channels || c0 >= c1 {
		panic(fmt.Sprintf("blas: ConvBackwardData: channel range [%d, %d) of %d", c0, c1, p.Channels))
	}
	rows := (c1 - c0) * kk
	checkPacked(s, "ConvBackwardData", rows, o)
	checkLen("ConvBackwardData dTop", len(dTop), o*ohw)
	checkLen("ConvBackwardData dX", len(dX), p.Channels*hw)
	if cap(s.strip) < gemmMC*ohw {
		s.strip = make([]float32, gemmMC*ohw)
	}
	strip := s.strip[:gemmMC*ohw]
	s.packBAhead(NoTrans, ohw, o, dTop, ohw)
	clear(dX[c0*hw : c1*hw])
	op := gemmOp{n: ohw, k: o, alpha: 1, c: strip, ldc: ohw}
	for ic := 0; ic < rows; ic += gemmMC {
		mc := min(gemmMC, rows-ic)
		op.cRow0 = ic
		gemmBlocked(s, &op, ic, ic+mc)
		p.scatter(strip, p.cursor(c0*kk+ic), mc, dX)
	}
}

func checkPacked(s *GemmScratch, who string, m, k int) {
	if s.pm != m || s.pk != k {
		panic(fmt.Sprintf("blas: %s: scratch holds a packed %dx%d A, need %dx%d (PackA first)", who, s.pm, s.pk, m, k))
	}
}

func checkLen(what string, have, need int) {
	if have < need {
		panic(fmt.Sprintf("blas: %s too short: len=%d, need >= %d", what, have, need))
	}
}
