package blas

import "fmt"

// This file is the lowered convolution: the three products Caffe's
// im2col+GEMM convolution issues per sample,
//
//	top  (O x ohw)  = W (O x ckk) · col (ckk x ohw) + bias     ConvForward
//	dW   (O x ckk) += dTop (O x ohw) · colᵀ (ohw x ckk)        ConvBackwardWeights
//	dX   (C,H,W)    = Col2im(Wᵀ (ckk x O) · dTop (O x ohw))    ConvBackwardData
//
// run on the blocked kernel of gemm_blocked.go with col = Im2col(im) and
// dcol = Wᵀ·dTop never written. Same gemmKC/gemmMC blocking, same
// accumulation order in every register lane, same writebackTile as a dense
// Gemm on a materialised col, so each product is bit for bit Im2col (or
// Col2im) around the blocked Gemm (TestConvMatchesIm2colGemm) and inherits
// the band-invariance contract.
//
// What is gathered. The lowered matrix is separable: with P the
// zero-bordered (C, H+2p, W+2p) copy of the sample,
//
//	col[k, n] = P[off(k) + pix(n)]
//	off(c,kh,kw) = (c·Hp + kh)·Wp + kw      pix(oh,ow) = oh·sH·Wp + ow·sW
//
// so a row of a B micro-panel is a short contiguous run of P, and the
// gather micro-kernel (gemmGatherKernel) loads it from there instead of
// from a packed panel: a base per lane group plus one table entry per
// rank-1 step. Forward walks off with its steps and takes a run of output
// pixels inside one output row as a lane group (contiguous at StrideW = 1);
// dW walks pix and takes the KernelW kernel columns of one (c, kh), at any
// stride. Per sample that is one bordered copy — C·Hp·Wp floats — in place
// of a ckk·ohw-element panel pack in which a 5x5 window copied every pixel
// 25 times. The tables are built once per geometry (ConvPlan).
//
// Why slack lanes are harmless. A lane group is gemmGW lanes wide whatever
// the row of pixels or kernel columns it covers, so the last group of a
// row is ragged: its spare lanes read what follows in P — the next row,
// the next channel, or up to gemmGW-1 floats past the end, for which the
// scratch buffer keeps a group of slack. Lanes never mix (each accumulates
// its own column, as in the packed kernel), so whatever those lanes
// compute, NaN included, stays in them, and gatherTiles writes back only
// the columns that exist — the same clip an edge tile of a packed product
// gets.
//
// What is still packed. The A operands: the weights, once per band by the
// caller (GemmScratch.PackA), and dTop for dW, per sample (O x ohw, small).
// The B operand of the geometries ConvGathers turns away — a forward
// product at StrideW != 1, a dW with fewer than five kernel columns — goes
// through packBConv/packBConvT as before. And dX's B operand, dTop: a dense
// matrix, packed once per sample for all its strips.
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
	nr := gemmNR
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

// packBConvT is packB for op(B) = the transposed lowered matrix of im,
// for the dW products too narrow to gather: op(B)[l, j] = col[j, l], so a micro-panel's column is a stretch of one
// lowered row, written down the panel with stride nr.
func packBConvT(dst []float32, g *ConvGeom, im []float32, pc, kc, jc, nc int) {
	nr := gemmNR
	outW := g.OutW()
	oh, ow := pc/outW, pc%outW
	r := g.cursor(jc)
	for jr := 0; jr < nc; jr += nr {
		cols := min(nr, nc-jr)
		panel := dst[(jr/nr)*kc*nr : (jr/nr+1)*kc*nr]
		for j := 0; j < cols; j++ {
			g.lower(panel[j:], nr, im, r, oh, ow, outW, kc)
			g.next(&r)
		}
		for j := cols; j < nr; j++ {
			for l := 0; l < kc; l++ {
				panel[l*nr+j] = 0
			}
		}
	}
}

// laneGroup is one run of a gathered operand's columns: for every step l,
// columns [col, col+n) of op(B) are P[base+steps[l] : base+steps[l]+n].
// The kernel always reads a full gemmGW lanes; the ones past n belong to
// no column and are dropped in the writeback.
type laneGroup struct{ base, col, n int32 }

// gatherB describes an op(B) that is separable over a buffer P —
// op(B)[l, g.col+t] = P[g.base + steps[l] + t] — which is what a lowered
// matrix is over the zero-bordered image (see the file comment).
type gatherB struct {
	steps  []int32
	groups []laneGroup
}

// ConvPlan is a ConvGeom plus what the three products need worked out
// once per geometry rather than once per sample: which of them gather
// (ConvGathers) and the offset tables they gather through. Immutable once
// built, so one plan serves every worker of a parallel region. The tables
// are cut for the lane-group width of the micro-kernel active when the
// plan was built.
type ConvPlan struct {
	ConvGeom
	gw     int // lane-group width the groups were cut for
	hp, wp int // bordered image: Height+2*PadH, Width+2*PadW
	// fwd gathers the lowered matrix (steps walk its rows, groups are runs
	// of output pixels inside one output row); dw gathers its transpose
	// (steps walk output pixels, groups are the kernel columns of one
	// (channel, kernel row)). nil: that product packs its panels.
	fwd, dw *gatherB
}

// ConvGathers reports which of a geometry's products read the lowered
// matrix through the gather kernel instead of packing it: the forward
// product W·col and the weight gradient dTop·colᵀ. Like GemmIsBlocked it
// only chooses between two ways to the same bits.
//
// The forward product gathers whenever it can, which is at StrideW == 1
// (its lanes are neighbouring output pixels, and only there are they
// neighbours in the image). The weight gradient can gather at any stride —
// the stride is in its step table — but its lanes are the KernelW kernel
// columns of one (channel, kernel row), so a narrow kernel leaves most of
// each lane group computing columns that do not exist.
//
// Read off the sweep `dnnbench -figure gemm` prints (PERFORMANCE.md §11;
// packed time over gathered time, each forced, AVX2 kernel, 8-lane groups):
//
//	                      O outW   forward   lanes      dW   lanes
//	mnist.conv1          20   24    1.85x    100%    1.40x    62%
//	mnist.conv2          50    8    1.88x    100%    1.13x    62%
//	cifar.conv1          32   32    1.73x    100%    1.20x    62%
//	cifar.conv2          32   16    2.28x    100%    1.30x    62%
//	cifar.conv3          64    8    1.94x    100%    1.04x    62%
//	16ch 9x9 k5          32    5    2.11x     62%    1.24x    62%
//	16ch 14x14 k3        32   12    1.73x     75%    0.87x    38%
//	16ch 16x16 k4 p1     32   15    2.19x     94%    1.04x    50%
//	64ch 16x16 k1        32   16    1.80x    100%    0.29x    12%
//	8ch 28x28 k7 p3      16   28    2.42x     88%    2.29x    88%
//	16ch 31x31 k5 p2 s2  32   16       -        -    1.53x    62%
//
// Forward wins by 1.7-2.7x wherever it applies, an output row of 5 pixels
// in 8 lanes included: what it drops is the K x N panel pack, which cost as
// much as the product. dW wins from five kernel columns up (1.0-1.5x at 62%
// of the lanes, 2.3x at 88%), draws at four and loses below, so it gathers
// from KernelW = 5.
func ConvGathers(g ConvGeom) (forward, weights bool) {
	return g.StrideW == 1, g.KernelW >= 5
}

// NewConvPlan builds the plan the lowered convolution layer runs g on.
func NewConvPlan(g ConvGeom) *ConvPlan {
	fwd, dw := ConvGathers(g)
	return newConvPlan(g, fwd, dw)
}

// NewConvPlanForced builds a plan with the gather-or-pack choice made by
// the caller instead of ConvGathers, for the sweep the predicate is read
// off (internal/bench) and for tests; use NewConvPlan everywhere else. A
// forward product at StrideW != 1 packs regardless: its lanes are not
// contiguous in the image.
func NewConvPlanForced(g ConvGeom, gather bool) *ConvPlan {
	return newConvPlan(g, gather && g.StrideW == 1, gather)
}

// LaneUse returns, per gathered product, the share of the kernel's lanes
// that are columns of the product rather than a ragged group's dropped
// tail (0 for a product that packs): OutW over OutW rounded up to whole
// lane groups for the forward product, KernelW likewise for dW.
func (p *ConvPlan) LaneUse() (forward, weights float64) {
	use := func(gb *gatherB) float64 {
		if gb == nil {
			return 0
		}
		cols := 0
		for _, lg := range gb.groups {
			cols += int(lg.n)
		}
		return float64(cols) / float64(len(gb.groups)*p.gw)
	}
	return use(p.fwd), use(p.dw)
}

func newConvPlan(g ConvGeom, fwd, dw bool) *ConvPlan {
	p := &ConvPlan{ConvGeom: g, gw: gemmGW, hp: g.Height + 2*g.PadH, wp: g.Width + 2*g.PadW}
	if !fwd && !dw {
		return p
	}
	outH, outW, gw := g.OutH(), g.OutW(), p.gw
	// off: lowered row (c,kh,kw) -> its window corner in the bordered
	// image; kcols: the kernel columns of each (c,kh), cut into lane groups.
	perKRow := (g.KernelW + gw - 1) / gw
	off := make([]int32, g.Rows())
	kcols := make([]laneGroup, g.Channels*g.KernelH*perKRow)
	for ckh := range g.Channels * g.KernelH {
		row := (ckh/g.KernelH*p.hp + ckh%g.KernelH) * p.wp
		for kw := 0; kw < g.KernelW; kw++ {
			off[ckh*g.KernelW+kw] = int32(row + kw)
		}
		for i := range perKRow {
			kcols[ckh*perKRow+i] = laneGroup{int32(row + i*gw), int32(ckh*g.KernelW + i*gw), int32(min(gw, g.KernelW-i*gw))}
		}
	}
	// pix: output pixel (oh,ow) -> its window's corner; pixels: each output
	// row cut into lane groups (runs of the image only at StrideW = 1, the
	// one case the forward product uses them in).
	perORow := (outW + gw - 1) / gw
	pix := make([]int32, outH*outW)
	pixels := make([]laneGroup, outH*perORow)
	for oh := range outH {
		row := oh * g.StrideH * p.wp
		for ow := 0; ow < outW; ow++ {
			pix[oh*outW+ow] = int32(row + ow*g.StrideW)
		}
		for i := range perORow {
			pixels[oh*perORow+i] = laneGroup{int32(row + i*gw), int32(oh*outW + i*gw), int32(min(gw, outW-i*gw))}
		}
	}
	if fwd {
		p.fwd = &gatherB{steps: off, groups: pixels}
	}
	if dw {
		p.dw = &gatherB{steps: pix, groups: kcols}
	}
	return p
}

// border writes im's zero-bordered copy into the scratch and returns it,
// a lane group of slack included: a ragged last group reads up to gw-1
// floats past the copy's end, into lanes nobody keeps, so the slack only
// has to be there, not to hold anything.
func (s *GemmScratch) border(p *ConvPlan, im []float32) []float32 {
	if p.gw != gemmGW {
		panic(fmt.Sprintf("blas: ConvPlan built for %d-lane groups, kernel has %d", p.gw, gemmGW))
	}
	h, w, hp, wp := p.Height, p.Width, p.hp, p.wp
	if need := p.Channels*hp*wp + p.gw; cap(s.img) < need {
		//dnnlint:ignore hotalloc grow-once scratch, amortized across every later sample of this geometry
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
// wGrad (o x Rows) += dTop (o x Cols) · lowered(im)ᵀ.
func ConvBackwardWeights(s *GemmScratch, p *ConvPlan, o int, dTop, im, wGrad []float32) {
	ckk, ohw := p.Rows(), p.Cols()
	checkLen("ConvBackwardWeights dTop", len(dTop), o*ohw)
	checkLen("ConvBackwardWeights im", len(im), p.Channels*p.Height*p.Width)
	checkLen("ConvBackwardWeights wGrad", len(wGrad), o*ckk)
	op := gemmOp{transB: Trans, n: ckk, k: ohw, alpha: 1, beta: 1,
		a: dTop, lda: ohw, b: im, conv: &p.ConvGeom, c: wGrad, ldc: ckk}
	if p.dw != nil {
		op.b, op.gather, op.conv = s.border(p, im), p.dw, nil
	}
	gemmBlocked(s, &op, 0, o)
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
		//dnnlint:ignore hotalloc grow-once scratch, amortized across every later sample of this geometry
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
