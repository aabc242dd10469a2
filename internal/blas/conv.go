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
// (GemmScratch.PackA for the forward, GemmScratch.PackBackwardData for
// dX). dW's B operand, dTopᵀ: ohw x O, small, packed per sample one
// gemmKC block at a time. The forward product's B at StrideW != 1, which
// ConvGathers turns away, through packBConv. And, where dX runs in strips,
// its B operand dTop: a dense matrix, packed once per sample for all its
// strips.
//
// How dX gathers. At stride 1 an element of dX is a sum over kernel
// positions of a K = O chain,
//
//	dX[c, ih, iw] = Σ(kh,kw) Σo W[o, c, kh, kw] · dTop[o, ih+PadH-kh, iw+PadW-kw]
//
// in which a tap off dTop's edge is no term. With D the copy of dTop
// bordered by (KernelH-1-PadH, KernelW-1-PadW) — hd x wd = (Height +
// KernelH - 1) x (Width + KernelW - 1) per channel, channels cs >= hd·wd
// floats apart — the tap is
//
//	D[o·cs + ih·wd + iw + shift(kh, kw)]   shift = (KernelH-1-kh)·wd + KernelW-1-kw
//
// so dTop is a gathered B operand like the forward's lowered matrix: steps
// o·cs, lane groups that are runs of dX pixels inside one dX row, read
// once per kernel position at that position's shift. The gather-sum
// kernel (gatherSumKernel) runs, for each position in (kh, kw) order, that
// position's K = O chain into zeroed accumulators and adds it into a tile
// sum that starts at +0; each tile is written to dX once, by the beta = 0,
// alpha = 1 copy. Its bits are Col2im's:
//
//   - a position's chain is the dcol element the strips compute: the same
//     kernel over the same o in the same order, and one K block, which the
//     strips write back with that same copy;
//   - Col2im adds the rows (c, kh, kw) of dcol into a cleared dX in that
//     same (kh, kw) order, the sum as the first operand of each add;
//   - a tap off dTop's edge reads the border's +0, so its chain is a sum
//     of ±0 products started at +0, which is +0; and adding +0 to a sum
//     that started at +0 changes nothing, because such a sum is never −0.
//
// So the positions stay separate chains — one chain over (kh, kw, o), the
// forward's structure, would round differently from Col2im's per-row
// sums — and the route needs O <= gemmKC: past it a strip's dcol element
// is two K blocks written back one after the other, and dX + acc₀ + acc₁
// is not dX + (acc₀ + acc₁). The one divergence is a non-finite weight: an
// Inf times a border zero is NaN where Col2im skips the tap. The guard
// refuses non-finite weights before they reach a backward pass, and
// nothing else depends on it.
//
// The route computes every dX pixel's taps, H·W per channel and position,
// where the strips compute the OutH·OutW that exist; an unpadded
// convolution (LeNet's conv2: 144 against 64) pays the difference in
// flops. ConvDataGathers is the rule, read off a sweep.

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
// matrix is over the zero-bordered image, and what dTop is, moved by a
// kernel position's shift, over its bordered copy (see the file comment).
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
// product gathers (ConvGathers), whether dX does (ConvDataGathers), and the
// offset tables the gathers read through. Immutable once built, so one
// plan serves every worker of a parallel region. The lane groups are cut
// for the lane-group width of the micro-kernel active when the plan was
// built.
type ConvPlan struct {
	ConvGeom
	gw     int // lane-group width the groups were cut for
	hp, wp int // bordered image: Height+2*PadH, Width+2*PadW
	// lowered is the lowered matrix as dW's A operand: its rows (off) and
	// output pixels (pix). Always built: dW has one route.
	lowered gatherA
	// fwd gathers the lowered matrix as the forward's B operand (steps
	// walk its rows, groups are runs of output pixels inside one output
	// row). nil: the forward packs its panels.
	fwd *gatherB
	// dx gathers the bordered dTop as dX's B operand: steps walk dTop's
	// channels, gemmKC of them, dcs apart; groups are runs of dX pixels
	// inside one dX row; and shifts[kh*KernelW+kw] is where kernel position
	// (kh, kw) reads (see the file comment). nil: dX runs in strips;
	// else it gathers at every o <= gemmKC if dxForced, and where
	// ConvDataGathers says it pays if not.
	dx       *gatherB
	dxForced bool
	shifts   []int32
	dcs      int
}

// ConvRoute is the route choice NewConvPlanForced makes in place of the
// rules: whether the forward product gathers (else it packs) and whether
// dX gathers (else it runs in strips).
type ConvRoute struct{ FwdGather, DXGather bool }

// ConvGathers reports whether a geometry's forward product W·col reads
// the lowered matrix through the gather kernel instead of packing it.
// It only chooses between two ways to the same bits.
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

// ConvDataGathers reports whether the bottom gradient dX of a
// convolution with o output channels sums its kernel positions on the
// gather-sum kernel instead of scattering dcol in strips. Like ConvGathers
// it only chooses between two ways to the same bits (see the file
// comment). The route is legal at stride 1, with a pad inside the kernel
// reach (the border of dTop is then KernelH-1-PadH >= 0 rows) and with
// o <= gemmKC (each position one K block). Where it pays is a matter of
// lanes: per kernel position, both routes run a K = o chain per lane, the
// gathered route over every dX pixel of every channel — rows rounded up to
// whole lane groups, channels to whole tiles — and the strips over the
// C·OutH·OutW pixels of dcol, but each strip lane then costs a writeback
// and a scatter add, as much as 16 more steps of its chain on the sweep.
// So it gathers where
//
//	roundUp(C, 4)·H·roundUp(W, gw)·o <= C·OutH·OutW·(o + 16)
//
// which sends a "same"-padded convolution whose channels fill whole tiles
// and whose rows fill whole lane groups (CIFAR's three) to the gather at
// every o, a small o to the gather on larger dX images too, and LeNet's
// conv1 (one channel in a four-channel tile) and conv2 (144 dX pixels per
// 64 outputs) to the strips. Read off the sweep
// `dnnbench -figure gemm` prints (PERFORMANCE.md §16; strips time over
// gathered time, each forced, AVX2 kernel, 8-lane groups, median of three
// sweeps):
//
//	                      O  H·W/ohw   dX         rule
//	mnist.conv1          20    1.36    0.33x     strips
//	mnist.conv2          50    2.25    0.48x     strips
//	cifar.conv1          32    1       1.09x     gather
//	cifar.conv2          32    1       1.67x     gather
//	cifar.conv3          64    1       1.41x     gather
//	16ch 12x12 k5        32    2.25    0.58x     strips
//	16ch 9x9 k5          32    3.24    0.58x     strips
//	16ch 14x14 k3        32    1.36    0.96x     strips
//	16ch 14x14 k3         8    1.36    1.88x     gather
//	16ch 20x20 k5        32    1.56    0.86x     strips
//	16ch 16x16 k3 p1     32    1       1.42x     gather
//	16ch 16x16 k4 p1     32    1.14    1.51x     gather
//	16ch 16x16 k5 p1     32    1.31    1.39x     gather
//	16ch 30x30 k3        32    1.15    1.14x     gather
//	64ch 16x16 k1        32    1       1.05x     gather
//	8ch 28x28 k7 p3      16    1       1.78x     gather
//
// The rule picks the faster route on every row but 16ch 14x14 k3 at O =
// 32, a draw (0.95-1.15x over the three sweeps).
func ConvDataGathers(g ConvGeom, o int) bool {
	return dataGatherLegal(g) && o <= gemmKC && dataGatherPays(g, o)
}

// dataGatherLegal is where the gathered dX route can run at all, o aside:
// stride 1 and a non-negative dTop border.
func dataGatherLegal(g ConvGeom) bool {
	return g.StrideH == 1 && g.StrideW == 1 && g.PadH < g.KernelH && g.PadW < g.KernelW
}

// dataGatherPays is ConvDataGathers' cost rule.
func dataGatherPays(g ConvGeom, o int) bool {
	return roundUp(g.Channels, gemmMR)*g.Height*roundUp(g.Width, active.gw)*o <= g.Channels*g.OutH()*g.OutW()*(o+16)
}

// NewConvPlan builds the plan the lowered convolution layer runs g on: the
// forward gathers where ConvGathers says, dX where ConvDataGathers says for
// the o it is called with.
func NewConvPlan(g ConvGeom) *ConvPlan {
	return newConvPlan(g, ConvRoute{FwdGather: ConvGathers(g), DXGather: dataGatherLegal(g)}, false)
}

// NewConvPlanForced builds a plan on the routes r forces instead of
// ConvGathers and ConvDataGathers, for the sweep the rules are read off
// (internal/bench) and for tests; use NewConvPlan everywhere else. A
// route the product cannot take is not taken: the forward packs at
// StrideW != 1, and dX runs in strips at a stride other than 1, a pad
// beyond the kernel reach or more than gemmKC output channels.
func NewConvPlanForced(g ConvGeom, r ConvRoute) *ConvPlan {
	return newConvPlan(g, ConvRoute{FwdGather: r.FwdGather && ConvGathers(g), DXGather: r.DXGather && dataGatherLegal(g)}, true)
}

// dataGathers reports whether ConvBackwardData gathers on p for o output
// channels.
func (p *ConvPlan) dataGathers(o int) bool {
	return p.dx != nil && o <= gemmKC && (p.dxForced || dataGatherPays(p.ConvGeom, o))
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

func newConvPlan(g ConvGeom, r ConvRoute, forced bool) *ConvPlan {
	p := &ConvPlan{ConvGeom: g, gw: active.gw, hp: g.Height + 2*g.PadH, wp: g.Width + 2*g.PadW, dxForced: forced}
	outH, outW := g.OutH(), g.OutW()
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
	if r.FwdGather {
		// Output rows at StrideW = 1, the one case the forward gathers at,
		// are runs of the bordered image StrideH rows apart.
		p.fwd = &gatherB{steps: off, groups: laneGroups(outH, outW, g.StrideH*p.wp, p.gw)}
	}
	if r.DXGather {
		hd, wd := g.Height+g.KernelH-1, g.Width+g.KernelW-1
		// A step reads one channel of dTop per rank-1 update, so a channel
		// stride of a multiple of 4 KiB (a 32x32 bordered dTop) would put
		// every step's B rows in one L1 set; an odd number of 64-byte lines
		// spreads them over all 64.
		p.dcs = roundUp(hd*wd, 16)
		if p.dcs/16%2 == 0 {
			p.dcs += 16
		}
		steps := make([]int32, gemmKC)
		for o := range steps {
			steps[o] = int32(o * p.dcs)
		}
		p.shifts = make([]int32, g.KernelH*g.KernelW)
		for kh := range g.KernelH {
			for kw := range g.KernelW {
				p.shifts[kh*g.KernelW+kw] = int32((g.KernelH-1-kh)*wd + g.KernelW - 1 - kw)
			}
		}
		p.dx = &gatherB{steps: steps, groups: laneGroups(g.Height, g.Width, wd, p.gw)}
	}
	return p
}

// laneGroups cuts rows runs of rowLen columns each into gw-wide lane
// groups: row r's run starts at r*stride in the buffer the groups read
// and at column r*rowLen of the product.
func laneGroups(rows, rowLen, stride, gw int) []laneGroup {
	perRow := (rowLen + gw - 1) / gw
	groups := make([]laneGroup, rows*perRow)
	for r := range rows {
		for i := range perRow {
			groups[r*perRow+i] = laneGroup{int32(r*stride + i*gw), int32(r*rowLen + i*gw), int32(min(gw, rowLen-i*gw))}
		}
	}
	return groups
}

// border writes im's zero-bordered copy into the scratch and returns it
// (see bordered).
func (s *GemmScratch) border(p *ConvPlan, im []float32) []float32 {
	return s.bordered(p, im, p.Channels, p.Height, p.Width, p.PadH, p.PadW, p.hp*p.wp)
}

// bordered writes a copy of the (channels, h, w) image src, bordered by ph
// rows above and below and pw columns left and right, into the scratch
// with its channels cs >= (h+2ph)(w+2pw) floats apart, and returns it, a
// lane group of slack included: a ragged last group reads up to gw-1
// floats past a channel's end — into the gap before the next one, or the
// slack after the last — into lanes nobody keeps, so gap and slack only
// have to be there, not to hold anything. The forward's and dW's image
// and dX's dTop share the one buffer: each product borders its operand
// before it reads it.
func (s *GemmScratch) bordered(p *ConvPlan, src []float32, channels, h, w, ph, pw, cs int) []float32 {
	if p.gw != active.gw {
		panic(fmt.Sprintf("blas: ConvPlan built for %d-lane groups, kernel has %d", p.gw, active.gw))
	}
	hp, wp := h+2*ph, w+2*pw
	if need := channels*cs + p.gw; cap(s.img) < need {
		s.img = make([]float32, need)
	}
	dst := s.img[:cap(s.img)]
	if hp == h && wp == w && cs == h*w {
		copy(dst, src[:channels*h*w])
		return dst
	}
	for c := 0; c < channels; c++ {
		d := dst[c*cs : c*cs+hp*wp]
		top := ph*wp + pw // the rows above, and the first row's left border
		clear(d[:top])
		for y := 0; y < h; y++ {
			copy(d[top+y*wp:top+y*wp+w], src[(c*h+y)*w:])
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
	checkPacked(s, "ConvForward", o, ckk, false)
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

// PackBackwardData packs the weights ConvBackwardData reads for channels
// [c0, c1) of p's image, out of the o x Rows weight matrix w, in the
// layout p's dX route for o reads: Wᵀ's rows (c, kh, kw) for c in [c0, c1)
// as PackA(Trans, (c1-c0)*kk, o, w[c0*kk:], p.Rows()) packs them for the
// strips, or, where dX gathers, one gemmMR-tall panel per group of four
// channels and kernel position, positions in (kh, kw) order within a
// group, each the K = o chain of that position's weights (channels past c1
// zero). A band packs once for all its samples; the panels stay valid
// until the next pack on this scratch.
func (s *GemmScratch) PackBackwardData(p *ConvPlan, o int, w []float32, c0, c1 int) {
	kk, ckk := p.KernelH*p.KernelW, p.Rows()
	checkRange("PackBackwardData", p, c0, c1)
	if !p.dataGathers(o) {
		s.PackA(Trans, (c1-c0)*kk, o, w[c0*kk:], ckk)
		return
	}
	checkLen("PackBackwardData w", len(w), o*ckk)
	n := roundUp(c1-c0, gemmMR) * kk * o
	if cap(s.pa) < n {
		s.pa = make([]float32, n)
	}
	s.pa = s.pa[:n]
	d := 0
	for cg := c0; cg < c1; cg += gemmMR {
		for pos := range kk {
			for l := range o {
				for i := range gemmMR {
					v := float32(0)
					if c := cg + i; c < c1 {
						v = w[l*ckk+c*kk+pos]
					}
					s.pa[d] = v
					d++
				}
			}
		}
	}
	s.pm, s.pk, s.pdx = (c1-c0)*kk, o, true
}

// ConvBackwardData computes channels [c0, c1) of one sample's bottom
// gradient dX (Channels x Height x Width; those channels overwritten, the
// rest untouched) = Col2im(Wᵀ · dTop), bit for bit. The weights that feed
// them must have been packed into s with s.PackBackwardData(p, o, w, c0,
// c1).
//
// Where p gathers dX for o (ConvDataGathers), dTop is bordered into the
// scratch and each tile of four channels (eight on a set whose backward
// tiles take two quads) by two lane groups of dX pixels sums its kernel
// positions' K = o chains on the gather-sum kernel and is written once
// (see the file comment for why that is Col2im's sum).
//
// Elsewhere dcol = Wᵀ·dTop (Rows x Cols) is produced gemmMC rows at a
// time into the scratch and each strip is scattered while it is still in
// cache, so the Rows x Cols matrix never exists. The strips go in
// ascending row order, which is the order Col2im adds in: an element of
// dX receives at most one term from each row of dcol, so row order is the
// whole of its summation order, and dX is bit for bit Col2im of the full
// matrix wherever the strips are cut — which is why a channel range,
// whose strips start at row c0*kk, gives the same bits as the whole image.
// Scattering each tile of a product over all kernel positions at once
// instead would add in tile order, rows 4-7 of one block of columns before
// rows 0-3 of the next, and an element fed by both would round
// differently.
func ConvBackwardData(s *GemmScratch, p *ConvPlan, o int, dTop, dX []float32, c0, c1 int) {
	kk, ohw, hw := p.KernelH*p.KernelW, p.Cols(), p.Height*p.Width
	checkRange("ConvBackwardData", p, c0, c1)
	rows, gathers := (c1-c0)*kk, p.dataGathers(o)
	checkPacked(s, "ConvBackwardData", rows, o, gathers)
	checkLen("ConvBackwardData dTop", len(dTop), o*ohw)
	checkLen("ConvBackwardData dX", len(dX), p.Channels*hw)
	if gathers {
		d := s.bordered(p, dTop, o, p.OutH(), p.OutW(), p.KernelH-1-p.PadH, p.KernelW-1-p.PadW, p.dcs)
		s.dataTiles(p, o, d, dX, c0, c1)
		return
	}
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

// dataTiles is the gathered dX route's tile loop: for every pair of lane
// groups (tileGroups) and every mb channels of [c0, c1) (the set's
// backward tile height), the gather-sum kernel over the bordered dTop d,
// then, per quad of four channels, one beta = 0, alpha = 1 writeback per
// group into dX, clipped to the group's pixels and the range's channels.
func (s *GemmScratch) dataTiles(p *ConvPlan, o int, d, dX []float32, c0, c1 int) {
	groups, steps, shifts := p.dx.groups, p.dx.steps[:o], p.shifts
	nr, gw, mb, hw, panel := active.nr, active.gw, active.mb, p.Height*p.Width, gemmMR*len(shifts)*o
	acc := &s.acc
	for gi := 0; gi < len(groups); gi += nr / gw {
		g0, g1, n0, n1 := tileGroups(groups, gi, nr, gw)
		for c := c0; c < c1; c += mb {
			mrr := min(mb, c1-c)
			active.gatherSumKernel(s.pa[(c-c0)/gemmMR*panel:], d, int(g0.base), int(g1.base), steps, shifts, acc)
			for q := 0; q < mrr; q += gemmMR {
				crow, qrr := dX[(c+q)*hw:], min(gemmMR, mrr-q)
				writebackTile(acc[q*nr:], nr, 1, 0, true, nil, crow[g0.col:], hw, qrr, n0)
				if n1 > 0 {
					writebackTile(acc[q*nr+gw:], nr, 1, 0, true, nil, crow[g1.col:], hw, qrr, n1)
				}
			}
		}
	}
}

func checkRange(who string, p *ConvPlan, c0, c1 int) {
	if c0 < 0 || c1 > p.Channels || c0 >= c1 {
		panic(fmt.Sprintf("blas: %s: channel range [%d, %d) of %d", who, c0, c1, p.Channels))
	}
}

// checkPacked panics unless s holds m x k packed weights in the layout
// named by gathered: the gathered dX route's per-position panels, or
// PackA's.
func checkPacked(s *GemmScratch, who string, m, k int, gathered bool) {
	if s.pm != m || s.pk != k || s.pdx != gathered {
		panic(fmt.Sprintf("blas: %s: scratch holds a packed %dx%d A (gathered dX layout: %v), need %dx%d (%v); pack first",
			who, s.pm, s.pk, s.pdx, m, k, gathered))
	}
}

func checkLen(what string, have, need int) {
	if have < need {
		panic(fmt.Sprintf("blas: %s too short: len=%d, need >= %d", what, have, need))
	}
}
