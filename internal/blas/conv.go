package blas

import "fmt"

// This file is the lowered convolution as an implicit GEMM: the three
// products Caffe's im2col+GEMM convolution issues per sample,
//
//	top   (O x ohw)   = W (O x ckk) · col (ckk x ohw) + bias     ConvForward
//	dW    (O x ckk)  += dTop (O x ohw) · colᵀ (ohw x ckk)        ConvBackwardWeights
//	dcol  (ckk x ohw) = Wᵀ (ckk x O) · dTop (O x ohw)            ConvBackwardCol
//
// run on the blocked kernel of gemm_blocked.go with col = Im2col(im)
// never written: the B micro-panels the kernel multiplies are packed
// straight from the (C,H,W) image (cuDNN's central trick — form the
// lowered tile inside the operand load). Same gemmKC blocking, same
// micro-kernel, same writebackTile as a dense Gemm on a materialised col,
// and the packed panels hold the same values, so each product is bit for
// bit Im2col followed by the blocked Gemm (TestConvMatchesIm2colGemm) and
// inherits the band-invariance contract.
//
// The weights are the A operand of the first and last product and do not
// change across the samples of a batch band, so the caller packs them
// once per band with GemmScratch.PackA and every sample reuses the panels.

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

// packBConv is packB for op(B) = the lowered matrix of im: rows
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

// packBConvT is packB for op(B) = the transposed lowered matrix of im:
// op(B)[l, j] = col[j, l], so a micro-panel's column is a stretch of one
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

// ConvForward computes out (o x Cols) = W · lowered(im) for one sample,
// plus bias[i] on row i when bias is non-nil. W must have been packed
// into s with s.PackA(NoTrans, o, g.Rows(), w, g.Rows()).
func ConvForward(s *GemmScratch, g *ConvGeom, o int, im, bias, out []float32) {
	ckk, ohw := g.Rows(), g.Cols()
	checkPacked(s, "ConvForward", o, ckk)
	checkLen("ConvForward im", len(im), g.Channels*g.Height*g.Width)
	checkLen("ConvForward out", len(out), o*ohw)
	if bias != nil {
		checkLen("ConvForward bias", len(bias), o)
	}
	gemmBlocked(s, &gemmOp{n: ohw, k: ckk, alpha: 1, b: im, conv: g,
		c: out, ldc: ohw, bias: bias}, 0, o)
}

// ConvBackwardWeights accumulates one sample's weight gradient:
// wGrad (o x Rows) += dTop (o x Cols) · lowered(im)ᵀ.
func ConvBackwardWeights(s *GemmScratch, g *ConvGeom, o int, dTop, im, wGrad []float32) {
	ckk, ohw := g.Rows(), g.Cols()
	checkLen("ConvBackwardWeights dTop", len(dTop), o*ohw)
	checkLen("ConvBackwardWeights im", len(im), g.Channels*g.Height*g.Width)
	checkLen("ConvBackwardWeights wGrad", len(wGrad), o*ckk)
	gemmBlocked(s, &gemmOp{transB: Trans, n: ckk, k: ohw, alpha: 1, beta: 1,
		a: dTop, lda: ohw, b: im, conv: g, c: wGrad, ldc: ckk}, 0, o)
}

// ConvBackwardCol computes dcol (Rows x Cols) = Wᵀ · dTop for one sample,
// the matrix Col2im scatters into the bottom gradient. Wᵀ must have been
// packed into s with s.PackA(Trans, g.Rows(), o, w, g.Rows()).
func ConvBackwardCol(s *GemmScratch, g *ConvGeom, o int, dTop, dcol []float32) {
	ckk, ohw := g.Rows(), g.Cols()
	checkPacked(s, "ConvBackwardCol", ckk, o)
	checkLen("ConvBackwardCol dTop", len(dTop), o*ohw)
	checkLen("ConvBackwardCol dcol", len(dcol), ckk*ohw)
	gemmBlocked(s, &gemmOp{n: ohw, k: o, alpha: 1, b: dTop, ldb: ohw,
		c: dcol, ldc: ohw}, 0, ckk)
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
