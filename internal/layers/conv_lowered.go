package layers

import (
	"coarsegrain/internal/blas"
	"coarsegrain/internal/blob"
)

// The lowered convolution path: Caffe's CPU convolution, one GEMM per
// sample on the im2col matrix of its image (the direct loop nest in
// conv.go models the "research-stage" code the paper's introduction
// motivates). Enable with ConvConfig.Lowered; it applies under every
// engine.
//
// Neither the matrix nor its gradient is ever written: blas.ConvForward
// and blas.ConvBackwardWeights read the lowered matrix out of the image
// (blas/conv.go), and blas.ConvBackwardData either sums dX's kernel
// positions straight out of a bordered dTop or scatters dcol = Wᵀ·dTop
// into the bottom gradient a cache-sized strip at a time
// (blas.ConvDataGathers picks). What a worker privatizes inside a
// coarse-grain region — the "object privatization" step of Algorithm 4
// (line 2) — is therefore one blas.GemmScratch, holding the weights packed
// once for the whole band, one bordered image (or dTop) and one strip.
//
// Each pass is one body over a (sample range × channel range) rectangle.
// A coarse-grain range is a band of samples with every channel; a channel
// range (ChannelRanger, the Fine engine's axis) is every sample with a
// band of W's output-channel rows (forward, dW) or of input channels
// (dX). Each row of a blocked GEMM and each channel of dX is computed as
// in the full product, so a channel band's bits are the coarse range's
// bits.

// forwardLowered computes output channels [olo, ohi) of samples [lo, hi):
// W's rows [olo, ohi) are packed once into the band's scratch, then each
// sample is one implicit GEMM with the bias added in its writeback.
func (l *Convolution) forwardLowered(lo, hi, olo, ohi int, bottom, top *blob.Blob) {
	o, rows := l.cfg.NumOutput, ohi-olo
	ckk, ohw := l.plan.Rows(), l.outH*l.outW
	chw := l.channels * l.height * l.width
	var bias []float32
	if !l.cfg.NoBias {
		bias = l.params[1].Data()[olo:ohi]
	}
	gs := blas.GetScratch()
	defer blas.PutScratch(gs)
	gs.PackA(blas.NoTrans, rows, ckk, l.params[0].Data()[olo*ckk:], ckk)
	for s := lo; s < hi; s++ {
		blas.ConvForward(gs, l.plan, rows, bottom.Data()[s*chw:(s+1)*chw], bias,
			top.Data()[(s*o+olo)*ohw:(s*o+ohi)*ohw])
	}
}

// backwardLowered computes the gradients of samples [slo, shi): rows
// [olo, ohi) of dW += dTop·colᵀ (col implicit) and of db accumulate into
// grads, and input channels [clo, chi) of dX = col2im(Wᵀ·dTop) are
// written. The weights feeding those channels are packed once for the
// band, in the layout the plan's dX route reads; then each sample does its
// dW product, then its dX product. An empty range skips its product.
func (l *Convolution) backwardLowered(slo, shi, olo, ohi, clo, chi int, bottom, top *blob.Blob, grads []*blob.Blob) {
	o, ckk, ohw := l.cfg.NumOutput, l.plan.Rows(), l.outH*l.outW
	chw := l.channels * l.height * l.width
	gs := blas.GetScratch()
	defer blas.PutScratch(gs)
	if clo < chi {
		gs.PackBackwardData(l.plan, o, l.params[0].Data(), clo, chi)
	}
	for s := slo; s < shi; s++ {
		dTop := top.Diff()[s*o*ohw : (s+1)*o*ohw]
		if olo < ohi {
			blas.ConvBackwardWeights(gs, l.plan, ohi-olo, dTop[olo*ohw:ohi*ohw],
				bottom.Data()[s*chw:(s+1)*chw], grads[0].Diff()[olo*ckk:ohi*ckk])
			if !l.cfg.NoBias {
				addRowSums(grads[1].Diff()[olo:ohi], dTop[olo*ohw:ohi*ohw], ohw)
			}
		}
		if clo < chi {
			blas.ConvBackwardData(gs, l.plan, o, dTop, bottom.Diff()[s*chw:(s+1)*chw], clo, chi)
		}
	}
}

// addRowSums adds the sum of each cols-wide row of m to the matching
// entry of dst, summing a row left to right: the bias gradient of one
// sample, one row per output channel. Four rows go at once, each in its
// own accumulator, so the four dependency chains of adds overlap instead
// of one row's chain running end to end before the next starts; every
// row's sum is still its left-to-right sum.
func addRowSums(dst, m []float32, cols int) {
	i := 0
	for ; i+4 <= len(dst); i += 4 {
		r0 := m[i*cols : (i+1)*cols]
		r1 := m[(i+1)*cols : (i+2)*cols][:len(r0)]
		r2 := m[(i+2)*cols : (i+3)*cols][:len(r0)]
		r3 := m[(i+3)*cols : (i+4)*cols][:len(r0)]
		var s0, s1, s2, s3 float32
		for j, v := range r0 {
			s0 += v
			s1 += r1[j]
			s2 += r2[j]
			s3 += r3[j]
		}
		dst[i] += s0
		dst[i+1] += s1
		dst[i+2] += s2
		dst[i+3] += s3
	}
	for ; i < len(dst); i++ {
		var sum float32
		for _, v := range m[i*cols : (i+1)*cols] {
			sum += v
		}
		dst[i] += sum
	}
}
