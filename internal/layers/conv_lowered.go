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
// and blas.ConvBackwardWeights read the GEMM's B operand out of the image
// (blas/conv.go) and blas.ConvBackwardData scatters dcol = Wᵀ·dTop into
// the bottom gradient a cache-sized strip at a time. What a worker
// privatizes inside a coarse-grain region — the "object privatization"
// step of Algorithm 4 (line 2) — is therefore one blas.GemmScratch,
// holding the weights packed once for the whole band, one bordered image
// and one strip.
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
// written. The rows of Wᵀ feeding those channels are packed once for the
// band; then each sample does its dW product, then its dX product. An
// empty range skips its product.
func (l *Convolution) backwardLowered(slo, shi, olo, ohi, clo, chi int, bottom, top *blob.Blob, grads []*blob.Blob) {
	o, ckk, ohw := l.cfg.NumOutput, l.plan.Rows(), l.outH*l.outW
	kk, chw := l.cfg.KernelH*l.cfg.KernelW, l.channels*l.height*l.width
	gs := blas.GetScratch()
	defer blas.PutScratch(gs)
	if clo < chi {
		gs.PackA(blas.Trans, (chi-clo)*kk, o, l.params[0].Data()[clo*kk:], ckk)
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
// sample, one row per output channel.
func addRowSums(dst, m []float32, cols int) {
	for i := range dst {
		var sum float32
		for _, v := range m[i*cols : (i+1)*cols] {
			sum += v
		}
		dst[i] += sum
	}
}
