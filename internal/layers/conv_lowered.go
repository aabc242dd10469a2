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
// The channel ranges (ChannelRanger, the Fine engine's axis) cut the same
// three products the other way: forward and dW take a band of W's
// output-channel rows, dX a band of input channels, and every band walks
// all samples. Each row of a blocked GEMM and each channel of dX is
// computed as in the full product, so a channel band's bits are the
// coarse range's bits.

// forwardLowered computes output channels [olo, ohi) of samples [lo, hi):
// W's rows [olo, ohi) are packed once into the band's scratch, then each
// sample is one implicit GEMM with the bias added in its writeback. A
// coarse-grain band is (lo, hi, 0, O), a channel band (0, S, olo, ohi).
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

// backwardLoweredRange computes gradients for samples [lo, hi) via GEMMs:
// dW += dTop·colᵀ (col implicit) and dX = col2im(Wᵀ·dTop) with Wᵀ packed
// once for the band. Parameter gradients accumulate into the (possibly
// privatized) paramGrads blobs.
func (l *Convolution) backwardLoweredRange(lo, hi int, bottom, top *blob.Blob, paramGrads []*blob.Blob) {
	o, ckk := l.cfg.NumOutput, l.plan.Rows()
	gs := blas.GetScratch()
	defer blas.PutScratch(gs)
	if l.propagateDown {
		gs.PackA(blas.Trans, ckk, o, l.params[0].Data(), ckk)
	}
	for s := lo; s < hi; s++ {
		l.paramGradLowered(gs, s, 0, o, bottom, top, paramGrads)
		if l.propagateDown {
			l.dataGradLowered(gs, s, 0, l.channels, bottom, top)
		}
	}
}

// backwardParamLowered is BackwardParamChannels on the lowered kernel:
// dW and db rows [olo, ohi), one product per sample in sample order.
func (l *Convolution) backwardParamLowered(olo, ohi int, bottom, top *blob.Blob) {
	gs := blas.GetScratch()
	defer blas.PutScratch(gs)
	for s := 0; s < l.num; s++ {
		l.paramGradLowered(gs, s, olo, ohi, bottom, top, l.params)
	}
}

// backwardDataLowered is BackwardDataChannels on the lowered kernel:
// input channels [c0, c1) of every sample, packing only those channels'
// rows of Wᵀ.
func (l *Convolution) backwardDataLowered(c0, c1 int, bottom, top *blob.Blob) {
	kk := l.cfg.KernelH * l.cfg.KernelW
	gs := blas.GetScratch()
	defer blas.PutScratch(gs)
	gs.PackA(blas.Trans, (c1-c0)*kk, l.cfg.NumOutput, l.params[0].Data()[c0*kk:], l.plan.Rows())
	for s := 0; s < l.num; s++ {
		l.dataGradLowered(gs, s, c0, c1, bottom, top)
	}
}

// paramGradLowered accumulates sample s's share of weight-gradient rows
// [olo, ohi) and of the matching bias-gradient entries into paramGrads.
func (l *Convolution) paramGradLowered(gs *blas.GemmScratch, s, olo, ohi int, bottom, top *blob.Blob, paramGrads []*blob.Blob) {
	o, ckk, ohw := l.cfg.NumOutput, l.plan.Rows(), l.outH*l.outW
	chw := l.channels * l.height * l.width
	outDiff := top.Diff()[(s*o+olo)*ohw : (s*o+ohi)*ohw]
	blas.ConvBackwardWeights(gs, l.plan, ohi-olo, outDiff, bottom.Data()[s*chw:(s+1)*chw],
		paramGrads[0].Diff()[olo*ckk:ohi*ckk])
	if l.cfg.NoBias {
		return
	}
	bGrad := paramGrads[1].Diff()
	for oc := olo; oc < ohi; oc++ {
		var sum float32
		for _, v := range outDiff[(oc-olo)*ohw : (oc-olo+1)*ohw] {
			sum += v
		}
		bGrad[oc] += sum
	}
}

// dataGradLowered writes channels [c0, c1) of sample s's bottom gradient;
// gs holds those channels' rows of Wᵀ.
func (l *Convolution) dataGradLowered(gs *blas.GemmScratch, s, c0, c1 int, bottom, top *blob.Blob) {
	o, ohw := l.cfg.NumOutput, l.outH*l.outW
	chw := l.channels * l.height * l.width
	blas.ConvBackwardData(gs, l.plan, o, top.Diff()[s*o*ohw:(s+1)*o*ohw],
		bottom.Diff()[s*chw:(s+1)*chw], c0, c1)
}
