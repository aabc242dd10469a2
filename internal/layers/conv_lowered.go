package layers

import (
	"coarsegrain/internal/blas"
	"coarsegrain/internal/blob"
)

// The lowered convolution path: Caffe's CPU convolution, one GEMM per
// sample on the im2col matrix of its image (the direct loop nest in
// conv.go models the "research-stage" code the paper's introduction
// motivates). Enable with ConvConfig.Lowered.
//
// Neither the matrix nor its gradient is ever written: blas.ConvForward
// and blas.ConvBackwardWeights read the GEMM's B operand out of the image
// (blas/conv.go) and blas.ConvBackwardData scatters dcol = Wᵀ·dTop into
// the bottom gradient a cache-sized strip at a time. What a worker
// privatizes inside a coarse-grain region — the "object privatization"
// step of Algorithm 4 (line 2) — is therefore one blas.GemmScratch,
// holding the weights packed once for the whole band, one bordered image
// and one strip.

// forwardLoweredRange computes samples [lo, hi): W is packed once into
// the band's scratch, then each sample is one implicit GEMM with the bias
// added in its writeback.
func (l *Convolution) forwardLoweredRange(lo, hi int, bottom, top *blob.Blob) {
	o := l.cfg.NumOutput
	ckk, ohw := l.plan.Rows(), l.outH*l.outW
	chw := l.channels * l.height * l.width
	var bias []float32
	if !l.cfg.NoBias {
		bias = l.params[1].Data()
	}
	gs := blas.GetScratch()
	defer blas.PutScratch(gs)
	gs.PackA(blas.NoTrans, o, ckk, l.params[0].Data(), ckk)
	for s := lo; s < hi; s++ {
		blas.ConvForward(gs, l.plan, o, bottom.Data()[s*chw:(s+1)*chw], bias,
			top.Data()[s*o*ohw:(s+1)*o*ohw])
	}
}

// backwardLoweredRange computes gradients for samples [lo, hi) via GEMMs:
// dW += dTop·colᵀ (col implicit) and dX = col2im(Wᵀ·dTop) with Wᵀ packed
// once for the band. Parameter gradients accumulate into the (possibly
// privatized) paramGrads blobs.
func (l *Convolution) backwardLoweredRange(lo, hi int, bottom, top *blob.Blob, paramGrads []*blob.Blob) {
	o := l.cfg.NumOutput
	ckk, ohw := l.plan.Rows(), l.outH*l.outW
	chw := l.channels * l.height * l.width
	wGrad := paramGrads[0].Diff()
	var bGrad []float32
	if !l.cfg.NoBias {
		bGrad = paramGrads[1].Diff()
	}
	gs := blas.GetScratch()
	defer blas.PutScratch(gs)
	if l.propagateDown {
		gs.PackA(blas.Trans, ckk, o, l.params[0].Data(), ckk)
	}
	for s := lo; s < hi; s++ {
		outDiff := top.Diff()[s*o*ohw : (s+1)*o*ohw]
		blas.ConvBackwardWeights(gs, l.plan, o, outDiff, bottom.Data()[s*chw:(s+1)*chw], wGrad)
		if bGrad != nil {
			for oc := 0; oc < o; oc++ {
				var sum float32
				for _, v := range outDiff[oc*ohw : (oc+1)*ohw] {
					sum += v
				}
				bGrad[oc] += sum
			}
		}
		if l.propagateDown {
			blas.ConvBackwardData(gs, l.plan, o, outDiff, bottom.Diff()[s*chw:(s+1)*chw])
		}
	}
}
