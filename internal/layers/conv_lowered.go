package layers

import (
	"sync"

	"coarsegrain/internal/blas"
	"coarsegrain/internal/blob"
)

// The lowered convolution path: Caffe's CPU convolution, one GEMM per
// sample on the im2col matrix of its image (the direct loop nest in
// conv.go models the "research-stage" code the paper's introduction
// motivates). Enable with ConvConfig.Lowered.
//
// The matrix itself is never written: blas.ConvForward and
// blas.ConvBackwardWeights pack the GEMM's panels straight from the image
// (implicit GEMM, blas/conv.go). What a worker privatizes inside a
// coarse-grain region — the "object privatization" step of Algorithm 4
// (line 2) — is therefore one blas.GemmScratch, holding the packed panels
// and the weights packed once for the whole band, plus, in the backward
// pass, the dcol = Wᵀ·dTop matrix that Col2im scatters.

// colBuf wraps one pooled buffer. The pool stores these pointers rather
// than []float32 values: boxing a slice header into the pool's
// interface would allocate on every put, which the serving path's
// zero-alloc steady state (SERVING.md) cannot afford.
type colBuf struct{ data []float32 }

// colBuffers hands out dcol buffers of at least n floats, so each worker
// of a parallel region reuses one without the layer knowing the team size.
type colBuffers struct{ pool sync.Pool }

func (c *colBuffers) get(n int) *colBuf {
	b, _ := c.pool.Get().(*colBuf)
	if b == nil {
		b = &colBuf{}
	}
	if cap(b.data) < n {
		b.data = make([]float32, n)
	}
	b.data = b.data[:n]
	return b
}

func (c *colBuffers) put(b *colBuf) { c.pool.Put(b) }

// forwardLoweredRange computes samples [lo, hi): W is packed once into
// the band's scratch, then each sample is one implicit GEMM with the bias
// added in its writeback.
func (l *Convolution) forwardLoweredRange(lo, hi int, bottom, top *blob.Blob) {
	o := l.cfg.NumOutput
	ckk, ohw := l.geom.Rows(), l.outH*l.outW
	chw := l.channels * l.height * l.width
	var bias []float32
	if !l.cfg.NoBias {
		bias = l.params[1].Data()
	}
	gs := blas.GetScratch()
	defer blas.PutScratch(gs)
	gs.PackA(blas.NoTrans, o, ckk, l.params[0].Data(), ckk)
	for s := lo; s < hi; s++ {
		blas.ConvForward(gs, &l.geom, o, bottom.Data()[s*chw:(s+1)*chw], bias,
			top.Data()[s*o*ohw:(s+1)*o*ohw])
	}
}

// backwardLoweredRange computes gradients for samples [lo, hi) via GEMMs:
// dW += dTop·colᵀ (col implicit), dcol = Wᵀ·dTop with Wᵀ packed once for
// the band, then col2im scatters dcol into the bottom gradient. Parameter
// gradients accumulate into the (possibly privatized) paramGrads blobs.
func (l *Convolution) backwardLoweredRange(lo, hi int, bottom, top *blob.Blob, paramGrads []*blob.Blob) {
	o := l.cfg.NumOutput
	ckk, ohw := l.geom.Rows(), l.outH*l.outW
	chw := l.channels * l.height * l.width
	wGrad := paramGrads[0].Diff()
	var bGrad []float32
	if !l.cfg.NoBias {
		bGrad = paramGrads[1].Diff()
	}
	gs := blas.GetScratch()
	defer blas.PutScratch(gs)
	var dcol []float32
	if l.propagateDown {
		dcb := l.cols.get(ckk * ohw)
		defer l.cols.put(dcb)
		dcol = dcb.data
		gs.PackA(blas.Trans, ckk, o, l.params[0].Data(), ckk)
	}
	for s := lo; s < hi; s++ {
		outDiff := top.Diff()[s*o*ohw : (s+1)*o*ohw]
		blas.ConvBackwardWeights(gs, &l.geom, o, outDiff, bottom.Data()[s*chw:(s+1)*chw], wGrad)
		if bGrad != nil {
			for oc := 0; oc < o; oc++ {
				var sum float32
				for _, v := range outDiff[oc*ohw : (oc+1)*ohw] {
					sum += v
				}
				bGrad[oc] += sum
			}
		}
		if !l.propagateDown {
			continue
		}
		blas.ConvBackwardCol(gs, &l.geom, o, outDiff, dcol)
		inDiff := bottom.Diff()[s*chw : (s+1)*chw]
		for i := range inDiff {
			inDiff[i] = 0
		}
		blas.Col2im(dcol, l.channels, l.height, l.width, l.cfg.KernelH, l.cfg.KernelW,
			l.cfg.PadH, l.cfg.PadW, l.cfg.StrideH, l.cfg.StrideW, inDiff)
	}
}
