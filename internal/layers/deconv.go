package layers

import (
	"fmt"

	"coarsegrain/internal/blas"
	"coarsegrain/internal/blob"
)

// Deconvolution (transposed convolution) upsamples its input: each input
// pixel scatters a kernel-shaped patch into the output,
//
//	outH = (inH-1)*stride - 2*pad + kernel,
//
// the building block of the deconvolutional visualization networks the
// paper cites ([26], Zeiler & Fergus) and of fully-convolutional decoders
// — exactly the kind of "research-stage" layer the network-agnostic
// argument is about: no optimized library kernel existed for it, yet the
// coarse engine parallelizes it through the generic contract.
//
// It is Convolution's adjoint and runs on the same three lowered products
// with their roles swapped, as Caffe's DeconvolutionLayer does. The weight
// blob has Caffe's deconvolution shape (C_in, C_out, KH, KW), which read
// as a C_in x (C_out*KH*KW) matrix is the weight matrix of a convolution
// from C_out channels to C_in; plan is that convolution, over this layer's
// output geometry, so its output is this layer's input (OutH x OutW is
// H x W). Then, per sample,
//
//	y  = Col2im(Wᵀ·x) + b     blas.ConvBackwardData, then the bias
//	dW += x · lowered(dy)ᵀ    blas.ConvBackwardWeights, x in dTop's place
//	dx = W · lowered(dy)      blas.ConvForward of dy
//	db += Σ dy
//
// Both passes coalesce over samples: the forward scatter touches every
// output channel of a sample (so one sample is the race-free unit), and
// the backward gather likewise couples all input channels.
type Deconvolution struct {
	base
	cfg ConvConfig

	num, channels int
	plan          *blas.ConvPlan // the adjoint convolution: output geometry -> input

	propagateDown bool
}

// NewDeconvolution creates a transposed-convolution layer. NumOutput is
// the output channel count; Kernel/Stride/Pad follow ConvConfig rules.
func NewDeconvolution(name string, cfg ConvConfig) (*Deconvolution, error) {
	if err := cfg.normalize(); err != nil {
		return nil, fmt.Errorf("layer %s: %w", name, err)
	}
	return &Deconvolution{
		base:          base{name: name, typ: "Deconvolution"},
		cfg:           cfg,
		propagateDown: !cfg.DisablePropagation,
	}, nil
}

// SetPropagateDown implements the optional propagation control.
func (l *Deconvolution) SetPropagateDown(flags []bool) {
	if len(flags) > 0 {
		l.propagateDown = flags[0]
	}
}

// SetUp implements Layer.
func (l *Deconvolution) SetUp(bottom, top []*blob.Blob) error {
	if err := checkBottomTop(l, bottom, top, 1, 1); err != nil {
		return err
	}
	if bottom[0].AxisCount() != 4 {
		return fmt.Errorf("layer %s: deconvolution needs a 4-D bottom, got %v", l.name, bottom[0].Shape())
	}
	c := bottom[0].Channels()
	weights := blob.Named(l.name+"_w", c, l.cfg.NumOutput, l.cfg.KernelH, l.cfg.KernelW)
	l.cfg.WeightFiller.Fill(weights, l.cfg.RNG)
	l.params = []*blob.Blob{weights}
	if !l.cfg.NoBias {
		bias := blob.Named(l.name+"_b", l.cfg.NumOutput)
		l.cfg.BiasFiller.Fill(bias, l.cfg.RNG)
		l.params = append(l.params, bias)
	}
	l.Reshape(bottom, top)
	return nil
}

// Reshape implements Layer.
func (l *Deconvolution) Reshape(bottom, top []*blob.Blob) {
	b := bottom[0]
	l.num, l.channels = b.Num(), b.Channels()
	outH := (b.Height()-1)*l.cfg.StrideH - 2*l.cfg.PadH + l.cfg.KernelH
	outW := (b.Width()-1)*l.cfg.StrideW - 2*l.cfg.PadW + l.cfg.KernelW
	if outH <= 0 || outW <= 0 {
		panic(fmt.Sprintf("layer %s: output size %dx%d not positive", l.name, outH, outW))
	}
	geom := blas.ConvGeom{Channels: l.cfg.NumOutput, Height: outH, Width: outW,
		KernelH: l.cfg.KernelH, KernelW: l.cfg.KernelW, PadH: l.cfg.PadH, PadW: l.cfg.PadW,
		StrideH: l.cfg.StrideH, StrideW: l.cfg.StrideW}
	if l.plan == nil || l.plan.ConvGeom != geom {
		l.plan = blas.NewConvPlan(geom)
	}
	top[0].Reshape(l.num, l.cfg.NumOutput, outH, outW)
}

// ForwardExtent implements Layer: one sample per iteration (the scatter
// writes to every output channel of the sample).
func (l *Deconvolution) ForwardExtent() int { return l.num }

// ForwardRange implements Layer.
func (l *Deconvolution) ForwardRange(lo, hi int, bottom, top []*blob.Blob) {
	o, ckk := l.cfg.NumOutput, l.plan.Rows()
	chw, ohw := l.channels*l.plan.Cols(), l.plan.Height*l.plan.Width
	gs := blas.GetScratch()
	defer blas.PutScratch(gs)
	gs.PackA(blas.Trans, ckk, l.channels, l.params[0].Data(), ckk)
	for s := lo; s < hi; s++ {
		out := top[0].Data()[s*o*ohw : (s+1)*o*ohw]
		blas.ConvBackwardData(gs, l.plan, l.channels, bottom[0].Data()[s*chw:(s+1)*chw], out, 0, o)
		if !l.cfg.NoBias {
			for co, b := range l.params[1].Data() {
				blas.AddScalar(out[co*ohw:(co+1)*ohw], b)
			}
		}
	}
}

// BackwardExtent implements Layer.
func (l *Deconvolution) BackwardExtent() int { return l.num }

// BackwardRange implements Layer: the weight gradient is the adjoint
// convolution's with x as its top gradient and dy as its image, and the
// input gradient is the adjoint convolution's forward pass over dy.
func (l *Deconvolution) BackwardRange(lo, hi int, bottom, top []*blob.Blob, paramGrads []*blob.Blob) {
	o, ckk := l.cfg.NumOutput, l.plan.Rows()
	chw, ohw := l.channels*l.plan.Cols(), l.plan.Height*l.plan.Width
	gs := blas.GetScratch()
	defer blas.PutScratch(gs)
	if l.propagateDown {
		gs.PackA(blas.NoTrans, l.channels, ckk, l.params[0].Data(), ckk)
	}
	for s := lo; s < hi; s++ {
		outDiff := top[0].Diff()[s*o*ohw : (s+1)*o*ohw]
		blas.ConvBackwardWeights(gs, l.plan, l.channels, bottom[0].Data()[s*chw:(s+1)*chw], outDiff, paramGrads[0].Diff())
		if !l.cfg.NoBias {
			addRowSums(paramGrads[1].Diff(), outDiff, ohw)
		}
		if l.propagateDown {
			blas.ConvForward(gs, l.plan, l.channels, outDiff, nil, bottom[0].Diff()[s*chw:(s+1)*chw])
		}
	}
}
