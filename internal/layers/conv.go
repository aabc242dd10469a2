package layers

import (
	"fmt"

	"coarsegrain/internal/blas"
	"coarsegrain/internal/blob"
	"coarsegrain/internal/rng"
)

// ConvConfig configures a Convolution layer. Kernel is required; Pad and
// Stride default to 0 and 1. Per-axis values (KernelH...) override the
// square settings when non-zero.
type ConvConfig struct {
	NumOutput          int
	Kernel             int
	KernelH, KernelW   int
	Pad                int
	PadH, PadW         int
	Stride             int
	StrideH, StrideW   int
	NoBias             bool // disable the bias term
	WeightFiller       Filler
	BiasFiller         Filler
	RNG                *rng.RNG
	DisablePropagation bool // skip gradient w.r.t. bottom (first conv after data)
	// Lowered selects the im2col+GEMM implementation (Caffe's CPU path,
	// the cuDNN analogue) instead of the direct loop nest, under every
	// engine: the coarse unit becomes one sample, a Fine band a run of
	// output channels, and each worker privatizes a GEMM scratch, not a
	// column matrix — the lowering happens inside the GEMM (see
	// conv_lowered.go). Deconvolution ignores it: it always runs on the
	// lowered products.
	Lowered bool
}

func (c *ConvConfig) normalize() error {
	if c.NumOutput <= 0 {
		return fmt.Errorf("convolution: NumOutput must be positive, got %d", c.NumOutput)
	}
	if c.KernelH == 0 {
		c.KernelH = c.Kernel
	}
	if c.KernelW == 0 {
		c.KernelW = c.Kernel
	}
	if c.KernelH <= 0 || c.KernelW <= 0 {
		return fmt.Errorf("convolution: kernel size must be positive, got %dx%d", c.KernelH, c.KernelW)
	}
	if c.PadH == 0 {
		c.PadH = c.Pad
	}
	if c.PadW == 0 {
		c.PadW = c.Pad
	}
	if c.StrideH == 0 {
		c.StrideH = c.Stride
	}
	if c.StrideW == 0 {
		c.StrideW = c.Stride
	}
	if c.StrideH == 0 {
		c.StrideH = 1
	}
	if c.StrideW == 0 {
		c.StrideW = 1
	}
	if c.WeightFiller == nil {
		c.WeightFiller = XavierFiller{}
	}
	if c.BiasFiller == nil {
		c.BiasFiller = ConstantFiller{}
	}
	if c.RNG == nil {
		c.RNG = rng.New(1, 1)
	}
	return nil
}

// Convolution is a 2-D convolutional layer (feature learning, §2.2.1).
//
// The sequential/coarse-grain implementation is the direct loop nest of
// Algorithm 2: the forward pass coalesces the two outermost loops (sample,
// output channel) and computes each output feature map independently; the
// backward pass coalesces over samples only, because the gradient with
// respect to the input accumulates contributions from all output channels
// of the same sample and must stay within one worker to remain race-free.
//
// With ConvConfig.Lowered the same passes run as im2col+GEMM instead
// (conv_lowered.go), under the coarse and the Fine engine alike. Both
// kernels are also ChannelRangers: the Fine engine cuts output channels
// (forward, dW) and input channels (dX) instead of samples. Each kernel
// writes a pass once and both cuts call it: forwardOne or forwardLowered,
// backwardDirect (dW, and dX in the same traversal) or backwardLowered.
// The direct kernel's channel-cut dX alone has a nest of its own, with
// the input-channel loop outermost.
type Convolution struct {
	base
	cfg ConvConfig

	// Cached geometry, valid after SetUp/Reshape.
	num, channels, height, width int
	outH, outW                   int
	plan                         *blas.ConvPlan // the same, with the lowered path's gather tables

	propagateDown bool
}

// NewConvolution creates a convolution layer. It returns an error for
// invalid configurations.
func NewConvolution(name string, cfg ConvConfig) (*Convolution, error) {
	if err := cfg.normalize(); err != nil {
		return nil, fmt.Errorf("layer %s: %w", name, err)
	}
	return &Convolution{
		base:          base{name: name, typ: "Convolution"},
		cfg:           cfg,
		propagateDown: !cfg.DisablePropagation,
	}, nil
}

// Geom returns the layer's per-sample geometry (valid after SetUp).
func (l *Convolution) Geom() blas.ConvGeom { return l.plan.ConvGeom }

// Lowered reports whether the layer runs as the implicit GEMM
// (ConvConfig.Lowered) rather than the direct loop nest.
func (l *Convolution) Lowered() bool { return l.cfg.Lowered }

// SetPropagateDown lets the net disable the input-gradient computation
// when the bottom blob needs no gradient (e.g. it comes from a data layer).
func (l *Convolution) SetPropagateDown(flags []bool) {
	if len(flags) > 0 {
		l.propagateDown = flags[0]
	}
}

// SetUp implements Layer.
func (l *Convolution) SetUp(bottom, top []*blob.Blob) error {
	if err := checkBottomTop(l, bottom, top, 1, 1); err != nil {
		return err
	}
	if bottom[0].AxisCount() != 4 {
		return fmt.Errorf("layer %s: convolution needs a 4-D bottom, got %v", l.name, bottom[0].Shape())
	}
	c := bottom[0].Channels()
	weights := blob.Named(l.name+"_w", l.cfg.NumOutput, c, l.cfg.KernelH, l.cfg.KernelW)
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
func (l *Convolution) Reshape(bottom, top []*blob.Blob) {
	b := bottom[0]
	l.num, l.channels, l.height, l.width = b.Num(), b.Channels(), b.Height(), b.Width()
	if l.channels != l.params[0].Dim(1) {
		panic(fmt.Sprintf("layer %s: channel count changed from %d to %d", l.name, l.params[0].Dim(1), l.channels))
	}
	geom := blas.ConvGeom{Channels: l.channels, Height: l.height, Width: l.width,
		KernelH: l.cfg.KernelH, KernelW: l.cfg.KernelW, PadH: l.cfg.PadH, PadW: l.cfg.PadW,
		StrideH: l.cfg.StrideH, StrideW: l.cfg.StrideW}
	if l.plan == nil || l.plan.ConvGeom != geom { // a batch-size Reshape keeps the plan
		l.plan = blas.NewConvPlan(geom)
	}
	l.outH, l.outW = geom.OutH(), geom.OutW()
	if l.outH <= 0 || l.outW <= 0 {
		panic(fmt.Sprintf("layer %s: output size %dx%d not positive", l.name, l.outH, l.outW))
	}
	top[0].Reshape(l.num, l.cfg.NumOutput, l.outH, l.outW)
}

// ForwardExtent implements Layer: in the direct implementation the
// (sample, output-channel) loops are coalesced, giving S*O small work
// units (Algorithm 4's civ loop); the lowered implementation's unit is one
// im2col'd sample, so its extent is S.
func (l *Convolution) ForwardExtent() int {
	if l.cfg.Lowered {
		return l.num
	}
	return l.num * l.cfg.NumOutput
}

// ForwardRange implements Layer.
func (l *Convolution) ForwardRange(lo, hi int, bottom, top []*blob.Blob) {
	if l.cfg.Lowered {
		l.forwardLowered(lo, hi, 0, l.cfg.NumOutput, bottom[0], top[0])
		return
	}
	for civ := lo; civ < hi; civ++ {
		s := civ / l.cfg.NumOutput
		o := civ % l.cfg.NumOutput
		l.forwardOne(s, o, bottom[0], top[0])
	}
}

// forwardOne computes output feature map o of sample s by direct
// convolution.
func (l *Convolution) forwardOne(s, o int, bottom, top *blob.Blob) {
	kh, kw := l.cfg.KernelH, l.cfg.KernelW
	ph, pw := l.cfg.PadH, l.cfg.PadW
	sh, sw := l.cfg.StrideH, l.cfg.StrideW
	in := bottom.Data()[s*l.channels*l.height*l.width:]
	w := l.params[0].Data()[o*l.channels*kh*kw:]
	out := top.Data()[(s*l.cfg.NumOutput+o)*l.outH*l.outW:]
	var biasVal float32
	if !l.cfg.NoBias {
		biasVal = l.params[1].Data()[o]
	}
	for oh := 0; oh < l.outH; oh++ {
		for ow := 0; ow < l.outW; ow++ {
			acc := biasVal
			for c := 0; c < l.channels; c++ {
				chIn := in[c*l.height*l.width:]
				chW := w[c*kh*kw:]
				for ki := 0; ki < kh; ki++ {
					ih := oh*sh - ph + ki
					if ih < 0 || ih >= l.height {
						continue
					}
					rowIn := chIn[ih*l.width:]
					rowW := chW[ki*kw:]
					for kj := 0; kj < kw; kj++ {
						iw := ow*sw - pw + kj
						if iw < 0 || iw >= l.width {
							continue
						}
						acc += rowW[kj] * rowIn[iw]
					}
				}
			}
			out[oh*l.outW+ow] = acc
		}
	}
}

// BackwardExtent implements Layer: backward coalesces over samples only —
// all output channels of a sample contribute to the same input-gradient
// region, so a sample is the smallest race-free unit.
func (l *Convolution) BackwardExtent() int { return l.num }

// BackwardRange implements Layer: every output channel's dW and db, and
// the whole dX when it propagates, of samples [lo, hi).
func (l *Convolution) BackwardRange(lo, hi int, bottom, top []*blob.Blob, paramGrads []*blob.Blob) {
	if l.cfg.Lowered {
		_, in := l.ChannelExtents()
		l.backwardLowered(lo, hi, 0, l.cfg.NumOutput, 0, in, bottom[0], top[0], paramGrads)
		return
	}
	l.backwardDirect(lo, hi, 0, l.cfg.NumOutput, l.propagateDown, bottom[0], top[0], paramGrads)
}

// backwardDirect is the direct kernel's dW loop nest: rows [olo, ohi) of
// the weight gradient and the matching bias entries accumulate into grads
// over samples [slo, shi), each summed over (sample, output position).
// With dX set it also writes each sample's whole bottom gradient in the
// same pass, every nonzero output gradient feeding both products, so the
// range must then cover all output channels. A zero output gradient (as
// ReLU leaves them) is skipped: it adds nothing to either.
func (l *Convolution) backwardDirect(slo, shi, olo, ohi int, dX bool, bottom, top *blob.Blob, grads []*blob.Blob) {
	kh, kw := l.cfg.KernelH, l.cfg.KernelW
	ph, pw := l.cfg.PadH, l.cfg.PadW
	sh, sw := l.cfg.StrideH, l.cfg.StrideW
	chw := l.channels * l.height * l.width
	wData := l.params[0].Data()
	wGrad := grads[0].Diff()
	var bGrad []float32
	if !l.cfg.NoBias {
		bGrad = grads[1].Diff()
	}
	for s := slo; s < shi; s++ {
		in := bottom.Data()[s*chw : (s+1)*chw]
		var inDiff []float32
		if dX {
			inDiff = bottom.Diff()[s*chw : (s+1)*chw]
			clear(inDiff)
		}
		for o := olo; o < ohi; o++ {
			outDiff := top.Diff()[(s*l.cfg.NumOutput+o)*l.outH*l.outW:]
			ow0 := o * l.channels * kh * kw
			for oh := 0; oh < l.outH; oh++ {
				for ow := 0; ow < l.outW; ow++ {
					g := outDiff[oh*l.outW+ow]
					if g == 0 {
						continue
					}
					if bGrad != nil {
						bGrad[o] += g
					}
					for c := 0; c < l.channels; c++ {
						cw0 := ow0 + c*kh*kw
						ci0 := c * l.height * l.width
						for ki := 0; ki < kh; ki++ {
							ih := oh*sh - ph + ki
							if ih < 0 || ih >= l.height {
								continue
							}
							for kj := 0; kj < kw; kj++ {
								iw := ow*sw - pw + kj
								if iw < 0 || iw >= l.width {
									continue
								}
								widx := cw0 + ki*kw + kj
								iidx := ci0 + ih*l.width + iw
								wGrad[widx] += g * in[iidx]
								if dX {
									inDiff[iidx] += g * wData[widx]
								}
							}
						}
					}
				}
			}
		}
	}
}

// ChannelExtents implements ChannelRanger: output channels, and input
// channels when the bottom gradient propagates.
func (l *Convolution) ChannelExtents() (out, in int) {
	if l.propagateDown {
		in = l.channels
	}
	return l.cfg.NumOutput, in
}

// ForwardChannels implements ChannelRanger: output channels [olo, ohi) of
// every sample.
func (l *Convolution) ForwardChannels(olo, ohi int, bottom, top []*blob.Blob) {
	if l.cfg.Lowered {
		l.forwardLowered(0, l.num, olo, ohi, bottom[0], top[0])
		return
	}
	for s := 0; s < l.num; s++ {
		for o := olo; o < ohi; o++ {
			l.forwardOne(s, o, bottom[0], top[0])
		}
	}
}

// BackwardParamChannels implements ChannelRanger: rows [olo, ohi) of the
// weight gradient and the matching bias entries over every sample.
func (l *Convolution) BackwardParamChannels(olo, ohi int, bottom, top []*blob.Blob) {
	if l.cfg.Lowered {
		l.backwardLowered(0, l.num, olo, ohi, 0, 0, bottom[0], top[0], l.params)
		return
	}
	l.backwardDirect(0, l.num, olo, ohi, false, bottom[0], top[0], l.params)
}

// BackwardDataChannels implements ChannelRanger: input channels [clo, chi)
// of every sample's bottom gradient. The direct kernel keeps a loop nest
// of its own here, with the channel loop outermost: each input channel is
// summed over (output channel, output position) in backwardDirect's
// order, which keeps the cut at the sequential bits.
func (l *Convolution) BackwardDataChannels(clo, chi int, bottom, top []*blob.Blob) {
	if l.cfg.Lowered {
		l.backwardLowered(0, l.num, 0, 0, clo, chi, bottom[0], top[0], nil)
		return
	}
	kh, kw := l.cfg.KernelH, l.cfg.KernelW
	ph, pw := l.cfg.PadH, l.cfg.PadW
	sh, sw := l.cfg.StrideH, l.cfg.StrideW
	hw := l.height * l.width
	wData := l.params[0].Data()
	for s := 0; s < l.num; s++ {
		inDiff := bottom[0].Diff()[s*l.channels*hw : (s+1)*l.channels*hw]
		for c := clo; c < chi; c++ {
			ci0 := c * hw
			clear(inDiff[ci0 : ci0+hw])
			for o := 0; o < l.cfg.NumOutput; o++ {
				outDiff := top[0].Diff()[(s*l.cfg.NumOutput+o)*l.outH*l.outW:]
				cw0 := o*l.channels*kh*kw + c*kh*kw
				for oh := 0; oh < l.outH; oh++ {
					for ow := 0; ow < l.outW; ow++ {
						g := outDiff[oh*l.outW+ow]
						if g == 0 {
							continue
						}
						for ki := 0; ki < kh; ki++ {
							ih := oh*sh - ph + ki
							if ih < 0 || ih >= l.height {
								continue
							}
							for kj := 0; kj < kw; kj++ {
								iw := ow*sw - pw + kj
								if iw < 0 || iw >= l.width {
									continue
								}
								inDiff[ci0+ih*l.width+iw] += g * wData[cw0+ki*kw+kj]
							}
						}
					}
				}
			}
		}
	}
}

// ForwardFLOPs implements Coster: the direct convolution's multiply-add
// count over the whole batch (2 FLOPs per MAC, plus the bias adds).
func (l *Convolution) ForwardFLOPs() int64 {
	macs := int64(l.num) * int64(l.cfg.NumOutput) * int64(l.outH) * int64(l.outW) *
		int64(l.channels) * int64(l.cfg.KernelH) * int64(l.cfg.KernelW)
	flops := 2 * macs
	if !l.cfg.NoBias {
		flops += int64(l.num) * int64(l.cfg.NumOutput) * int64(l.outH) * int64(l.outW)
	}
	return flops
}

// BackwardFLOPs implements Coster: the weight-gradient pass always runs;
// the bottom-diff pass runs only when gradients propagate down (the
// first convolution after the data layer skips it, as Caffe does).
func (l *Convolution) BackwardFLOPs() int64 {
	macs := int64(l.num) * int64(l.cfg.NumOutput) * int64(l.outH) * int64(l.outW) *
		int64(l.channels) * int64(l.cfg.KernelH) * int64(l.cfg.KernelW)
	passes := int64(1)
	if l.propagateDown {
		passes = 2
	}
	flops := 2 * macs * passes
	if !l.cfg.NoBias {
		flops += int64(l.num) * int64(l.cfg.NumOutput) * int64(l.outH) * int64(l.outW)
	}
	return flops
}
