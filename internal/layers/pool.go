package layers

import (
	"fmt"

	"coarsegrain/internal/blas"
	"coarsegrain/internal/blob"
)

// PoolMethod selects the pooling operation.
type PoolMethod int

const (
	// MaxPool takes the maximum of each window (Caffe MAX).
	MaxPool PoolMethod = iota
	// AvePool takes the mean of each window (Caffe AVE).
	AvePool
)

// String implements fmt.Stringer.
func (m PoolMethod) String() string {
	if m == MaxPool {
		return "MAX"
	}
	return "AVE"
}

// PoolConfig configures a Pooling layer.
type PoolConfig struct {
	Method           PoolMethod
	Kernel           int
	KernelH, KernelW int
	Pad              int
	PadH, PadW       int
	Stride           int
	StrideH, StrideW int
}

func (c *PoolConfig) normalize() error {
	if c.KernelH == 0 {
		c.KernelH = c.Kernel
	}
	if c.KernelW == 0 {
		c.KernelW = c.Kernel
	}
	if c.KernelH <= 0 || c.KernelW <= 0 {
		return fmt.Errorf("pooling: kernel size must be positive, got %dx%d", c.KernelH, c.KernelW)
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
	return nil
}

// Pooling performs spatial dimensionality reduction (§2.2.1). Each
// (sample, channel) plane is independent, so both passes coalesce the two
// outermost loops into an S*C iteration space — the finest race-free
// granularity, matching the paper's observation that pooling layers keep
// the same data-thread distribution as the convolutions they follow.
type Pooling struct {
	base
	cfg PoolConfig

	num, channels, height, width int
	outH, outW                   int

	// mask records, for MAX pooling, the flat input index (within the
	// (s,c) plane) of each output's maximum, for the backward scatter.
	mask []int32

	propagateDown bool
}

// NewPooling creates a pooling layer.
func NewPooling(name string, cfg PoolConfig) (*Pooling, error) {
	if err := cfg.normalize(); err != nil {
		return nil, fmt.Errorf("layer %s: %w", name, err)
	}
	return &Pooling{base: base{name: name, typ: "Pooling"}, cfg: cfg, propagateDown: true}, nil
}

// SetPropagateDown implements the optional propagation control.
func (l *Pooling) SetPropagateDown(flags []bool) {
	if len(flags) > 0 {
		l.propagateDown = flags[0]
	}
}

// SetUp implements Layer.
func (l *Pooling) SetUp(bottom, top []*blob.Blob) error {
	if err := checkBottomTop(l, bottom, top, 1, 1); err != nil {
		return err
	}
	if bottom[0].AxisCount() != 4 {
		return fmt.Errorf("layer %s: pooling needs a 4-D bottom, got %v", l.name, bottom[0].Shape())
	}
	l.Reshape(bottom, top)
	return nil
}

// Reshape implements Layer.
func (l *Pooling) Reshape(bottom, top []*blob.Blob) {
	b := bottom[0]
	l.num, l.channels, l.height, l.width = b.Num(), b.Channels(), b.Height(), b.Width()
	l.outH = blas.PoolOutSize(l.height, l.cfg.KernelH, l.cfg.PadH, l.cfg.StrideH)
	l.outW = blas.PoolOutSize(l.width, l.cfg.KernelW, l.cfg.PadW, l.cfg.StrideW)
	top[0].Reshape(l.num, l.channels, l.outH, l.outW)
	if l.cfg.Method == MaxPool {
		n := l.num * l.channels * l.outH * l.outW
		if cap(l.mask) < n {
			l.mask = make([]int32, n)
		}
		l.mask = l.mask[:n]
	}
}

// ForwardExtent implements Layer: one iteration per (sample, channel)
// plane.
func (l *Pooling) ForwardExtent() int { return l.num * l.channels }

// ForwardRange implements Layer.
func (l *Pooling) ForwardRange(lo, hi int, bottom, top []*blob.Blob) {
	for civ := lo; civ < hi; civ++ {
		l.forwardPlane(civ, bottom[0], top[0])
	}
}

// forwardPlane pools one (s,c) plane. plane is the flattened (s*C + c).
func (l *Pooling) forwardPlane(plane int, bottom, top *blob.Blob) {
	in := bottom.Data()[plane*l.height*l.width : (plane+1)*l.height*l.width]
	out := top.Data()[plane*l.outH*l.outW : (plane+1)*l.outH*l.outW]
	if l.cfg.Method == MaxPool {
		l.maxPlane(in, out, l.mask[plane*l.outH*l.outW:(plane+1)*l.outH*l.outW])
	} else {
		l.avePlane(in, out)
	}
}

// interiorCols returns the output columns [lo, hi) whose window lies
// wholly inside an input row; the ones before and after are clipped by the
// padding or by a ragged (ceil-mode) last window.
func (l *Pooling) interiorCols() (lo, hi int) {
	sw := l.cfg.StrideW
	if last := l.width + l.cfg.PadW - l.cfg.KernelW; last >= 0 {
		hi = min(l.outW, last/sw+1)
	}
	return min((l.cfg.PadW+sw-1)/sw, hi), hi
}

// maxPlane is MAX pooling of one plane, an output row at a time: the
// interior columns are one run of unclipped windows, which
// blas.MaxPoolWindows scans eight to a vector; each column the padding or
// a ragged last window clips goes in on its own, as the smaller window
// that is left of it. Either way a window is scanned in row-major order
// with a strict >: the first of equal maxima wins, a NaN never does, and
// an all-NaN or empty window yields -Inf and mask -1.
func (l *Pooling) maxPlane(in, out []float32, mask []int32) {
	w, kw, sw, padW := l.width, l.cfg.KernelW, l.cfg.StrideW, l.cfg.PadW
	lo, hi := l.interiorCols()
	for oh := 0; oh < l.outH; oh++ {
		hs := oh*l.cfg.StrideH - l.cfg.PadH
		he := min(hs+l.cfg.KernelH, l.height)
		hs = max(hs, 0)
		o, m := out[oh*l.outW:(oh+1)*l.outW], mask[oh*l.outW:(oh+1)*l.outW]
		if lo < hi {
			blas.MaxPoolWindows(in, hs*w+lo*sw-padW, w, he-hs, kw, sw, hi-lo, o[lo:hi], m[lo:hi])
		}
		for ow := 0; ow < l.outW; ow++ {
			if ow == lo {
				ow = hi // past the interior run
				if ow == l.outW {
					break
				}
			}
			ws := max(ow*sw-padW, 0)
			we := min(ow*sw-padW+kw, w)
			blas.MaxPoolWindows(in, hs*w+ws, w, he-hs, we-ws, sw, 1, o[ow:], m[ow:])
		}
	}
}

// avePlane is AVE pooling of one plane: the clipped window's sum, added in
// row-major order, over the window's size as Caffe counts it (aveSpan).
func (l *Pooling) avePlane(in, out []float32) {
	for oh := 0; oh < l.outH; oh++ {
		hs, he, hn := aveSpan(oh, l.height, l.cfg.KernelH, l.cfg.StrideH, l.cfg.PadH)
		for ow := 0; ow < l.outW; ow++ {
			ws, we, wn := aveSpan(ow, l.width, l.cfg.KernelW, l.cfg.StrideW, l.cfg.PadW)
			var sum float32
			for ih := hs; ih < he; ih++ {
				for iw := ws; iw < we; iw++ {
					sum += in[ih*l.width+iw]
				}
			}
			out[oh*l.outW+ow] = sum / float32(hn*wn)
		}
	}
}

// aveSpan returns, along one axis of n inputs, the inputs [s, e) that the
// window of output o covers, and the window's extent for the average: as
// in Caffe's pool_size, the window clipped to the padded axis [-pad,
// n+pad), so padding counts but the part of a ragged (ceil-mode) last
// window past the padding does not. A window that starts past the padded
// axis covers nothing and counts 1, so it averages to 0.
func aveSpan(o, n, kernel, stride, pad int) (s, e, extent int) {
	s = o*stride - pad
	e = min(s+kernel, n+pad)
	return max(s, 0), min(e, n), max(e-s, 1)
}

// BackwardExtent implements Layer: same (sample, channel) granularity —
// each plane's input gradient is private to its iteration.
func (l *Pooling) BackwardExtent() int {
	if !l.propagateDown {
		return 0
	}
	return l.num * l.channels
}

// BackwardRange implements Layer. Pooling has no parameters; paramGrads is
// empty.
func (l *Pooling) BackwardRange(lo, hi int, bottom, top []*blob.Blob, _ []*blob.Blob) {
	for civ := lo; civ < hi; civ++ {
		l.backwardPlane(civ, bottom[0], top[0])
	}
}

func (l *Pooling) backwardPlane(plane int, bottom, top *blob.Blob) {
	inDiff := bottom.Diff()[plane*l.height*l.width : (plane+1)*l.height*l.width]
	outDiff := top.Diff()[plane*l.outH*l.outW:]
	for i := range inDiff {
		inDiff[i] = 0
	}
	switch l.cfg.Method {
	case MaxPool:
		mask := l.mask[plane*l.outH*l.outW:]
		for oidx := 0; oidx < l.outH*l.outW; oidx++ {
			if m := mask[oidx]; m >= 0 {
				inDiff[m] += outDiff[oidx]
			}
		}
	case AvePool:
		for oh := 0; oh < l.outH; oh++ {
			hs, he, hn := aveSpan(oh, l.height, l.cfg.KernelH, l.cfg.StrideH, l.cfg.PadH)
			for ow := 0; ow < l.outW; ow++ {
				ws, we, wn := aveSpan(ow, l.width, l.cfg.KernelW, l.cfg.StrideW, l.cfg.PadW)
				g := outDiff[oh*l.outW+ow] * (1 / float32(hn*wn))
				for ih := hs; ih < he; ih++ {
					for iw := ws; iw < we; iw++ {
						inDiff[ih*l.width+iw] += g
					}
				}
			}
		}
	}
}
