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
	if c.PadH < 0 || c.PadW < 0 {
		return fmt.Errorf("pooling: pad must not be negative, got %dx%d", c.PadH, c.PadW)
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
//
// MAX pooling's forward splits a plane's windows two ways, fixed by the
// geometry in Reshape: where an output row holds at least eight windows
// wholly inside the input, those run in place, eight to a vector
// (blas.MaxPoolWindows); every other window — the ones the padding or a
// ragged last window clips, or all of them when the rows are shorter
// than eight (LeNet's pool2) — is listed in a window table and folded by
// blas.MaxPoolTable, one call per plane.
type Pooling struct {
	base
	cfg PoolConfig

	num, channels, height, width int
	outH, outW                   int

	// mask records, for MAX pooling, the flat input index (within the
	// (s,c) plane) of each output's maximum, for the backward scatter.
	mask []int32
	// runLo, runHi are the output columns MAX pooling runs in place on
	// every row (empty when the rows are too short); tab lists the rest
	// of a plane's windows. Both are built for tabH x tabW inputs, by
	// the Reshape that first sees that size.
	runLo, runHi int
	tab          blas.PoolTable
	tabH, tabW   int
}

// NewPooling creates a pooling layer.
func NewPooling(name string, cfg PoolConfig) (*Pooling, error) {
	if err := cfg.normalize(); err != nil {
		return nil, fmt.Errorf("layer %s: %w", name, err)
	}
	return &Pooling{base: base{name: name, typ: "Pooling"}, cfg: cfg}, nil
}

// SetUp implements Layer.
func (l *Pooling) SetUp(bottom, top []*blob.Blob) error {
	if err := checkBottomTop(l, bottom, top, 1, 1); err != nil {
		return err
	}
	if bottom[0].AxisCount() != 4 {
		return fmt.Errorf("layer %s: pooling needs a 4-D bottom, got %v", l.name, bottom[0].Shape())
	}
	if h, w := l.outSize(bottom[0]); h <= 0 || w <= 0 {
		return outSizeError(l.name, bottom[0], h, w)
	}
	l.Reshape(bottom, top)
	return nil
}

// Reshape implements Layer.
func (l *Pooling) Reshape(bottom, top []*blob.Blob) {
	b := bottom[0]
	l.num, l.channels, l.height, l.width = b.Num(), b.Channels(), b.Height(), b.Width()
	l.outH, l.outW = l.outSize(b)
	top[0].Reshape(l.num, l.channels, l.outH, l.outW)
	if l.cfg.Method == MaxPool {
		n := l.num * l.channels * l.outH * l.outW
		if cap(l.mask) < n {
			l.mask = make([]int32, n)
		}
		l.mask = l.mask[:n]
		if l.tabH != l.height || l.tabW != l.width {
			l.buildTable()
		}
	}
}

// outSize is the pooled height and width of bottom b.
func (l *Pooling) outSize(b *blob.Blob) (h, w int) {
	return blas.PoolOutSize(b.Height(), l.cfg.KernelH, l.cfg.PadH, l.cfg.StrideH),
		blas.PoolOutSize(b.Width(), l.cfg.KernelW, l.cfg.PadW, l.cfg.StrideW)
}

// buildTable splits the MAX windows between the in-place run and the
// window table for the current input size (see Pooling).
func (l *Pooling) buildTable() {
	kh, kw := l.cfg.KernelH, l.cfg.KernelW
	l.tabH, l.tabW = l.height, l.width
	l.runLo, l.runHi = l.interiorCols()
	if l.runHi-l.runLo < 8 {
		l.runLo, l.runHi = 0, 0
	}
	var out []int32
	for oh := 0; oh < l.outH; oh++ {
		for ow := 0; ow < l.outW; ow++ {
			if ow < l.runLo || ow >= l.runHi {
				out = append(out, int32(oh*l.outW+ow))
			}
		}
	}
	n := len(out)
	at := make([]int32, kh*kw*n)
	for i, o := range out {
		hs := int(o)/l.outW*l.cfg.StrideH - l.cfg.PadH
		ws := int(o)%l.outW*l.cfg.StrideW - l.cfg.PadW
		for k := 0; k < kh*kw; k++ {
			ih, iw := hs+k/kw, ws+k%kw
			at[k*n+i] = -1
			if ih >= 0 && ih < l.height && iw >= 0 && iw < l.width {
				at[k*n+i] = int32(ih*l.width + iw)
			}
		}
	}
	l.tab = blas.PoolTable{K: kh * kw, Out: out, At: at}
}

// ForwardExtent implements Layer: one iteration per (sample, channel)
// plane.
func (l *Pooling) ForwardExtent() int { return l.num * l.channels }

// ForwardRange implements Layer. A MAX band with a window table borrows
// one GEMM scratch for all its planes, MaxPoolTable's column buffer.
func (l *Pooling) ForwardRange(lo, hi int, bottom, top []*blob.Blob) {
	hw, ohw := l.height*l.width, l.outH*l.outW
	in, out := bottom[0].Data(), top[0].Data()
	if l.cfg.Method == AvePool {
		for p := lo; p < hi; p++ {
			l.avePlane(in[p*hw:(p+1)*hw], out[p*ohw:(p+1)*ohw])
		}
		return
	}
	var gs *blas.GemmScratch
	if len(l.tab.Out) > 0 {
		gs = blas.GetScratch()
		defer blas.PutScratch(gs)
	}
	for p := lo; p < hi; p++ {
		l.maxPlane(gs, in[p*hw:(p+1)*hw], out[p*ohw:(p+1)*ohw], l.mask[p*ohw:(p+1)*ohw])
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

// maxPlane is MAX pooling of one plane: the columns [runLo, runHi) of
// every output row are one run of unclipped windows (the window's rows
// cut to the input), which blas.MaxPoolWindows scans eight to a vector,
// and every other window is folded through the window table. Either way
// a window is scanned in row-major order with a strict >: the first of
// equal maxima wins, a NaN never does, and an all-NaN or empty window
// yields -Inf and mask -1.
func (l *Pooling) maxPlane(gs *blas.GemmScratch, in, out []float32, mask []int32) {
	if lo, hi := l.runLo, l.runHi; lo < hi {
		w, sw := l.width, l.cfg.StrideW
		for oh := 0; oh < l.outH; oh++ {
			hs := oh*l.cfg.StrideH - l.cfg.PadH
			he := min(hs+l.cfg.KernelH, l.height)
			hs = max(hs, 0)
			o, m := out[oh*l.outW:(oh+1)*l.outW], mask[oh*l.outW:(oh+1)*l.outW]
			blas.MaxPoolWindows(in, hs*w+lo*sw-l.cfg.PadW, w, he-hs, l.cfg.KernelW, sw, hi-lo, o[lo:hi], m[lo:hi])
		}
	}
	if len(l.tab.Out) > 0 {
		blas.MaxPoolTable(gs, in, &l.tab, out, mask)
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
func (l *Pooling) BackwardExtent() int { return l.num * l.channels }

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
