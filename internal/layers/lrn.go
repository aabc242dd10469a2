package layers

import (
	"fmt"
	"math"

	"coarsegrain/internal/blob"
)

// LRNConfig configures a LocalResponseNormalization layer (Caffe LRN,
// ACROSS_CHANNELS region — the norm1/norm2 layers of the CIFAR-10 network).
type LRNConfig struct {
	LocalSize int     // window size n over channels (odd, default 5)
	Alpha     float32 // scaling (default 1e-4)
	Beta      float32 // exponent (default 0.75)
	K         float32 // additive constant (default 1)
}

func (c *LRNConfig) normalize() error {
	if c.LocalSize == 0 {
		c.LocalSize = 5
	}
	if c.LocalSize%2 == 0 || c.LocalSize < 0 {
		return fmt.Errorf("lrn: LocalSize must be odd and positive, got %d", c.LocalSize)
	}
	if c.Alpha == 0 {
		c.Alpha = 1e-4
	}
	if c.Beta == 0 {
		c.Beta = 0.75
	}
	if c.K == 0 {
		c.K = 1
	}
	return nil
}

// LRN is across-channel local response normalization:
//
//	scale(s,c,h,w) = K + (Alpha/n) * Σ_{c' ∈ window(c)} x(s,c',h,w)²
//	y = x * scale^{-Beta}
//
// Channels within a window are coupled, so the race-free coalesced unit is
// a whole sample: both passes have extent S. The paper singles out the LRN
// layers ("norm1", "norm2") as the layers that *change the data-thread
// distribution* relative to their conv/pool neighbours (which distribute
// over S*C), causing the locality losses analysed in §4.2.1 — this
// implementation preserves exactly that structural property.
type LRN struct {
	base
	cfg LRNConfig

	num, channels, height, width int

	// scale caches the normalization denominators for the backward pass.
	scale *blob.Blob
}

// NewLRN creates a local response normalization layer.
func NewLRN(name string, cfg LRNConfig) (*LRN, error) {
	if err := cfg.normalize(); err != nil {
		return nil, fmt.Errorf("layer %s: %w", name, err)
	}
	return &LRN{base: base{name: name, typ: "LRN"}, cfg: cfg, scale: blob.New()}, nil
}

// SetUp implements Layer.
func (l *LRN) SetUp(bottom, top []*blob.Blob) error {
	if err := checkBottomTop(l, bottom, top, 1, 1); err != nil {
		return err
	}
	if bottom[0].AxisCount() != 4 {
		return fmt.Errorf("layer %s: LRN needs a 4-D bottom, got %v", l.name, bottom[0].Shape())
	}
	l.Reshape(bottom, top)
	return nil
}

// Reshape implements Layer.
func (l *LRN) Reshape(bottom, top []*blob.Blob) {
	b := bottom[0]
	l.num, l.channels, l.height, l.width = b.Num(), b.Channels(), b.Height(), b.Width()
	top[0].ReshapeLike(b)
	l.scale.ReshapeLike(b)
}

// ForwardExtent implements Layer: whole samples (channel coupling).
func (l *LRN) ForwardExtent() int { return l.num }

// ForwardRange implements Layer.
func (l *LRN) ForwardRange(lo, hi int, bottom, top []*blob.Blob) {
	for s := lo; s < hi; s++ {
		l.forwardSample(s, bottom[0], top[0])
	}
}

func (l *LRN) forwardSample(s int, bottom, top *blob.Blob) {
	hw := l.height * l.width
	chw := l.channels * hw
	in := bottom.Data()[s*chw : (s+1)*chw]
	out := top.Data()[s*chw : (s+1)*chw]
	sc := l.scale.Data()[s*chw : (s+1)*chw]
	l.forwardColumns(in, out, sc, 0, hw)
}

// lrnBlock is how many spatial positions the LRN kernels carry through the
// channel loop together: their running window sums and scale powers live
// in stack arrays of this size, so a pass allocates nothing.
const lrnBlock = 256

// forwardColumns normalizes spatial positions [plo, phi) of one sample.
// Each position keeps its own sliding window sum over the channel axis;
// the positions of a block advance through the channels together, so
// every inner loop walks one contiguous channel row. Per position the
// float operations, and their order, are those of a loop over that
// position's channels alone.
func (l *LRN) forwardColumns(in, out, sc []float32, plo, phi int) {
	hw := l.height * l.width
	half := l.cfg.LocalSize / 2
	alphaOverN := l.cfg.Alpha / float32(l.cfg.LocalSize)
	k, negBeta := l.cfg.K, -float64(l.cfg.Beta)
	var sums [lrnBlock]float32
	var pows [lrnBlock]float64
	for b0 := plo; b0 < phi; b0 += lrnBlock {
		b1 := min(b0+lrnBlock, phi)
		sum, pw := sums[:b1-b0], pows[:b1-b0]
		clear(sum)
		for c := 0; c <= half && c < l.channels; c++ {
			addSquares(sum, in[c*hw+b0:])
		}
		for c := 0; c < l.channels; c++ {
			o := c*hw + b0
			x, y, s := in[o:o+len(sum)], out[o:o+len(sum)], sc[o:o+len(sum)]
			for j, v := range sum {
				s[j] = k + alphaOverN*v
			}
			powRow(pw, s, negBeta)
			for j, p := range pw {
				y[j] = x[j] * float32(p)
			}
			// Slide: add channel c+half+1, drop channel c-half.
			if nc := c + half + 1; nc < l.channels {
				addSquares(sum, in[nc*hw+b0:])
			}
			if oc := c - half; oc >= 0 {
				subSquares(sum, in[oc*hw+b0:])
			}
		}
	}
}

// powRow sets p[j] = s[j]^e. The float64 arguments are staged in p before
// the calls: converting each float32 straight into the argument register
// (CVTSS2SD writes only its low lane) would make it wait for the previous
// call's result still held there, chaining every Pow behind the one
// before; a float64 load starts each call afresh, so calls overlap.
//
// At e = -0.75, Caffe's β, the power is two square roots instead,
// 1/(r*sqrt(r)) with r = sqrt(s): float32 of it is float32 of math.Pow(s,
// -0.75) for every non-negative float32 s (TestPowRowMatchesPow; the
// whole range was swept once), which is all a caller keeps; BenchmarkLRN's
// pow rows run ~7x faster for it. A scale of exactly 1, which is every
// scale while k + α/n·Σx² rounds to 1 (k = 1), returns 1 at once, as
// math.Pow does: the square roots would cost ~5x what Pow(1, e) does.
func powRow(p []float64, s []float32, e float64) {
	p = p[:len(s)]
	for j, v := range s {
		p[j] = float64(v)
	}
	if e != -0.75 {
		for j, v := range p {
			p[j] = math.Pow(v, e)
		}
		return
	}
	for j, v := range p {
		if v == 1 {
			continue
		}
		r := math.Sqrt(v)
		p[j] = 1 / (r * math.Sqrt(r))
	}
}

// addSquares adds row[j]² to sum[j].
func addSquares(sum, row []float32) {
	row = row[:len(sum)]
	for j, v := range row {
		sum[j] += v * v
	}
}

// subSquares subtracts row[j]² from sum[j].
func subSquares(sum, row []float32) {
	row = row[:len(sum)]
	for j, v := range row {
		sum[j] -= v * v
	}
}

// BackwardExtent implements Layer.
func (l *LRN) BackwardExtent() int { return l.num }

// BackwardRange implements Layer. LRN has no parameters.
func (l *LRN) BackwardRange(lo, hi int, bottom, top []*blob.Blob, _ []*blob.Blob) {
	for s := lo; s < hi; s++ {
		l.backwardSample(s, bottom[0], top[0])
	}
}

func (l *LRN) backwardSample(s int, bottom, top *blob.Blob) {
	hw := l.height * l.width
	chw := l.channels * hw
	in := bottom.Data()[s*chw : (s+1)*chw]
	inDiff := bottom.Diff()[s*chw : (s+1)*chw]
	out := top.Data()[s*chw : (s+1)*chw]
	outDiff := top.Diff()[s*chw : (s+1)*chw]
	sc := l.scale.Data()[s*chw : (s+1)*chw]
	l.backwardColumns(in, inDiff, out, outDiff, sc, 0, hw)
}

// backwardColumns computes the input gradient for spatial positions
// [plo, phi) of one sample using the standard LRN derivative:
//
//	dx_c = dy_c * scale_c^{-β} − (2αβ/n) x_c Σ_{c'∈win(c)} dy_{c'} y_{c'} / scale_{c'}
//
// It walks channel rows of a block of positions as forwardColumns does,
// with the same per-position operations as a loop over one position.
func (l *LRN) backwardColumns(in, inDiff, out, outDiff, sc []float32, plo, phi int) {
	hw := l.height * l.width
	half := l.cfg.LocalSize / 2
	ratio := 2 * l.cfg.Alpha * l.cfg.Beta / float32(l.cfg.LocalSize)
	negBeta := -float64(l.cfg.Beta)
	var sums [lrnBlock]float32
	var pows [lrnBlock]float64
	for b0 := plo; b0 < phi; b0 += lrnBlock {
		b1 := min(b0+lrnBlock, phi)
		sum, pw := sums[:b1-b0], pows[:b1-b0]
		clear(sum)
		// Sliding sum of dy*y/scale over the channel window.
		for c := 0; c <= half && c < l.channels; c++ {
			o := c*hw + b0
			addRatios(sum, outDiff[o:], out[o:], sc[o:])
		}
		for c := 0; c < l.channels; c++ {
			o := c*hw + b0
			dy, x, dx := outDiff[o:o+len(sum)], in[o:o+len(sum)], inDiff[o:o+len(sum)]
			powRow(pw, sc[o:o+len(sum)], negBeta)
			for j, v := range sum {
				dx[j] = dy[j]*float32(pw[j]) - ratio*x[j]*v
			}
			if nc := c + half + 1; nc < l.channels {
				o := nc*hw + b0
				addRatios(sum, outDiff[o:], out[o:], sc[o:])
			}
			if oc := c - half; oc >= 0 {
				o := oc*hw + b0
				subRatios(sum, outDiff[o:], out[o:], sc[o:])
			}
		}
	}
}

// addRatios adds dy[j]*y[j]/s[j] to sum[j].
func addRatios(sum, dy, y, s []float32) {
	dy, y, s = dy[:len(sum)], y[:len(sum)], s[:len(sum)]
	for j := range sum {
		sum[j] += dy[j] * y[j] / s[j]
	}
}

// subRatios subtracts dy[j]*y[j]/s[j] from sum[j].
func subRatios(sum, dy, y, s []float32) {
	dy, y, s = dy[:len(sum)], y[:len(sum)], s[:len(sum)]
	for j := range sum {
		sum[j] -= dy[j] * y[j] / s[j]
	}
}
