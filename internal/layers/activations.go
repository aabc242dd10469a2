package layers

import (
	"fmt"
	"math"

	"coarsegrain/internal/blob"
)

// elementwise is the shared machinery of activation layers: the top has the
// bottom's shape, both passes coalesce the (sample, channel) loops and each
// iteration transforms one contiguous plane. These layers are the center of
// the paper's u-shaped scalability curves — tiny granularity, negligible
// total weight.
type elementwise struct {
	base
	// forward writes the activation of in[i] to out[i].
	forward func(in, out []float32)
	// backward writes to dx[i] the input gradient at input x[i], output
	// y[i] and output gradient dy[i].
	//
	// Both kernels are per element, so out may alias in (and dx alias dy,
	// x alias y) — in-place layers.
	backward func(x, y, dy, dx []float32)

	extent, plane int
}

// CanRunInPlace implements InPlacer: every activation here differentiates
// through its output (or a sign test the output preserves), so top may
// alias bottom.
func (l *elementwise) CanRunInPlace() bool { return true }

// SetUp implements Layer.
func (l *elementwise) SetUp(bottom, top []*blob.Blob) error {
	if err := checkBottomTop(l, bottom, top, 1, 1); err != nil {
		return err
	}
	if bottom[0].AxisCount() < 1 {
		return fmt.Errorf("layer %s: scalar bottom not supported", l.name)
	}
	l.Reshape(bottom, top)
	return nil
}

// Reshape implements Layer.
func (l *elementwise) Reshape(bottom, top []*blob.Blob) {
	top[0].ReshapeLike(bottom[0])
	l.extent = planeExtent(bottom[0])
	l.plane = planeSize(bottom[0])
}

// ForwardExtent implements Layer.
func (l *elementwise) ForwardExtent() int { return l.extent }

// ForwardRange implements Layer.
func (l *elementwise) ForwardRange(lo, hi int, bottom, top []*blob.Blob) {
	lo, hi = lo*l.plane, hi*l.plane
	l.forward(bottom[0].Data()[lo:hi], top[0].Data()[lo:hi])
}

// BackwardExtent implements Layer.
func (l *elementwise) BackwardExtent() int { return l.extent }

// BackwardRange implements Layer.
func (l *elementwise) BackwardRange(lo, hi int, bottom, top []*blob.Blob, _ []*blob.Blob) {
	lo, hi = lo*l.plane, hi*l.plane
	l.backward(bottom[0].Data()[lo:hi], top[0].Data()[lo:hi], top[0].Diff()[lo:hi], bottom[0].Diff()[lo:hi])
}

// NewReLU creates a rectified linear unit layer: y = max(x, 0), with an
// optional leaky negative slope (Caffe negative_slope).
func NewReLU(name string, negativeSlope float32) *elementwise {
	return &elementwise{
		base:     base{name: name, typ: "ReLU"},
		forward:  func(in, out []float32) { reluForward(negativeSlope, in, out) },
		backward: func(x, _, dy, dx []float32) { reluBackward(negativeSlope, x, dy, dx) },
	}
}

// reluForward writes x if x > 0, else slope·x. The product is taken for
// every element and x selected over it, so there is no branch on the data
// to mispredict; the bits are those of the branching form: −0 for a
// negative x at slope 0, and a NaN passed through. The select is over the
// values' bits, both taken before the test, because that is the form the
// compiler turns into a conditional move (it does not for floats).
func reluForward(slope float32, in, out []float32) {
	out = out[:len(in)]
	for i, x := range in {
		y, xb := math.Float32bits(slope*x), math.Float32bits(x)
		if x > 0 {
			y = xb
		}
		out[i] = math.Float32frombits(y)
	}
}

// reluBackward writes dy where the input was positive, else slope·dy,
// selected as reluForward selects.
func reluBackward(slope float32, x, dy, dx []float32) {
	dy, dx = dy[:len(x)], dx[:len(x)]
	for i, v := range x {
		g, dyb := math.Float32bits(slope*dy[i]), math.Float32bits(dy[i])
		if v > 0 {
			g = dyb
		}
		dx[i] = math.Float32frombits(g)
	}
}

// NewSigmoid creates a logistic sigmoid layer: y = 1/(1+exp(-x)).
func NewSigmoid(name string) *elementwise {
	return &elementwise{
		base:     base{name: name, typ: "Sigmoid"},
		forward:  sigmoidForward,
		backward: sigmoidBackward,
	}
}

func sigmoidForward(in, out []float32) {
	out = out[:len(in)]
	for i, x := range in {
		out[i] = float32(1 / (1 + math.Exp(-float64(x))))
	}
}

// sigmoidBackward differentiates through the output: dy·y·(1−y).
func sigmoidBackward(_, y, dy, dx []float32) {
	dy, dx = dy[:len(y)], dx[:len(y)]
	for i, v := range y {
		dx[i] = dy[i] * v * (1 - v)
	}
}

// NewTanH creates a hyperbolic tangent layer.
func NewTanH(name string) *elementwise {
	return &elementwise{
		base:     base{name: name, typ: "TanH"},
		forward:  tanhForward,
		backward: tanhBackward,
	}
}

func tanhForward(in, out []float32) {
	out = out[:len(in)]
	for i, x := range in {
		out[i] = float32(math.Tanh(float64(x)))
	}
}

// tanhBackward differentiates through the output: dy·(1−y²).
func tanhBackward(_, y, dy, dx []float32) {
	dy, dx = dy[:len(y)], dx[:len(y)]
	for i, v := range y {
		dx[i] = dy[i] * (1 - v*v)
	}
}
