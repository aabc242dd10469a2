package layers

import (
	"fmt"
	"math"

	"coarsegrain/internal/blob"
	"coarsegrain/internal/rng"
)

// Filler initializes a parameter blob, mirroring Caffe's weight fillers.
type Filler interface {
	// Fill writes initial values into b's data using r.
	Fill(b *blob.Blob, r *rng.RNG)
	// String describes the filler for diagnostics.
	String() string
}

// ConstantFiller sets every element to Value (Caffe "constant").
type ConstantFiller struct{ Value float32 }

// Fill implements Filler.
func (f ConstantFiller) Fill(b *blob.Blob, _ *rng.RNG) {
	d := b.Data()
	for i := range d {
		d[i] = f.Value
	}
}

func (f ConstantFiller) String() string { return fmt.Sprintf("constant(%g)", f.Value) }

// GaussianFiller draws from N(Mean, Std²) (Caffe "gaussian").
type GaussianFiller struct{ Mean, Std float32 }

// Fill implements Filler: r.Gaussian per element, the normals drawn in
// one batch.
func (f GaussianFiller) Fill(b *blob.Blob, r *rng.RNG) {
	d := b.Data()
	r.NormFloat32s(d)
	for i, n := range d {
		d[i] = f.Mean + f.Std*n
	}
}

func (f GaussianFiller) String() string { return fmt.Sprintf("gaussian(%g, %g)", f.Mean, f.Std) }

// UniformFiller draws uniformly from [Min, Max) (Caffe "uniform").
type UniformFiller struct{ Min, Max float32 }

// Fill implements Filler.
func (f UniformFiller) Fill(b *blob.Blob, r *rng.RNG) {
	d := b.Data()
	for i := range d {
		d[i] = r.Range(f.Min, f.Max)
	}
}

func (f UniformFiller) String() string { return fmt.Sprintf("uniform[%g, %g)", f.Min, f.Max) }

// XavierFiller draws uniformly from [-s, s) with s = sqrt(3 / fanIn),
// Caffe's "xavier" (Glorot) filler with the default fan-in normalization.
// Fan-in is count / dim(0): for a conv weight (O, C, KH, KW) that is
// C*KH*KW; for an inner-product weight (N, K) it is K.
type XavierFiller struct{}

// Fill implements Filler.
func (XavierFiller) Fill(b *blob.Blob, r *rng.RNG) {
	fanIn := 1
	if b.AxisCount() > 0 && b.Dim(0) > 0 {
		fanIn = b.Count() / b.Dim(0)
	}
	s := float32(math.Sqrt(3.0 / float64(fanIn)))
	d := b.Data()
	for i := range d {
		d[i] = r.Range(-s, s)
	}
}

func (XavierFiller) String() string { return "xavier" }

// MSRAFiller draws from N(0, 2/fanIn), the He initialization Caffe calls
// "msra"; appropriate ahead of ReLU nonlinearities.
type MSRAFiller struct{}

// Fill implements Filler.
func (MSRAFiller) Fill(b *blob.Blob, r *rng.RNG) {
	fanIn := 1
	if b.AxisCount() > 0 && b.Dim(0) > 0 {
		fanIn = b.Count() / b.Dim(0)
	}
	GaussianFiller{Std: float32(math.Sqrt(2.0 / float64(fanIn)))}.Fill(b, r)
}

func (MSRAFiller) String() string { return "msra" }

// FillerByName constructs a filler from its Caffe prototxt name. The value
// parameter is interpreted per type (constant value, gaussian std, uniform
// half-range). Unknown names return an error.
func FillerByName(name string, value float32) (Filler, error) {
	switch name {
	case "", "constant":
		return ConstantFiller{Value: value}, nil
	case "gaussian":
		return GaussianFiller{Std: value}, nil
	case "uniform":
		return UniformFiller{Min: -value, Max: value}, nil
	case "xavier":
		return XavierFiller{}, nil
	case "msra":
		return MSRAFiller{}, nil
	default:
		return nil, fmt.Errorf("layers: unknown filler %q", name)
	}
}
