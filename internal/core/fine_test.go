package core

import (
	"fmt"
	"math"
	"testing"

	"coarsegrain/internal/blob"
	"coarsegrain/internal/layers"
	"coarsegrain/internal/rng"
)

// fineCase builds one catalogue layer and its bottoms, deterministically:
// two calls return layers with equal parameters over equal inputs.
type fineCase struct {
	name string
	mk   func(t *testing.T) (layers.Layer, []*blob.Blob)
	// reluGrad zeroes the top gradient wherever the top is not positive,
	// the exact zeros a following ReLU leaves, which the direct
	// convolution's backward skips.
	reluGrad bool
}

// randomBottom is a blob of the shape with uniform values in [-1, 1).
func randomBottom(seed uint64, shape ...int) *blob.Blob {
	b := blob.New(shape...)
	r := rng.New(seed, 9)
	for i := range b.Data() {
		b.Data()[i] = r.Range(-1, 1)
	}
	return b
}

// fineCases is every layer kind the fine-grain engine schedules
// differently: both convolution kernels and InnerProduct (channel ranges;
// with and without a bias, with and without a bottom gradient), the
// parameter-free range bodies, and the two layers with parameters but no
// channel axis (serial backward). Channel counts stay below 5, so Fine(5)
// leaves some bands empty.
func fineCases() []fineCase {
	var cases []fineCase
	variants := []struct {
		name           string
		noBias, noGrad bool
	}{{"bias", false, false}, {"nobias", true, false}, {"nograd", false, true}}
	for _, lowered := range []bool{false, true} {
		kernel := "direct"
		if lowered {
			kernel = "lowered"
		}
		for _, v := range variants {
			cases = append(cases, fineCase{name: "Convolution/" + kernel + "/" + v.name, reluGrad: true, mk: func(t *testing.T) (layers.Layer, []*blob.Blob) {
				l, err := layers.NewConvolution("conv", layers.ConvConfig{
					NumOutput: 4, Kernel: 3, Pad: 1, Stride: 2, NoBias: v.noBias, DisablePropagation: v.noGrad,
					Lowered: lowered, WeightFiller: layers.GaussianFiller{Std: 0.2},
					BiasFiller: layers.GaussianFiller{Std: 0.2}, RNG: rng.New(31, 1),
				})
				if err != nil {
					t.Fatal(err)
				}
				return l, []*blob.Blob{randomBottom(31, 3, 3, 7, 6)}
			}})
		}
	}
	for _, v := range variants {
		name := "InnerProduct"
		if v.name != "bias" {
			name += "/" + v.name
		}
		cases = append(cases, fineCase{name: name, mk: func(t *testing.T) (layers.Layer, []*blob.Blob) {
			l, err := layers.NewInnerProduct("ip", layers.IPConfig{NumOutput: 3, NoBias: v.noBias,
				WeightFiller: layers.GaussianFiller{Std: 0.3}, BiasFiller: layers.GaussianFiller{Std: 0.3},
				RNG: rng.New(32, 1)})
			if err != nil {
				t.Fatal(err)
			}
			l.SetPropagateDown([]bool{!v.noGrad})
			return l, []*blob.Blob{randomBottom(32, 4, 2, 3, 3)}
		}})
	}
	cases = append(cases,
		fineCase{name: "LRN", mk: func(t *testing.T) (layers.Layer, []*blob.Blob) {
			l, err := layers.NewLRN("norm", layers.LRNConfig{LocalSize: 3, Alpha: 0.5})
			if err != nil {
				t.Fatal(err)
			}
			return l, []*blob.Blob{randomBottom(33, 3, 4, 5, 5)}
		}},
		fineCase{name: "ReLU", mk: func(*testing.T) (layers.Layer, []*blob.Blob) {
			return layers.NewReLU("relu", 0.1), []*blob.Blob{randomBottom(34, 3, 4, 5, 5)}
		}},
		fineCase{name: "Sigmoid", mk: func(*testing.T) (layers.Layer, []*blob.Blob) {
			return layers.NewSigmoid("sig"), []*blob.Blob{randomBottom(35, 3, 4, 5, 5)}
		}},
		fineCase{name: "TanH", mk: func(*testing.T) (layers.Layer, []*blob.Blob) {
			return layers.NewTanH("tanh"), []*blob.Blob{randomBottom(36, 3, 4, 5, 5)}
		}},
		fineCase{name: "SoftmaxWithLoss", mk: func(*testing.T) (layers.Layer, []*blob.Blob) {
			labels := blob.New(5)
			for i := range labels.Data() {
				labels.Data()[i] = float32(i * 3 % 7)
			}
			return layers.NewSoftmaxWithLoss("loss"), []*blob.Blob{randomBottom(37, 5, 7), labels}
		}},
		fineCase{name: "BatchNorm", mk: func(t *testing.T) (layers.Layer, []*blob.Blob) {
			l, err := layers.NewBatchNorm("bn", layers.BNConfig{})
			if err != nil {
				t.Fatal(err)
			}
			return l, []*blob.Blob{randomBottom(38, 6, 3, 4, 4)}
		}},
		fineCase{name: "Deconvolution", mk: func(t *testing.T) (layers.Layer, []*blob.Blob) {
			l, err := layers.NewDeconvolution("deconv", layers.ConvConfig{NumOutput: 3, Kernel: 3, Stride: 2,
				WeightFiller: layers.GaussianFiller{Std: 0.3}, BiasFiller: layers.GaussianFiller{Std: 0.3},
				RNG: rng.New(39, 1)})
			if err != nil {
				t.Fatal(err)
			}
			return l, []*blob.Blob{randomBottom(39, 3, 4, 4, 4)}
		}},
	)
	for _, m := range []layers.PoolMethod{layers.MaxPool, layers.AvePool} {
		cases = append(cases, fineCase{name: "Pooling/" + m.String(), mk: func(t *testing.T) (layers.Layer, []*blob.Blob) {
			l, err := layers.NewPooling("pool", layers.PoolConfig{Method: m, Kernel: 3, Stride: 2})
			if err != nil {
				t.Fatal(err)
			}
			return l, []*blob.Blob{randomBottom(40, 3, 4, 7, 7)}
		}})
	}
	return cases
}

// fineRun is one forward and backward pass of a fineCase on an engine,
// from a seeded top gradient and zeroed parameter gradients.
func fineRun(t *testing.T, c fineCase, e Engine) (layers.Layer, []*blob.Blob, []*blob.Blob) {
	t.Helper()
	l, bottom := c.mk(t)
	top := []*blob.Blob{blob.New()}
	if err := l.SetUp(bottom, top); err != nil {
		t.Fatal(err)
	}
	e.Forward(l, bottom, top)
	seedTopDiff(top, 41)
	if c.reluGrad {
		for i, y := range top[0].Data() {
			if y <= 0 {
				top[0].Diff()[i] = 0
			}
		}
	}
	for _, p := range l.Params() {
		p.ZeroDiff()
	}
	e.Backward(l, bottom, top)
	return l, bottom, top
}

// sameBits reports the first index where got and want differ in bits.
func sameBits(got, want []float32) (int, bool) {
	for i := range want {
		if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
			return i, false
		}
	}
	return 0, true
}

// Every catalogue layer under Fine(P) against Sequential: top, bottom
// gradients and parameter gradients bit for bit, at worker counts that do
// and do not divide the channel counts.
func TestFineMatchesSequentialEveryLayer(t *testing.T) {
	for _, c := range fineCases() {
		t.Run(c.name, func(t *testing.T) {
			lRef, botRef, topRef := fineRun(t, c, NewSequential())
			for _, p := range []int{1, 2, 3, 5} {
				e := NewFine(p)
				l, bot, top := fineRun(t, c, e)
				e.Close()
				check := func(what string, got, want []float32) {
					t.Helper()
					if i, ok := sameBits(got, want); !ok {
						t.Fatalf("fine/%d: %s differs at %d: %v vs %v", p, what, i, got[i], want[i])
					}
				}
				check("top", top[0].Data(), topRef[0].Data())
				for i := range botRef {
					check(fmt.Sprintf("bottom %d grad", i), bot[i].Diff(), botRef[i].Diff())
				}
				for i := range lRef.Params() {
					check(fmt.Sprintf("param %d grad", i), l.Params()[i].Diff(), lRef.Params()[i].Diff())
				}
			}
		})
	}
}
