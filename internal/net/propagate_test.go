package net

import (
	"testing"

	"coarsegrain/internal/blob"
	"coarsegrain/internal/core"
	"coarsegrain/internal/data"
	"coarsegrain/internal/layers"
	"coarsegrain/internal/rng"
)

// countingEngine runs every pass on a sequential engine and counts the
// Backward calls each layer receives.
type countingEngine struct {
	core.Engine
	backward map[string]int
}

func newCountingEngine(t *testing.T) *countingEngine {
	e := &countingEngine{Engine: core.NewSequential(), backward: map[string]int{}}
	t.Cleanup(e.Close)
	return e
}

func (e *countingEngine) Backward(l layers.Layer, bottom, top []*blob.Blob) {
	e.backward[l.Name()]++
	e.Engine.Backward(l, bottom, top)
}

// fillDiff sets every gradient element of b to v.
func fillDiff(b *blob.Blob, v float32) {
	for i := range b.Diff() {
		b.Diff()[i] = v
	}
}

// untouched reports whether every gradient element of b still holds v.
func untouched(b *blob.Blob, v float32) bool {
	for _, d := range b.Diff() {
		if d != v {
			return false
		}
	}
	return true
}

// TestNetSkipsLayersWithoutGradientWork pins the rule that lets layers
// carry no propagate-down guard: a layer with no parameters, that is no
// loss, and whose bottoms need no gradient never runs backward. Here the
// ReLU reads the data blob, so its Backward must never be called, while
// the inner product and the loss above it run once per pass.
func TestNetSkipsLayersWithoutGradientWork(t *testing.T) {
	d, err := layers.NewData("data", data.NewSyntheticMNIST(16, 3), 4)
	if err != nil {
		t.Fatal(err)
	}
	ip, err := layers.NewInnerProduct("ip", layers.IPConfig{NumOutput: 10, RNG: rng.New(3, 1)})
	if err != nil {
		t.Fatal(err)
	}
	eng := newCountingEngine(t)
	n, err := New([]LayerSpec{
		{Layer: d, Tops: []string{"data", "label"}},
		{Layer: layers.NewReLU("relu", 0), Bottoms: []string{"data"}, Tops: []string{"act"}},
		{Layer: ip, Bottoms: []string{"act"}, Tops: []string{"ip"}},
		{Layer: layers.NewSoftmaxWithLoss("loss"), Bottoms: []string{"ip", "label"}, Tops: []string{"loss"}},
	}, eng)
	if err != nil {
		t.Fatal(err)
	}
	fillDiff(n.Blob("data"), 42)
	const passes = 2
	for range passes {
		n.ForwardBackward()
	}
	if got := eng.backward["relu"]; got != 0 {
		t.Fatalf("relu ran backward %d times; its bottom needs no gradient", got)
	}
	for _, name := range []string{"ip", "loss"} {
		if got := eng.backward[name]; got != passes {
			t.Fatalf("%s ran backward %d times, want %d", name, got, passes)
		}
	}
	if !untouched(n.Blob("data"), 42) {
		t.Fatal("gradient written into the data blob")
	}
}

// TestMultiBottomLayersLeaveDataDiffAlone: a Concat or Eltwise that reads
// the data blob beside a convolution's top runs backward (the convolution
// needs its gradient), so the flags the net hands it must keep it off the
// data blob's diff while it still writes the convolution's.
func TestMultiBottomLayersLeaveDataDiffAlone(t *testing.T) {
	for _, tc := range []struct {
		name    string
		outputs int // the convolution's channels
		mk      func() layers.Layer
	}{
		{"Concat", 3, func() layers.Layer { return layers.NewConcat("join") }},
		{"Eltwise", 1, func() layers.Layer { return layers.NewEltwise("join", layers.EltwiseSum, nil) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			d, err := layers.NewData("data", data.NewSyntheticMNIST(16, 4), 4)
			if err != nil {
				t.Fatal(err)
			}
			conv, err := layers.NewConvolution("conv", layers.ConvConfig{NumOutput: tc.outputs, Kernel: 1, RNG: rng.New(4, 1)})
			if err != nil {
				t.Fatal(err)
			}
			ip, err := layers.NewInnerProduct("ip", layers.IPConfig{NumOutput: 10, RNG: rng.New(4, 2)})
			if err != nil {
				t.Fatal(err)
			}
			eng := newCountingEngine(t)
			n, err := New([]LayerSpec{
				{Layer: d, Tops: []string{"data", "label"}},
				{Layer: conv, Bottoms: []string{"data"}, Tops: []string{"conv"}},
				{Layer: tc.mk(), Bottoms: []string{"data", "conv"}, Tops: []string{"join"}},
				{Layer: ip, Bottoms: []string{"join"}, Tops: []string{"ip"}},
				{Layer: layers.NewSoftmaxWithLoss("loss"), Bottoms: []string{"ip", "label"}, Tops: []string{"loss"}},
			}, eng)
			if err != nil {
				t.Fatal(err)
			}
			fillDiff(n.Blob("data"), 42)
			fillDiff(n.Blob("conv"), 42)
			n.ForwardBackward()
			if eng.backward["join"] != 1 {
				t.Fatalf("%s ran backward %d times, want 1", tc.name, eng.backward["join"])
			}
			if !untouched(n.Blob("data"), 42) {
				t.Fatalf("%s wrote a gradient into the data blob", tc.name)
			}
			if untouched(n.Blob("conv"), 42) {
				t.Fatalf("%s wrote no gradient into the convolution's top", tc.name)
			}
		})
	}
}
