package net

import (
	"testing"

	"coarsegrain/internal/core"
	"coarsegrain/internal/data"
	"coarsegrain/internal/layers"
	"coarsegrain/internal/rng"
)

// forwardSpecs builds the tinyNet topology without the loss/accuracy
// tail — the shape a serving net has after stripping training-only
// layers.
func forwardSpecs(t testing.TB, batch int, seed uint64) []LayerSpec {
	t.Helper()
	src := data.NewSyntheticMNIST(256, seed)
	d, err := layers.NewData("data", src, batch)
	if err != nil {
		t.Fatal(err)
	}
	conv, err := layers.NewConvolution("conv1", layers.ConvConfig{
		NumOutput: 4, Kernel: 5, Stride: 2,
		WeightFiller: layers.XavierFiller{}, RNG: rng.New(seed, 10),
	})
	if err != nil {
		t.Fatal(err)
	}
	ip, err := layers.NewInnerProduct("ip1", layers.IPConfig{
		NumOutput: 10, WeightFiller: layers.XavierFiller{}, RNG: rng.New(seed, 11),
	})
	if err != nil {
		t.Fatal(err)
	}
	return []LayerSpec{
		{Layer: d, Tops: []string{"data", "label"}},
		{Layer: conv, Bottoms: []string{"data"}, Tops: []string{"conv1"}},
		{Layer: ip, Bottoms: []string{"conv1"}, Tops: []string{"ip1"}},
	}
}

func TestForwardOnlyMatchesTrainableForward(t *testing.T) {
	fwd, err := NewForward(forwardSpecs(t, 4, 3), nil)
	if err != nil {
		t.Fatal(err)
	}
	full, err := New(forwardSpecs(t, 4, 3), nil)
	if err != nil {
		t.Fatal(err)
	}
	fwd.Forward()
	full.Forward()
	a, b := fwd.Blob("ip1").Data(), full.Blob("ip1").Data()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("output %d differs: %g vs %g", i, a[i], b[i])
		}
	}
}

func TestForwardOnlyDropsGradientBuffers(t *testing.T) {
	fwd, err := NewForward(forwardSpecs(t, 4, 3), nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"data", "conv1", "ip1"} {
		if fwd.Blob(name).Diff() != nil {
			t.Fatalf("activation %q has a diff buffer in forward-only mode", name)
		}
	}
	for i, p := range fwd.Params() {
		if p.Diff() != nil {
			t.Fatalf("param %d has a diff buffer in forward-only mode", i)
		}
	}
	full, err := New(forwardSpecs(t, 4, 3), nil)
	if err != nil {
		t.Fatal(err)
	}
	if fwd.MemoryBytes() >= full.MemoryBytes() {
		t.Fatalf("forward-only net (%d B) not smaller than trainable net (%d B)",
			fwd.MemoryBytes(), full.MemoryBytes())
	}
}

func TestForwardOnlyBackwardPanics(t *testing.T) {
	fwd, err := NewForward(forwardSpecs(t, 2, 1), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Backward on a forward-only net did not panic")
		}
	}()
	fwd.Backward()
}

func TestShareParamsWith(t *testing.T) {
	ref, err := NewForward(forwardSpecs(t, 2, 5), nil)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := NewForward(forwardSpecs(t, 2, 5), nil)
	if err != nil {
		t.Fatal(err)
	}
	// Scramble the replica's own weights so a pass would differ, then
	// share: the replica must see ref's copy, not its own.
	rep.Params()[0].ScaleData(-3)
	if err := rep.ShareParamsWith(ref); err != nil {
		t.Fatal(err)
	}
	// A write through ref must be visible in rep: one copy of the weights.
	ref.Params()[0].Data()[0] = 42
	if rep.Params()[0].Data()[0] != 42 {
		t.Fatal("params not aliased after ShareParamsWith")
	}
	// Both nets must now produce identical outputs on the same input.
	ref.Params()[0].Data()[0] = 0.01
	ref.Forward()
	rep.Forward()
	a, b := ref.Blob("ip1").Data(), rep.Blob("ip1").Data()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("shared-weight outputs differ at %d", i)
		}
	}
}

// TestDynamicBatchReshape drives the serving resize path: warm at the
// maximum batch, then shrink and re-grow via Data.SetBatchSize +
// net.Reshape. Outputs for a batch of b must be bit-identical to the
// leading b rows of outputs computed at any other batch size over the
// same samples.
func TestDynamicBatchReshape(t *testing.T) {
	specs := forwardSpecs(t, 8, 7)
	fwd, err := NewForward(specs, nil)
	if err != nil {
		t.Fatal(err)
	}
	dataL := specs[0].Layer.(*layers.Data)
	dataL.Rewind()
	fwd.Forward()
	want := append([]float32(nil), fwd.Blob("ip1").Data()...)

	dataL.SetBatchSize(3)
	fwd.Reshape()
	if got := fwd.Blob("ip1").Shape()[0]; got != 3 {
		t.Fatalf("reshape to batch 3: output batch %d", got)
	}
	dataL.Rewind()
	fwd.Forward()
	got := fwd.Blob("ip1").Data()
	if len(got) != 3*10 {
		t.Fatalf("output length %d, want 30", len(got))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("batch-3 output %d differs from batch-8 row: %g vs %g", i, got[i], want[i])
		}
	}

	// Grow back to the warmed maximum: still bit-identical.
	dataL.SetBatchSize(8)
	fwd.Reshape()
	dataL.Rewind()
	fwd.Forward()
	got = fwd.Blob("ip1").Data()
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("batch-8 output %d differs after resize cycle", i)
		}
	}
}

func TestForwardOnlyWithCoarseEngine(t *testing.T) {
	eng := core.NewCoarse(3)
	defer eng.Close()
	fwd, err := NewForward(forwardSpecs(t, 4, 3), eng)
	if err != nil {
		t.Fatal(err)
	}
	seq, err := NewForward(forwardSpecs(t, 4, 3), nil)
	if err != nil {
		t.Fatal(err)
	}
	fwd.Forward()
	seq.Forward()
	a, b := fwd.Blob("ip1").Data(), seq.Blob("ip1").Data()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("coarse forward-only output %d differs from sequential", i)
		}
	}
}
