package net

import (
	"math"
	"strings"
	"testing"

	"coarsegrain/internal/core"
	"coarsegrain/internal/data"
	"coarsegrain/internal/layers"
	"coarsegrain/internal/rng"
	"coarsegrain/internal/trace"
)

// tinyNet builds a small conv net on synthetic MNIST-like data:
// data -> conv(4,5x5) -> pool(2/2) -> ip(10) -> loss.
func tinyNet(t testing.TB, batch int, seed uint64, eng core.Engine) *Net {
	t.Helper()
	return tinyNetKernel(t, batch, seed, eng, false)
}

// tinyNetKernel is tinyNet with its convolution on the direct loop nest
// or (lowered) the im2col+GEMM products.
func tinyNetKernel(t testing.TB, batch int, seed uint64, eng core.Engine, lowered bool) *Net {
	t.Helper()
	src := data.NewSyntheticMNIST(256, seed)
	d, err := layers.NewData("data", src, batch)
	if err != nil {
		t.Fatal(err)
	}
	conv, err := layers.NewConvolution("conv1", layers.ConvConfig{
		NumOutput: 4, Kernel: 5, Stride: 2, Lowered: lowered,
		WeightFiller: layers.XavierFiller{}, RNG: rng.New(seed, 10),
	})
	if err != nil {
		t.Fatal(err)
	}
	pool, err := layers.NewPooling("pool1", layers.PoolConfig{Method: layers.MaxPool, Kernel: 2, Stride: 2})
	if err != nil {
		t.Fatal(err)
	}
	ip, err := layers.NewInnerProduct("ip1", layers.IPConfig{
		NumOutput: 10, WeightFiller: layers.XavierFiller{}, RNG: rng.New(seed, 11),
	})
	if err != nil {
		t.Fatal(err)
	}
	n, err := New([]LayerSpec{
		{Layer: d, Tops: []string{"data", "label"}},
		{Layer: conv, Bottoms: []string{"data"}, Tops: []string{"conv1"}},
		{Layer: pool, Bottoms: []string{"conv1"}, Tops: []string{"pool1"}},
		{Layer: ip, Bottoms: []string{"pool1"}, Tops: []string{"ip1"}},
		{Layer: layers.NewSoftmaxWithLoss("loss"), Bottoms: []string{"ip1", "label"}, Tops: []string{"loss"}},
		{Layer: layers.NewAccuracy("acc", 1), Bottoms: []string{"ip1", "label"}, Tops: []string{"acc"}},
	}, eng)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

func TestNetBuildAndShapes(t *testing.T) {
	n := tinyNet(t, 8, 1, nil)
	if got := n.Blob("data").Shape(); got[0] != 8 || got[1] != 1 || got[2] != 28 || got[3] != 28 {
		t.Fatalf("data shape %v", got)
	}
	// conv 5x5 stride 2 on 28 -> 12; pool 2/2 -> 6.
	if got := n.Blob("conv1").Shape(); got[2] != 12 {
		t.Fatalf("conv1 shape %v", got)
	}
	if got := n.Blob("pool1").Shape(); got[2] != 6 {
		t.Fatalf("pool1 shape %v", got)
	}
	if got := n.Blob("ip1").Shape(); got[1] != 10 {
		t.Fatalf("ip1 shape %v", got)
	}
	if len(n.Params()) != 4 { // conv w+b, ip w+b
		t.Fatalf("param count %d", len(n.Params()))
	}
	if len(n.ParamNames()) != 4 {
		t.Fatal("param names mismatch")
	}
	if len(n.Layers()) != 6 {
		t.Fatalf("layer count %d", len(n.Layers()))
	}
	if !strings.Contains(n.String(), "conv1") {
		t.Fatal("String() missing layer")
	}
}

func TestNetForwardProducesFiniteLoss(t *testing.T) {
	n := tinyNet(t, 8, 2, nil)
	loss := n.Forward()
	if math.IsNaN(loss) || math.IsInf(loss, 0) || loss <= 0 {
		t.Fatalf("loss = %v", loss)
	}
	// Untrained 10-class network: loss near ln(10).
	if loss < 1 || loss > 5 {
		t.Fatalf("untrained loss %v implausible", loss)
	}
	acc, err := n.Output("acc")
	if err != nil {
		t.Fatal(err)
	}
	if acc < 0 || acc > 1 {
		t.Fatalf("accuracy %v", acc)
	}
}

func TestNetBackwardFillsGradients(t *testing.T) {
	n := tinyNet(t, 8, 3, nil)
	n.ZeroParamDiffs()
	n.ForwardBackward()
	for i, p := range n.Params() {
		if p.AsumDiff() == 0 {
			t.Fatalf("param %s has zero gradient", n.ParamNames()[i])
		}
	}
}

func TestNetErrors(t *testing.T) {
	src := data.NewSyntheticMNIST(16, 1)
	d, _ := layers.NewData("data", src, 4)
	if _, err := New(nil, nil); err == nil {
		t.Fatal("empty net accepted")
	}
	if _, err := New([]LayerSpec{{Layer: nil}}, nil); err == nil {
		t.Fatal("nil layer accepted")
	}
	// Unknown bottom.
	if _, err := New([]LayerSpec{
		{Layer: d, Tops: []string{"data", "label"}},
		{Layer: layers.NewReLU("r", 0), Bottoms: []string{"nope"}, Tops: []string{"r"}},
	}, nil); err == nil {
		t.Fatal("unknown bottom accepted")
	}
	// Duplicate top that is NOT the layer's own bottom (not in-place).
	src2 := data.NewSyntheticMNIST(16, 1)
	d2, _ := layers.NewData("data", src2, 4)
	if _, err := New([]LayerSpec{
		{Layer: d2, Tops: []string{"data", "label"}},
		{Layer: layers.NewReLU("r", 0), Bottoms: []string{"data"}, Tops: []string{"label"}},
	}, nil); err == nil {
		t.Fatal("duplicate top accepted")
	}
}

func TestNetOutputErrors(t *testing.T) {
	n := tinyNet(t, 4, 4, nil)
	if _, err := n.Output("missing"); err == nil {
		t.Fatal("missing blob accepted")
	}
	if _, err := n.Output("data"); err == nil {
		t.Fatal("non-scalar blob accepted")
	}
}

// TestNetRecorderCollectsAllLayers checks the net's one per-layer timer:
// with a tracer attached, trace.PerLayer sees every layer's passes.
func TestNetRecorderCollectsAllLayers(t *testing.T) {
	n := tinyNet(t, 8, 5, nil)
	tr := trace.New(1)
	n.SetTracer(tr)
	n.ForwardBackward()
	lt, err := trace.PerLayer(tr)
	if err != nil {
		t.Fatal(err)
	}
	if len(lt.Names) != 6 {
		t.Fatalf("recorded %d layers: %v", len(lt.Names), lt.Names)
	}
	if lt.Fwd["conv1"].Count != 1 {
		t.Fatal("conv1 forward not recorded")
	}
	if lt.Bwd["conv1"].Count != 1 {
		t.Fatal("conv1 backward not recorded")
	}
	// Accuracy has no backward (extent 0) and the data layer does not
	// backprop, so they are skipped in the backward pass.
	if lt.Bwd["data"].Count != 0 {
		t.Fatal("data backward should be skipped")
	}
}

// The central claim: running the SAME network under different engines and
// worker counts, and on either convolution kernel, produces the same
// forward loss (bitwise for coarse and fine on the same kernel, whose
// forwards have no reductions) and near-identical gradients (bitwise for
// fine on the same kernel, whose channel bands sum in sequential order).
func TestNetEngineEquivalence(t *testing.T) {
	ref := tinyNet(t, 16, 6, core.NewSequential())
	refLoss := ref.Forward()
	ref.Backward()

	for _, tc := range []struct {
		e       core.Engine
		lowered bool
	}{
		{core.NewCoarse(2), false}, {core.NewCoarse(5), false}, {core.NewCoarse(16), false},
		{core.NewFine(4), false}, {core.NewFine(4), true},
	} {
		e := tc.e
		n := tinyNetKernel(t, 16, 6, e, tc.lowered) // same seed -> same weights and data
		loss := n.Forward()
		n.Backward()
		sameKernel := !tc.lowered
		if sameKernel {
			if loss != refLoss {
				t.Fatalf("%s/%d: loss %v != sequential %v (must be bitwise)", e.Name(), e.Workers(), loss, refLoss)
			}
		} else if math.Abs(loss-refLoss) > 1e-4 {
			t.Fatalf("%s: loss %v deviates from %v", e.Name(), loss, refLoss)
		}
		bitwise := sameKernel && e.Name() == "fine"
		for i := range ref.Params() {
			a := ref.Params()[i].Diff()
			b := n.Params()[i].Diff()
			var m float64
			for j := range a {
				if d := math.Abs(float64(a[j] - b[j])); d > m {
					m = d
				}
				if bitwise && math.Float32bits(a[j]) != math.Float32bits(b[j]) {
					t.Fatalf("%s/%d: param %d gradient differs at %d: %v vs %v (must be bitwise)", e.Name(), e.Workers(), i, j, b[j], a[j])
				}
			}
			if m > 2e-3 {
				t.Fatalf("%s/%d: param %d gradient deviates by %g", e.Name(), e.Workers(), i, m)
			}
		}
		e.Close()
	}
}

func TestNetCopyParamsFrom(t *testing.T) {
	a := tinyNet(t, 4, 7, nil)
	b := tinyNet(t, 4, 8, nil) // different seed -> different weights
	if err := b.CopyParamsFrom(a); err != nil {
		t.Fatal(err)
	}
	for i := range a.Params() {
		av := a.Params()[i].Data()
		bv := b.Params()[i].Data()
		for j := range av {
			if av[j] != bv[j] {
				t.Fatal("params not copied")
			}
		}
	}
}

func TestNetSetEngineHotSwap(t *testing.T) {
	n := tinyNet(t, 8, 9, nil)
	l1 := n.Forward()
	e := core.NewCoarse(3)
	defer e.Close()
	n.SetEngine(e)
	if n.Engine() != e {
		t.Fatal("engine not swapped")
	}
	// Next batch differs (cursor advanced), but must still be finite.
	l2 := n.Forward()
	if math.IsNaN(l2) || l2 <= 0 {
		t.Fatalf("loss after engine swap: %v (first %v)", l2, l1)
	}
}

func TestNetMemoryBytes(t *testing.T) {
	n := tinyNet(t, 8, 10, nil)
	if n.MemoryBytes() <= 0 {
		t.Fatal("memory accounting broken")
	}
	// data blob alone: 8*1*28*28 floats * 2 buffers * 4 bytes.
	if n.MemoryBytes() < int64(8*28*28*8) {
		t.Fatal("memory total implausibly small")
	}
}

func TestNetSetTrainTogglesDropout(t *testing.T) {
	src := data.NewSyntheticMNIST(16, 1)
	d, _ := layers.NewData("data", src, 4)
	drop, err := layers.NewDropout("drop", 0.5, rng.New(1, 1))
	if err != nil {
		t.Fatal(err)
	}
	n, err := New([]LayerSpec{
		{Layer: d, Tops: []string{"data", "label"}},
		{Layer: drop, Bottoms: []string{"data"}, Tops: []string{"dropped"}},
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	n.SetTrain(false)
	n.Forward()
	in := n.Blob("data").Data()
	out := n.Blob("dropped").Data()
	for i := range in {
		if in[i] != out[i] {
			t.Fatal("dropout active in test mode")
		}
	}
}

// Propagation analysis: the first conv's bottom (data) needs no gradient,
// so its propagateDown must be disabled and the data blob diff untouched.
func TestNetDisablesGradientIntoData(t *testing.T) {
	n := tinyNet(t, 8, 11, nil)
	dataBlob := n.Blob("data")
	for i := range dataBlob.Diff() {
		dataBlob.Diff()[i] = 42
	}
	n.ForwardBackward()
	for _, v := range dataBlob.Diff() {
		if v != 42 {
			t.Fatal("gradient propagated into the data blob")
		}
	}
	// But the conv's own weights did get gradients.
	if n.Params()[0].AsumDiff() == 0 {
		t.Fatal("conv weights got no gradient")
	}
}

// Two gradient-producing consumers of one blob must be rejected: bottom
// diffs overwrite, so the second writer would silently clobber the first.
func TestNetRejectsConflictingGradientWriters(t *testing.T) {
	src := data.NewSyntheticMNIST(16, 1)
	d, _ := layers.NewData("data", src, 4)
	ipA, _ := layers.NewInnerProduct("ipA", layers.IPConfig{NumOutput: 10, RNG: rng.New(1, 1)})
	ipB, _ := layers.NewInnerProduct("ipB", layers.IPConfig{NumOutput: 10, RNG: rng.New(1, 2)})
	// Both inner products consume (and would backprop into) "mid".
	relu := layers.NewReLU("mid", 0)
	conv, _ := layers.NewConvolution("conv", layers.ConvConfig{NumOutput: 2, Kernel: 5, Stride: 2, RNG: rng.New(1, 3)})
	_, err := New([]LayerSpec{
		{Layer: d, Tops: []string{"data", "label"}},
		{Layer: conv, Bottoms: []string{"data"}, Tops: []string{"conv"}},
		{Layer: relu, Bottoms: []string{"conv"}, Tops: []string{"mid"}},
		{Layer: ipA, Bottoms: []string{"mid"}, Tops: []string{"a"}},
		{Layer: ipB, Bottoms: []string{"mid"}, Tops: []string{"b"}},
		{Layer: layers.NewEltwise("sum", layers.EltwiseSum, nil), Bottoms: []string{"a", "b"}, Tops: []string{"sum"}},
		{Layer: layers.NewSoftmaxWithLoss("loss"), Bottoms: []string{"sum", "label"}, Tops: []string{"loss"}},
	}, nil)
	if err == nil {
		t.Fatal("conflicting gradient writers accepted")
	}
	if !strings.Contains(err.Error(), "Eltwise") {
		t.Fatalf("error should suggest a combining layer: %v", err)
	}
}

// branchingNet builds a residual-style DAG:
// data -> conv -> relu -> split -> (ipA, ipB) -> eltwise-sum -> loss,
// validating Split + Eltwise end to end under an engine.
func branchingNet(t *testing.T, seed uint64, eng core.Engine) *Net {
	t.Helper()
	src := data.NewSyntheticMNIST(128, seed)
	d, err := layers.NewData("data", src, 8)
	if err != nil {
		t.Fatal(err)
	}
	conv, err := layers.NewConvolution("conv", layers.ConvConfig{
		NumOutput: 4, Kernel: 5, Stride: 2, WeightFiller: layers.XavierFiller{}, RNG: rng.New(seed, 1),
	})
	if err != nil {
		t.Fatal(err)
	}
	ipA, err := layers.NewInnerProduct("ipA", layers.IPConfig{NumOutput: 10, WeightFiller: layers.XavierFiller{}, RNG: rng.New(seed, 2)})
	if err != nil {
		t.Fatal(err)
	}
	ipB, err := layers.NewInnerProduct("ipB", layers.IPConfig{NumOutput: 10, WeightFiller: layers.XavierFiller{}, RNG: rng.New(seed, 3)})
	if err != nil {
		t.Fatal(err)
	}
	n, err := New([]LayerSpec{
		{Layer: d, Tops: []string{"data", "label"}},
		{Layer: conv, Bottoms: []string{"data"}, Tops: []string{"conv"}},
		{Layer: layers.NewReLU("relu", 0), Bottoms: []string{"conv"}, Tops: []string{"relu"}},
		{Layer: layers.NewSplit("split"), Bottoms: []string{"relu"}, Tops: []string{"r1", "r2"}},
		{Layer: ipA, Bottoms: []string{"r1"}, Tops: []string{"a"}},
		{Layer: ipB, Bottoms: []string{"r2"}, Tops: []string{"b"}},
		{Layer: layers.NewEltwise("sum", layers.EltwiseSum, nil), Bottoms: []string{"a", "b"}, Tops: []string{"sum"}},
		{Layer: layers.NewSoftmaxWithLoss("loss"), Bottoms: []string{"sum", "label"}, Tops: []string{"loss"}},
	}, eng)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

func TestBranchingDAGGradientsAndEngineEquivalence(t *testing.T) {
	ref := branchingNet(t, 44, core.NewSequential())
	refLoss := ref.Forward()
	ref.ZeroParamDiffs()
	ref.Backward()
	// All four parameterized blobs get gradients through the DAG.
	for i, p := range ref.Params() {
		if p.AsumDiff() == 0 {
			t.Fatalf("param %s got no gradient through the DAG", ref.ParamNames()[i])
		}
	}
	e := core.NewCoarse(4)
	defer e.Close()
	n := branchingNet(t, 44, e)
	if loss := n.Forward(); loss != refLoss {
		t.Fatalf("coarse DAG loss %v != sequential %v", loss, refLoss)
	}
	n.ZeroParamDiffs()
	n.Backward()
	for i := range ref.Params() {
		a, b := ref.Params()[i].Diff(), n.Params()[i].Diff()
		for j := range a {
			d := float64(a[j] - b[j])
			if d > 1e-4 || d < -1e-4 {
				t.Fatalf("DAG param %d grad deviates", i)
			}
		}
	}
}

func TestBranchingDAGTrains(t *testing.T) {
	// The DAG must actually learn (Split backward sums both branches).
	n := branchingNet(t, 45, nil)
	var first, last float64
	for i := 0; i < 30; i++ {
		n.ZeroParamDiffs()
		loss := n.ForwardBackward()
		if i == 0 {
			first = loss
		}
		last = loss
		// Plain SGD step.
		for _, p := range n.Params() {
			p.ScaleDiff(0.05)
			p.Update()
		}
	}
	if last >= first {
		t.Fatalf("branching DAG did not learn: %v -> %v", first, last)
	}
}

// In-place layers: Caffe runs ReLU with top == bottom. The net must
// alias the blob, and training must match the out-of-place variant bit for
// bit — for every activation, since their range kernels then read and
// write one buffer (forward: in = out; backward: x = y, dy = dx).
func TestInPlaceReLUMatchesOutOfPlace(t *testing.T) {
	activations := map[string]func() layers.Layer{
		"ReLU":      func() layers.Layer { return layers.NewReLU("act", 0) },
		"LeakyReLU": func() layers.Layer { return layers.NewReLU("act", 0.1) },
		"Sigmoid":   func() layers.Layer { return layers.NewSigmoid("act") },
		"TanH":      func() layers.Layer { return layers.NewTanH("act") },
	}
	build := func(act layers.Layer, inPlace bool) *Net {
		src := data.NewSyntheticMNIST(128, 50)
		d, err := layers.NewData("data", src, 8)
		if err != nil {
			t.Fatal(err)
		}
		conv, err := layers.NewConvolution("conv", layers.ConvConfig{
			NumOutput: 4, Kernel: 5, Stride: 2, WeightFiller: layers.XavierFiller{}, RNG: rng.New(50, 1),
		})
		if err != nil {
			t.Fatal(err)
		}
		ip, err := layers.NewInnerProduct("ip", layers.IPConfig{NumOutput: 10, WeightFiller: layers.XavierFiller{}, RNG: rng.New(50, 2)})
		if err != nil {
			t.Fatal(err)
		}
		reluTop := "relu"
		ipBottom := "relu"
		if inPlace {
			reluTop = "conv" // same as bottom: in-place
			ipBottom = "conv"
		}
		n, err := New([]LayerSpec{
			{Layer: d, Tops: []string{"data", "label"}},
			{Layer: conv, Bottoms: []string{"data"}, Tops: []string{"conv"}},
			{Layer: act, Bottoms: []string{"conv"}, Tops: []string{reluTop}},
			{Layer: ip, Bottoms: []string{ipBottom}, Tops: []string{"ip"}},
			{Layer: layers.NewSoftmaxWithLoss("loss"), Bottoms: []string{"ip", "label"}, Tops: []string{"loss"}},
		}, nil)
		if err != nil {
			t.Fatal(err)
		}
		return n
	}
	for name, act := range activations {
		ref := build(act(), false)
		n := build(act(), true)
		// Blob is aliased, not duplicated.
		if n.Blob("relu") != nil {
			t.Fatalf("%s: in-place net created a separate relu blob", name)
		}
		// Identical training trajectories.
		for i := 0; i < 5; i++ {
			ref.ZeroParamDiffs()
			n.ZeroParamDiffs()
			lossRef := ref.ForwardBackward()
			loss := n.ForwardBackward()
			if loss != lossRef {
				t.Fatalf("%s iter %d: in-place loss %v != %v", name, i, loss, lossRef)
			}
			for pi := range ref.Params() {
				a, b := ref.Params()[pi].Diff(), n.Params()[pi].Diff()
				for j := range a {
					if a[j] != b[j] {
						t.Fatalf("%s iter %d: param %d grad differs in place", name, i, pi)
					}
				}
				ref.Params()[pi].ScaleDiff(0.1)
				n.Params()[pi].ScaleDiff(0.1)
				ref.Params()[pi].Update()
				n.Params()[pi].Update()
			}
		}
	}
}

func TestInPlaceRejectedForNonCapableLayer(t *testing.T) {
	src := data.NewSyntheticMNIST(16, 51)
	d, _ := layers.NewData("data", src, 4)
	conv, _ := layers.NewConvolution("conv", layers.ConvConfig{NumOutput: 1, Kernel: 3, RNG: rng.New(51, 1)})
	_, err := New([]LayerSpec{
		{Layer: d, Tops: []string{"data", "label"}},
		{Layer: conv, Bottoms: []string{"data"}, Tops: []string{"data"}}, // conv cannot run in place
	}, nil)
	if err == nil {
		t.Fatal("in-place convolution accepted")
	}
}

func TestInPlaceUnderCoarseEngine(t *testing.T) {
	src := data.NewSyntheticMNIST(64, 52)
	d, _ := layers.NewData("data", src, 8)
	conv, _ := layers.NewConvolution("conv", layers.ConvConfig{
		NumOutput: 3, Kernel: 5, Stride: 2, WeightFiller: layers.XavierFiller{}, RNG: rng.New(52, 1)})
	ip, _ := layers.NewInnerProduct("ip", layers.IPConfig{NumOutput: 10, WeightFiller: layers.XavierFiller{}, RNG: rng.New(52, 2)})
	e := core.NewCoarse(4)
	defer e.Close()
	n, err := New([]LayerSpec{
		{Layer: d, Tops: []string{"data", "label"}},
		{Layer: conv, Bottoms: []string{"data"}, Tops: []string{"conv"}},
		{Layer: layers.NewSigmoid("sig"), Bottoms: []string{"conv"}, Tops: []string{"conv"}}, // in place
		{Layer: ip, Bottoms: []string{"conv"}, Tops: []string{"ip"}},
		{Layer: layers.NewSoftmaxWithLoss("loss"), Bottoms: []string{"ip", "label"}, Tops: []string{"loss"}},
	}, e)
	if err != nil {
		t.Fatal(err)
	}
	n.ZeroParamDiffs()
	loss := n.ForwardBackward()
	if loss <= 0 || math.IsNaN(loss) {
		t.Fatalf("loss %v", loss)
	}
	for i, p := range n.Params() {
		if p.AsumDiff() == 0 {
			t.Fatalf("param %d got no gradient through in-place layer", i)
		}
	}
}
