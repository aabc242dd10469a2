package net

import (
	"math"
	"testing"

	"coarsegrain/internal/core"
	"coarsegrain/internal/data"
	"coarsegrain/internal/layers"
	"coarsegrain/internal/rng"
)

// randomNet builds a random-but-valid convolutional stack: data followed
// by 2-5 random feature layers (conv / pool / relu / sigmoid / lrn /
// batchnorm / dropout), a flatten-free InnerProduct head and a softmax
// loss. The generator is the executable form of the paper's
// network-agnostic claim: the coarse engine must handle *whatever* comes
// out of it, bit-identically in the forward pass and within float
// tolerance in the gradients.
func randomNet(t *testing.T, r *rng.RNG, eng core.Engine) *Net {
	t.Helper()
	seed := r.Uint64()
	wrng := rng.New(seed, 1)
	src := data.NewSyntheticMNIST(64, seed)
	batch := 2 + r.Intn(7) // 2..8
	d, err := layers.NewData("data", src, batch)
	if err != nil {
		t.Fatal(err)
	}
	specs := []LayerSpec{{Layer: d, Tops: []string{"data", "label"}}}
	prev := "data"
	channels := 1
	spatial := 28
	nLayers := 2 + r.Intn(4)
	mk := func(name string, l layers.Layer, err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		specs = append(specs, LayerSpec{Layer: l, Bottoms: []string{prev}, Tops: []string{name}})
		prev = name
	}
	for i := 0; i < nLayers && spatial >= 6; i++ {
		name := string(rune('a'+i)) + "L"
		switch r.Intn(6) {
		case 0: // conv
			kernel := 3 + 2*r.Intn(2) // 3 or 5
			out := 1 + r.Intn(6)
			lowered := r.Bernoulli(0.5)
			l, err := layers.NewConvolution(name, layers.ConvConfig{
				NumOutput: out, Kernel: kernel, Pad: r.Intn(2), Lowered: lowered,
				WeightFiller: layers.GaussianFiller{Std: 0.2}, RNG: wrng.Split(uint64(i)),
			})
			mk(name, l, err)
			channels = out
			// Worst case (pad 0, stride 1): spatial shrinks by kernel-1.
			// The tracker only guards the loop; exact shapes come from
			// the net's own inference.
			spatial = spatial - kernel + 1
		case 1: // pooling
			method := layers.MaxPool
			if r.Bernoulli(0.5) {
				method = layers.AvePool
			}
			l, err := layers.NewPooling(name, layers.PoolConfig{Method: method, Kernel: 2, Stride: 2})
			mk(name, l, err)
			spatial = (spatial + 1) / 2
		case 2:
			mk(name, layers.NewReLU(name, 0.05), nil)
		case 3:
			mk(name, layers.NewSigmoid(name), nil)
		case 4:
			l, err := layers.NewLRN(name, layers.LRNConfig{LocalSize: 3, Alpha: 0.01, Beta: 0.75})
			mk(name, l, err)
		case 5:
			l, err := layers.NewBatchNorm(name, layers.BNConfig{})
			mk(name, l, err)
		}
		_ = channels
	}
	ip, err := layers.NewInnerProduct("head", layers.IPConfig{
		NumOutput: 10, WeightFiller: layers.GaussianFiller{Std: 0.1}, RNG: wrng.Split(99),
	})
	if err != nil {
		t.Fatal(err)
	}
	specs = append(specs,
		LayerSpec{Layer: ip, Bottoms: []string{prev}, Tops: []string{"head"}},
		LayerSpec{Layer: layers.NewSoftmaxWithLoss("loss"), Bottoms: []string{"head", "label"}, Tops: []string{"loss"}},
	)
	n, err := New(specs, eng)
	if err != nil {
		t.Fatalf("random net invalid (seed construction bug): %v\n%v", err, specs)
	}
	return n
}

// TestRandomNetsEngineEquivalence fuzzes architectures and checks the
// coarse engine against sequential on each.
func TestRandomNetsEngineEquivalence(t *testing.T) {
	const trials = 12
	for trial := 0; trial < trials; trial++ {
		r := rng.New(1234, uint64(trial))
		ref := randomNet(t, r, core.NewSequential())
		refLoss := ref.Forward()
		ref.ZeroParamDiffs()
		ref.Backward()

		r2 := rng.New(1234, uint64(trial)) // identical construction stream
		workers := 2 + int(r.Uint32()%7)
		e := core.NewCoarse(workers)
		n := randomNet(t, r2, e)

		loss := n.Forward()
		if loss != refLoss {
			t.Fatalf("trial %d (workers=%d): forward loss %v != %v\nnet:\n%s",
				trial, workers, loss, refLoss, n)
		}
		n.ZeroParamDiffs()
		n.Backward()
		for pi := range ref.Params() {
			a, b := ref.Params()[pi].Diff(), n.Params()[pi].Diff()
			var m float64
			for j := range a {
				if d := math.Abs(float64(a[j] - b[j])); d > m {
					m = d
				}
			}
			// Scale tolerance by gradient magnitude.
			scale := math.Max(ref.Params()[pi].AsumDiff()/float64(len(a)+1), 1)
			if m > 1e-3*scale {
				t.Fatalf("trial %d (workers=%d): param %s grad deviates by %g\nnet:\n%s",
					trial, workers, ref.ParamNames()[pi], m, n)
			}
		}
		e.Close()
	}
}

// TestRandomNetsFineEngineRuns fuzzes the fine engine across random
// architectures, whose convolutions are direct or lowered at random: no
// crash, no NaN, and the sequential engine's loss within float tolerance.
func TestRandomNetsFineEngineRuns(t *testing.T) {
	for trial := 0; trial < 6; trial++ {
		ref := randomNet(t, rng.New(777, uint64(trial)), core.NewSequential())
		refLoss := ref.ForwardBackward()
		e := core.NewFine(3)
		n := randomNet(t, rng.New(777, uint64(trial)), e)
		n.ZeroParamDiffs()
		loss := n.ForwardBackward()
		if math.IsNaN(loss) || math.IsInf(loss, 0) || math.Abs(loss-refLoss) > 1e-4*math.Max(1, math.Abs(refLoss)) {
			t.Fatalf("trial %d: fine engine produced loss %v, sequential %v\n%s", trial, loss, refLoss, n)
		}
		e.Close()
	}
}
