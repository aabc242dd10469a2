package solver

import (
	"math"
	"testing"

	"coarsegrain/internal/core"
	"coarsegrain/internal/data"
	"coarsegrain/internal/layers"
	"coarsegrain/internal/net"
	"coarsegrain/internal/rng"
)

// buildNet constructs a small trainable net on synthetic MNIST.
func buildNet(t *testing.T, seed uint64, eng core.Engine) *net.Net {
	t.Helper()
	src := data.NewSyntheticMNIST(512, seed)
	d, err := layers.NewData("data", src, 16)
	if err != nil {
		t.Fatal(err)
	}
	conv, err := layers.NewConvolution("conv1", layers.ConvConfig{
		NumOutput: 6, Kernel: 5, Stride: 2,
		WeightFiller: layers.XavierFiller{}, RNG: rng.New(seed, 1),
	})
	if err != nil {
		t.Fatal(err)
	}
	pool, err := layers.NewPooling("pool1", layers.PoolConfig{Method: layers.MaxPool, Kernel: 2, Stride: 2})
	if err != nil {
		t.Fatal(err)
	}
	ip, err := layers.NewInnerProduct("ip1", layers.IPConfig{
		NumOutput: 10, WeightFiller: layers.XavierFiller{}, RNG: rng.New(seed, 2),
	})
	if err != nil {
		t.Fatal(err)
	}
	n, err := net.New([]net.LayerSpec{
		{Layer: d, Tops: []string{"data", "label"}},
		{Layer: conv, Bottoms: []string{"data"}, Tops: []string{"conv1"}},
		{Layer: pool, Bottoms: []string{"conv1"}, Tops: []string{"pool1"}},
		{Layer: layers.NewReLU("relu1", 0), Bottoms: []string{"pool1"}, Tops: []string{"relu1"}},
		{Layer: ip, Bottoms: []string{"relu1"}, Tops: []string{"ip1"}},
		{Layer: layers.NewSoftmaxWithLoss("loss"), Bottoms: []string{"ip1", "label"}, Tops: []string{"loss"}},
		{Layer: layers.NewAccuracy("acc", 1), Bottoms: []string{"ip1", "label"}, Tops: []string{"acc"}},
	}, eng)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// BuildTestNet exposes buildNet to bitwise_test.go, which imports zoo
// (and through it this package) and so must be an external test.
var BuildTestNet = buildNet

func TestConfigValidation(t *testing.T) {
	n := buildNet(t, 1, nil)
	cases := []Config{
		{BaseLR: 0},                                 // missing lr
		{BaseLR: 0.1, LRPolicy: "bogus"},            // bad policy
		{BaseLR: 0.1, LRPolicy: "step"},             // step without size
		{BaseLR: 0.1, Momentum: 1.5},                // bad momentum
		{BaseLR: 0.1, Type: "LBFGS"},                // unknown type
		{BaseLR: 0.1, Type: AdaGrad, Momentum: 0.9}, // adagrad+momentum
	}
	for i, c := range cases {
		if _, err := New(c, n); err == nil {
			t.Fatalf("case %d: bad config accepted: %+v", i, c)
		}
	}
	if _, err := New(Config{BaseLR: 0.1}, nil); err == nil {
		t.Fatal("nil net accepted")
	}
	if _, err := New(Config{BaseLR: 0.1}, n); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
}

func TestLearningRatePolicies(t *testing.T) {
	n := buildNet(t, 2, nil)
	mk := func(c Config) *Solver {
		s, err := New(c, n)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	s := mk(Config{BaseLR: 0.1, LRPolicy: "fixed"})
	s.iter = 100
	if s.LearningRate() != 0.1 {
		t.Fatal("fixed policy changed lr")
	}
	s = mk(Config{BaseLR: 0.1, LRPolicy: "step", Gamma: 0.5, StepSize: 10})
	s.iter = 25
	if got, want := s.LearningRate(), float32(0.1*0.25); math.Abs(float64(got-want)) > 1e-7 {
		t.Fatalf("step lr = %v, want %v", got, want)
	}
	s = mk(Config{BaseLR: 0.1, LRPolicy: "exp", Gamma: 0.9})
	s.iter = 2
	if got, want := s.LearningRate(), float32(0.1*0.81); math.Abs(float64(got-want)) > 1e-7 {
		t.Fatalf("exp lr = %v, want %v", got, want)
	}
	s = mk(Config{BaseLR: 0.01, LRPolicy: "inv", Gamma: 0.0001, Power: 0.75})
	s.iter = 10000
	want := 0.01 * math.Pow(1+0.0001*10000, -0.75)
	if got := float64(s.LearningRate()); math.Abs(got-want) > 1e-8 {
		t.Fatalf("inv lr = %v, want %v", got, want)
	}
}

func TestSGDStepHandComputed(t *testing.T) {
	// One parameter, one iteration, by hand:
	// h1 = mu*0 + lr*g; w1 = w0 - h1.
	n := buildNet(t, 3, nil)
	s, err := New(Config{Type: SGD, BaseLR: 0.5, Momentum: 0.9}, n)
	if err != nil {
		t.Fatal(err)
	}
	p := n.Params()[0]
	w0 := p.Data()[0]
	n.ZeroParamDiffs()
	n.ForwardBackward()
	g := p.Diff()[0]
	s.applyUpdate()
	want := w0 - 0.5*g
	if got := p.Data()[0]; math.Abs(float64(got-want)) > 1e-6 {
		t.Fatalf("sgd step: got %v, want %v", got, want)
	}
	// Second step uses momentum: h2 = 0.9*h1 + lr*g2.
	h1 := 0.5 * g
	w1 := p.Data()[0]
	n.ZeroParamDiffs()
	n.ForwardBackward()
	g2 := p.Diff()[0]
	s.applyUpdate()
	want2 := w1 - (0.9*h1 + 0.5*g2)
	if got := p.Data()[0]; math.Abs(float64(got-want2)) > 1e-6 {
		t.Fatalf("sgd momentum step: got %v, want %v", got, want2)
	}
}

func TestWeightDecayPullsTowardZero(t *testing.T) {
	// With zero gradient (fabricated), weight decay alone shrinks weights.
	n := buildNet(t, 4, nil)
	s, err := New(Config{Type: SGD, BaseLR: 0.1, WeightDecay: 0.5}, n)
	if err != nil {
		t.Fatal(err)
	}
	p := n.Params()[0]
	p.Data()[0] = 1.0
	n.ZeroParamDiffs() // all-zero gradients
	s.applyUpdate()
	// w -= lr * wd * w = 1 - 0.1*0.5*1 = 0.95.
	if got := p.Data()[0]; math.Abs(float64(got-0.95)) > 1e-6 {
		t.Fatalf("weight decay step: got %v, want 0.95", got)
	}
}

func TestTrainingReducesLoss(t *testing.T) {
	for _, typ := range []Type{SGD, AdaGrad, Nesterov} {
		n := buildNet(t, 5, nil)
		cfg := Config{Type: typ, BaseLR: 0.05}
		if typ != AdaGrad {
			cfg.Momentum = 0.9
			cfg.BaseLR = 0.01
		}
		s, err := New(cfg, n)
		if err != nil {
			t.Fatal(err)
		}
		losses := s.Step(60)
		if s.Iter() != 60 {
			t.Fatalf("iter = %d", s.Iter())
		}
		first := avg(losses[:10])
		last := avg(losses[len(losses)-10:])
		if !(last < first*0.7) {
			t.Fatalf("%s: loss did not decrease: first10 %v, last10 %v", typ, first, last)
		}
		if math.IsNaN(last) {
			t.Fatalf("%s: NaN loss", typ)
		}
	}
}

func TestTrainingReachesAccuracy(t *testing.T) {
	n := buildNet(t, 6, nil)
	s, err := New(Config{Type: SGD, BaseLR: 0.01, Momentum: 0.9}, n)
	if err != nil {
		t.Fatal(err)
	}
	s.Step(150)
	acc, err := n.Output("acc")
	if err != nil {
		t.Fatal(err)
	}
	if acc < 0.6 {
		t.Fatalf("accuracy after training = %v, want >= 0.6", acc)
	}
}

// Convergence invariance (the paper's second headline property): the loss
// trace under the coarse engine matches the sequential trace closely for
// every worker count, and is bit-identical between repeated runs at a
// fixed worker count.
func TestConvergenceInvariance(t *testing.T) {
	trace := func(eng core.Engine, iters int) []float64 {
		n := buildNet(t, 7, eng)
		s, err := New(Config{Type: SGD, BaseLR: 0.01, Momentum: 0.9}, n)
		if err != nil {
			t.Fatal(err)
		}
		return s.Step(iters)
	}
	ref := trace(core.NewSequential(), 40)
	for _, w := range []int{2, 4, 8} {
		e := core.NewCoarse(w)
		got := trace(e, 40)
		e.Close()
		for i := range ref {
			// Floating-point reassociation in the ordered reduction grows
			// slowly; the trajectory must stay within a tight relative band.
			rel := math.Abs(got[i]-ref[i]) / math.Max(math.Abs(ref[i]), 1e-8)
			if rel > 5e-3 {
				t.Fatalf("workers=%d: loss trace diverged at iter %d: %v vs %v (rel %g)",
					w, i, got[i], ref[i], rel)
			}
		}
		// Bitwise determinism at fixed worker count.
		e1 := core.NewCoarse(w)
		a := trace(e1, 15)
		e1.Close()
		e2 := core.NewCoarse(w)
		b := trace(e2, 15)
		e2.Close()
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("workers=%d: repeated runs differ at iter %d: %v vs %v", w, i, a[i], b[i])
			}
		}
	}
}

func avg(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
