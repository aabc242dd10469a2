package zoo

import (
	"testing"

	"coarsegrain/internal/core"
	"coarsegrain/internal/data"
	"coarsegrain/internal/layers"
	"coarsegrain/internal/net"
	"coarsegrain/internal/solver"
)

func TestLeNetArchitecture(t *testing.T) {
	src := data.NewSyntheticMNIST(256, 1)
	specs, err := LeNet(src, Options{BatchSize: 64, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(specs) != 9 {
		t.Fatalf("LeNet has %d layers, want 9 (paper Figure 3)", len(specs))
	}
	n, err := net.New(specs, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Shapes from the LeNet definition: conv1 20x24x24, pool1 20x12x12,
	// conv2 50x8x8, pool2 50x4x4, ip1 500, ip2 10.
	cases := map[string][]int{
		"data":  {64, 1, 28, 28},
		"conv1": {64, 20, 24, 24},
		"pool1": {64, 20, 12, 12},
		"conv2": {64, 50, 8, 8},
		"pool2": {64, 50, 4, 4},
		"ip1":   {64, 500},
		"ip2":   {64, 10},
	}
	for name, want := range cases {
		got := n.Blob(name).Shape()
		if len(got) != len(want) {
			t.Fatalf("%s shape %v, want %v", name, got, want)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s shape %v, want %v", name, got, want)
			}
		}
	}
	loss := n.Forward()
	if loss < 1 || loss > 5 {
		t.Fatalf("untrained LeNet loss %v", loss)
	}
}

func TestCIFARFullArchitecture(t *testing.T) {
	src := data.NewSyntheticCIFAR(200, 2)
	specs, err := CIFARFull(src, Options{BatchSize: 100, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(specs) != 14 {
		t.Fatalf("CIFAR-full has %d layers, want 14 (paper Figure 3)", len(specs))
	}
	n, err := net.New(specs, nil)
	if err != nil {
		t.Fatal(err)
	}
	cases := map[string][]int{
		"data":  {100, 3, 32, 32},
		"conv1": {100, 32, 32, 32}, // pad 2 keeps 32x32
		"pool1": {100, 32, 16, 16},
		"norm1": {100, 32, 16, 16},
		"conv2": {100, 32, 16, 16},
		"pool2": {100, 32, 8, 8},
		"conv3": {100, 64, 8, 8},
		"pool3": {100, 64, 4, 4},
		"ip1":   {100, 10},
	}
	for name, want := range cases {
		got := n.Blob(name).Shape()
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s shape %v, want %v", name, got, want)
			}
		}
	}
	if loss := n.Forward(); loss < 1 || loss > 5 {
		t.Fatalf("untrained CIFAR loss %v", loss)
	}
}

func TestLeNetTrainsUnderCoarseEngine(t *testing.T) {
	src := data.NewSyntheticMNIST(256, 3)
	specs, err := LeNet(src, Options{BatchSize: 16, Seed: 3, Accuracy: true})
	if err != nil {
		t.Fatal(err)
	}
	e := core.NewCoarse(4)
	defer e.Close()
	n, err := net.New(specs, e)
	if err != nil {
		t.Fatal(err)
	}
	s, err := solver.New(LeNetSolver(), n)
	if err != nil {
		t.Fatal(err)
	}
	losses := s.Step(40)
	if losses[len(losses)-1] >= losses[0] {
		t.Fatalf("LeNet loss did not decrease: %v -> %v", losses[0], losses[len(losses)-1])
	}
}

func TestCIFARFullRunsOneIteration(t *testing.T) {
	src := data.NewSyntheticCIFAR(64, 4)
	specs, err := CIFARFull(src, Options{BatchSize: 8, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	n, err := net.New(specs, nil)
	if err != nil {
		t.Fatal(err)
	}
	s, err := solver.New(CIFARFullSolver(), n)
	if err != nil {
		t.Fatal(err)
	}
	losses := s.Step(2)
	for _, l := range losses {
		if l <= 0 || l != l {
			t.Fatalf("bad loss %v", l)
		}
	}
}

func TestBuildByName(t *testing.T) {
	src := data.NewSyntheticMNIST(64, 5)
	for _, name := range []string{"lenet", "mnist"} {
		if _, err := Build(name, src, Options{BatchSize: 4}); err != nil {
			t.Fatalf("Build(%q): %v", name, err)
		}
	}
	csrc := data.NewSyntheticCIFAR(64, 5)
	for _, name := range []string{"cifar", "cifar10", "cifar10-full"} {
		if _, err := Build(name, csrc, Options{BatchSize: 4}); err != nil {
			t.Fatalf("Build(%q): %v", name, err)
		}
	}
	if _, err := Build("alexnet", src, Options{}); err == nil {
		t.Fatal("unknown network accepted")
	}
}

func TestSolverConfigsValid(t *testing.T) {
	src := data.NewSyntheticMNIST(64, 6)
	specs, _ := LeNet(src, Options{BatchSize: 4, Seed: 6})
	n, _ := net.New(specs, nil)
	if _, err := solver.New(LeNetSolver(), n); err != nil {
		t.Fatalf("LeNetSolver config invalid: %v", err)
	}
	if _, err := solver.New(CIFARFullSolver(), n); err != nil {
		t.Fatalf("CIFARFullSolver config invalid: %v", err)
	}
}

// The solvers now come from configs/*_solver.prototxt; they must be the
// Go literals they replaced, field by field.
func TestSolversMatchCaffeLiterals(t *testing.T) {
	for _, c := range []struct {
		name      string
		got, want solver.Config
	}{
		{"lenet", LeNetSolver(), solver.Config{
			Type: solver.SGD, BaseLR: 0.01, Momentum: 0.9, WeightDecay: 0.0005,
			LRPolicy: "inv", Gamma: 0.0001, Power: 0.75,
		}},
		{"cifar10-full", CIFARFullSolver(), solver.Config{
			Type: solver.SGD, BaseLR: 0.001, Momentum: 0.9, WeightDecay: 0.004,
			LRPolicy: "fixed",
		}},
	} {
		if c.got != c.want {
			t.Errorf("%s solver %+v, want %+v", c.name, c.got, c.want)
		}
	}
}

// The zero Options are the paper-figure build: direct convolutions, the
// file's batch, no Accuracy layer; Accuracy: true adds exactly that one
// spec back.
func TestZeroOptionsAndAccuracy(t *testing.T) {
	for _, c := range []struct {
		name   string
		src    layers.Source
		batch  int
		layers int
	}{
		{"lenet", data.NewSyntheticMNIST(8, 1), 64, 9},
		{"cifar10-full", data.NewSyntheticCIFAR(8, 1), 100, 14},
	} {
		plain, err := Build(c.name, c.src, Options{})
		if err != nil {
			t.Fatal(err)
		}
		withAcc, err := Build(c.name, c.src, Options{Accuracy: true})
		if err != nil {
			t.Fatal(err)
		}
		if len(plain) != c.layers || len(withAcc) != c.layers+1 {
			t.Errorf("%s: %d specs, %d with Accuracy, want %d and %d", c.name, len(plain), len(withAcc), c.layers, c.layers+1)
		}
		if _, ok := withAcc[c.layers].Layer.(*layers.Accuracy); !ok {
			t.Errorf("%s: last spec with Accuracy is %s", c.name, withAcc[c.layers].Layer.Name())
		}
		for _, sp := range plain {
			if conv, ok := sp.Layer.(*layers.Convolution); ok && conv.Lowered() {
				t.Errorf("%s: zero Options built %s lowered", c.name, conv.Name())
			}
			if d, ok := sp.Layer.(*layers.Data); ok && d.BatchSize() != c.batch {
				t.Errorf("%s: zero Options batch %d, want the file's %d", c.name, d.BatchSize(), c.batch)
			}
		}
	}
}

func TestSeedReproducibility(t *testing.T) {
	src1 := data.NewSyntheticMNIST(64, 7)
	src2 := data.NewSyntheticMNIST(64, 7)
	s1, _ := LeNet(src1, Options{BatchSize: 4, Seed: 9})
	s2, _ := LeNet(src2, Options{BatchSize: 4, Seed: 9})
	n1, _ := net.New(s1, nil)
	n2, _ := net.New(s2, nil)
	for i := range n1.Params() {
		a, b := n1.Params()[i].Data(), n2.Params()[i].Data()
		for j := range a {
			if a[j] != b[j] {
				t.Fatal("same seed produced different weights")
			}
		}
	}
	if n1.Forward() != n2.Forward() {
		t.Fatal("same seed produced different loss")
	}
}

// The lowered-convolution variant must compute the same function as the
// direct variant (same weights, same data).
func TestLoweredConvVariantMatchesDirect(t *testing.T) {
	mk := func(lowered bool) *net.Net {
		src := data.NewSyntheticMNIST(64, 8)
		specs, err := LeNet(src, Options{BatchSize: 8, Seed: 8, LoweredConv: lowered})
		if err != nil {
			t.Fatal(err)
		}
		n, err := net.New(specs, nil)
		if err != nil {
			t.Fatal(err)
		}
		return n
	}
	a := mk(false)
	b := mk(true)
	la, lb := a.Forward(), b.Forward()
	rel := (la - lb) / la
	if rel > 1e-5 || rel < -1e-5 {
		t.Fatalf("lowered LeNet loss %v vs direct %v", lb, la)
	}
}

// TestLoweredLeNetCoarseSweep pins the implicit-GEMM convolution to the
// engine contracts at worker counts that cut the batch of 14 into even,
// ragged and single-sample bands: the forward pass (every activation and
// the loss) and every activation gradient are bit-identical to the
// sequential engine, and the parameter gradients follow the ordered
// reduction contract — bit-deterministic at a fixed worker count, within float
// summation tolerance of sequential across worker counts.
func TestLoweredLeNetCoarseSweep(t *testing.T) {
	const batch = 14
	run := func(eng core.Engine) (*net.Net, float64) {
		src := data.NewSyntheticMNIST(64, 5)
		specs, err := LeNet(src, Options{BatchSize: batch, Seed: 5, LoweredConv: true})
		if err != nil {
			t.Fatal(err)
		}
		n, err := net.New(specs, eng)
		if err != nil {
			t.Fatal(err)
		}
		n.ZeroParamDiffs()
		return n, n.ForwardBackward()
	}
	activations := []string{"conv1", "pool1", "conv2", "pool2", "ip1", "ip2"}
	seq, seqLoss := run(core.NewSequential())
	for _, p := range []int{1, 2, 3, 4, 7} {
		eng := core.NewCoarse(p)
		got, loss := run(eng)
		again, _ := run(eng)
		eng.Close()
		if loss != seqLoss {
			t.Fatalf("P=%d: loss %v, sequential %v", p, loss, seqLoss)
		}
		for _, name := range activations {
			g, w := got.Blob(name), seq.Blob(name)
			for i, v := range w.Data() {
				if g.Data()[i] != v {
					t.Fatalf("P=%d: %s activation differs from sequential at %d: %v vs %v", p, name, i, g.Data()[i], v)
				}
			}
			for i, v := range w.Diff() {
				if g.Diff()[i] != v {
					t.Fatalf("P=%d: %s gradient differs from sequential at %d: %v vs %v", p, name, i, g.Diff()[i], v)
				}
			}
		}
		for pi, w := range seq.Params() {
			g, a := got.Params()[pi].Diff(), again.Params()[pi].Diff()
			var scale float32
			for _, v := range w.Diff() {
				if v < 0 {
					v = -v
				}
				scale = max(scale, v)
			}
			for i, v := range w.Diff() {
				if g[i] != a[i] {
					t.Fatalf("P=%d: %s gradient not deterministic at %d: %v vs %v", p, seq.ParamNames()[pi], i, g[i], a[i])
				}
				if d := g[i] - v; d > 1e-4*scale || d < -1e-4*scale {
					t.Fatalf("P=%d: %s gradient %v vs sequential %v at %d (scale %v)", p, seq.ParamNames()[pi], g[i], v, i, scale)
				}
			}
		}
	}
}
