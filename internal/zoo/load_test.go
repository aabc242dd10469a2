package zoo

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"coarsegrain/internal/layers"
	"coarsegrain/internal/net"
	"coarsegrain/internal/solver"
)

const (
	lenetFile = "../../configs/lenet.prototxt"
	cifarFile = "../../configs/cifar10_full.prototxt"
)

// TestLoadResolvesEveryFrontEndDefault is the table the six front ends
// used to each carry a piece of: for a zoo name and for its configs file
// the loader must settle the same dataset, batch, input shape, class
// count, score blob and solver — and build lowered convolutions only.
func TestLoadResolvesEveryFrontEndDefault(t *testing.T) {
	cases := []struct {
		ref     Ref
		dataset string
		batch   int
		shape   []int
		scores  string
		solver  solver.Config
		convs   int
	}{
		{Ref{Zoo: "lenet"}, "mnist", 64, []int{1, 28, 28}, "ip2", LeNetSolver(), 2},
		{Ref{Zoo: "cifar10-full"}, "cifar", 100, []int{3, 32, 32}, "ip1", CIFARFullSolver(), 3},
		{Ref{Model: lenetFile}, "mnist", 64, []int{1, 28, 28}, "ip2", LeNetSolver(), 2},
		{Ref{Model: cifarFile}, "cifar", 100, []int{3, 32, 32}, "ip1", CIFARFullSolver(), 3},
		// -model wins over a defaulted -zoo (dnncluster's is "lenet").
		{Ref{Zoo: "lenet", Model: cifarFile}, "cifar", 100, []int{3, 32, 32}, "ip1", CIFARFullSolver(), 3},
	}
	for _, c := range cases {
		c.ref.Samples, c.ref.Seed = 8, 3
		m, err := Load(c.ref)
		if err != nil {
			t.Fatalf("%+v: %v", c.ref, err)
		}
		if m.Dataset != c.dataset || m.Batch != c.batch || m.Real || m.Source.Len() != 8 {
			t.Errorf("%s: dataset %q batch %d real %v len %d, want %q %d false 8",
				m.Name, m.Dataset, m.Batch, m.Real, m.Source.Len(), c.dataset, c.batch)
		}
		if !reflect.DeepEqual(m.Source.SampleShape(), c.shape) || m.Source.Classes() != 10 {
			t.Errorf("%s: sample shape %v classes %d, want %v 10", m.Name, m.Source.SampleShape(), m.Source.Classes(), c.shape)
		}
		if m.Solver != c.solver {
			t.Errorf("%s: solver %+v, want %+v", m.Name, m.Solver, c.solver)
		}
		if sb, err := m.ScoreBlob(); err != nil || sb != c.scores {
			t.Errorf("%s: score blob %q (%v), want %q", m.Name, sb, err, c.scores)
		}
		specs, err := m.Specs(m.Source, 0)
		if err != nil {
			t.Fatalf("%s: %v", m.Name, err)
		}
		convs := 0
		for _, sp := range specs {
			if conv, ok := sp.Layer.(*layers.Convolution); ok {
				convs++
				if !conv.Lowered() {
					t.Errorf("%s: convolution %s is on the direct path", m.Name, conv.Name())
				}
			}
		}
		if convs != c.convs {
			t.Errorf("%s: %d convolutions, want %d", m.Name, convs, c.convs)
		}
		n, err := net.New(specs, nil)
		if err != nil {
			t.Fatalf("%s: %v", m.Name, err)
		}
		if got := n.Blob("data").Shape()[0]; got != c.batch {
			t.Errorf("%s: net built at batch %d, want %d", m.Name, got, c.batch)
		}
	}
}

// trainTwoSteps returns the two losses and the final parameter values.
func trainTwoSteps(t *testing.T, specs []net.LayerSpec, cfg solver.Config) ([]float64, [][]float32) {
	t.Helper()
	n, err := net.New(specs, nil)
	if err != nil {
		t.Fatal(err)
	}
	s, err := solver.New(cfg, n)
	if err != nil {
		t.Fatal(err)
	}
	losses := s.Step(2)
	var params [][]float32
	for _, p := range n.Params() {
		params = append(params, append([]float32(nil), p.Data()...))
	}
	return losses, params
}

// The loader adds nothing numerically: its lenet is zoo.LeNet with the
// lowered convolution, bit for bit, through two solver steps.
func TestLoadedLeNetIsLoweredZooLeNet(t *testing.T) {
	m, err := Load(Ref{Zoo: "lenet", Samples: 32, Seed: 5, Batch: 8})
	if err != nil {
		t.Fatal(err)
	}
	got, err := m.Specs(m.Source, 0)
	if err != nil {
		t.Fatal(err)
	}
	want, err := LeNet(m.Source, Options{BatchSize: 8, Seed: 5, LoweredConv: true})
	if err != nil {
		t.Fatal(err)
	}
	gl, gp := trainTwoSteps(t, got, m.Solver)
	wl, wp := trainTwoSteps(t, want, LeNetSolver())
	if !reflect.DeepEqual(gl, wl) || !reflect.DeepEqual(gp, wp) {
		t.Fatalf("loader-built LeNet diverged from zoo.LeNet: losses %v vs %v", gl, wl)
	}
}

// -zoo NAME is its configs file: the same dataset, batch and solver, and
// the same net bit for bit through two solver steps.
func TestZooIsItsConfigsFile(t *testing.T) {
	for zooName, file := range map[string]string{"lenet": lenetFile, "cifar10-full": cifarFile} {
		var losses [2][]float64
		var params [2][][]float32
		for i, ref := range []Ref{{Zoo: zooName}, {Model: file}} {
			ref.Samples, ref.Seed, ref.Batch = 16, 7, 4
			m, err := Load(ref)
			if err != nil {
				t.Fatal(err)
			}
			specs, err := m.Specs(m.Source, 0)
			if err != nil {
				t.Fatal(err)
			}
			losses[i], params[i] = trainTwoSteps(t, specs, m.Solver)
		}
		if !reflect.DeepEqual(losses[0], losses[1]) || !reflect.DeepEqual(params[0], params[1]) {
			t.Errorf("-zoo %s diverged from -model %s: losses %v vs %v", zooName, file, losses[0], losses[1])
		}
	}
}

// A -model's dataset comes from the file's own name (or -dataset), never
// from a directory above it; its batch from -batch, else its batch_size.
func TestLoadModelDatasetAndBatch(t *testing.T) {
	raw, err := os.ReadFile(lenetFile)
	if err != nil {
		t.Fatal(err)
	}
	small := strings.Replace(string(raw), "batch_size: 64", "batch_size: 24", 1)
	dir := filepath.Join(t.TempDir(), "cifar-runs")
	if err := os.Mkdir(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	write := func(name string) string {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(small), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	lenet, cifarish := write("lenet.prototxt"), write("small_cifar.prototxt")
	for _, c := range []struct {
		ref     Ref
		dataset string
		batch   int
	}{
		{Ref{Model: lenet}, "mnist", 24},
		{Ref{Model: lenet, Batch: 6}, "mnist", 6},
		{Ref{Model: lenet, Dataset: "cifar"}, "cifar", 24},
		{Ref{Model: cifarish}, "cifar", 24},
		{Ref{Model: cifarish, Dataset: "mnist"}, "mnist", 24},
		{Ref{Zoo: "lenet", Dataset: "cifar"}, "cifar", 64},
	} {
		m, err := Resolve(c.ref)
		if err != nil {
			t.Fatalf("%+v: %v", c.ref, err)
		}
		if m.Dataset != c.dataset || m.Batch != c.batch {
			t.Errorf("%+v: dataset %q batch %d, want %q %d", c.ref, m.Dataset, m.Batch, c.dataset, c.batch)
		}
	}
}

// Bad references fail in Resolve, before any dataset is loaded, and an
// unknown zoo name with Build's own message.
func TestResolveRejectsBadRefs(t *testing.T) {
	_, want := Build("alexnet", nil, Options{})
	if _, err := Load(Ref{Zoo: "alexnet"}); err == nil || err.Error() != want.Error() {
		t.Errorf("unknown zoo name: %v, want %v", err, want)
	}
	for _, ref := range []Ref{
		{},
		{Zoo: "lenet", Dataset: "imagenet"},
		{Model: filepath.Join(t.TempDir(), "absent.prototxt")},
	} {
		if m, err := Resolve(ref); err == nil {
			t.Errorf("%+v resolved to %+v", ref, m)
		}
	}
}
