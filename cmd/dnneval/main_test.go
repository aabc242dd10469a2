package main

import (
	"path/filepath"
	"strings"
	"testing"

	"coarsegrain/internal/core"
	"coarsegrain/internal/net"
	"coarsegrain/internal/snapshot"
	"coarsegrain/internal/solver"
	"coarsegrain/internal/zoo"
)

const lenetFile = "../../configs/lenet.prototxt"

// trainSnapshot trains ref for two iterations, as dnntrain does, and
// writes the solver snapshot into a temporary directory.
func trainSnapshot(t *testing.T, ref zoo.Ref) string {
	t.Helper()
	m, err := zoo.Load(ref)
	if err != nil {
		t.Fatal(err)
	}
	specs, err := m.Specs(m.Source, 0)
	if err != nil {
		t.Fatal(err)
	}
	eng := core.NewCoarse(1)
	defer eng.Close()
	n, err := net.New(specs, eng)
	if err != nil {
		t.Fatal(err)
	}
	s, err := solver.New(m.Solver, n)
	if err != nil {
		t.Fatal(err)
	}
	s.Step(2)
	path := filepath.Join(t.TempDir(), "model.cgdnn")
	if err := snapshot.SaveSolverFile(path, s); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestRunEvaluatesDatasetOverride evaluates LeNet's prototxt trained on
// CIFAR-10 (-dataset cifar): the same -dataset must build the net the
// snapshot was trained as, and without it the MNIST-shaped conv1 cannot
// take the snapshot's three-channel weights.
func TestRunEvaluatesDatasetOverride(t *testing.T) {
	snap := trainSnapshot(t, zoo.Ref{Model: lenetFile, Dataset: "cifar", Samples: 16, Seed: 1, Batch: 8})
	args := []string{"-model", lenetFile, "-snapshot", snap, "-batch", "8", "-samples", "16", "-batches", "2"}

	var out strings.Builder
	if err := run(append(args, "-dataset", "cifar"), &out); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	for _, want := range []string{"mean loss:", "mean accuracy:", "confusion matrix (ip2 vs label)", "over 16 samples"} {
		if !strings.Contains(got, want) {
			t.Fatalf("output missing %q:\n%s", want, got)
		}
	}

	err := run(args, &out)
	if err == nil || !strings.Contains(err.Error(), "size mismatch") {
		t.Fatalf("MNIST net took a CIFAR snapshot: err %v", err)
	}
}

func TestRunNeedsSnapshot(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-zoo", "lenet"}, &out); err == nil || err.Error() != "need -snapshot" {
		t.Fatalf("got %v, want need -snapshot", err)
	}
}
