package main

import (
	"path/filepath"
	"strings"
	"testing"

	"coarsegrain/internal/trace"
	"coarsegrain/internal/zoo"
)

// TestRunGoldenTableStructure profiles LeNet on a tiny synthetic batch and
// checks the structure of the report: header, every layer row in network
// order, TOTAL row, dominators line and memory line. Timings vary run to
// run, so the test pins layout and content, not numbers.
func TestRunGoldenTableStructure(t *testing.T) {
	var out strings.Builder
	err := run(options{
		Ref:     zoo.Ref{Zoo: "lenet", Batch: 4, Samples: 8, Seed: 1},
		Workers: 2, Iters: 2, Warmup: 1,
	}, &out)
	if err != nil {
		t.Fatal(err)
	}
	got := out.String()
	for _, want := range []string{
		"engine coarse, 2 workers, 2 timed iterations",
		"layer", "fwd (us)", "bwd (us)", "weight",
		"TOTAL",
		"dominating layers (80% of time):",
		"network memory:",
		"privatization scratch:",
	} {
		if !strings.Contains(got, want) {
			t.Fatalf("output missing %q:\n%s", want, got)
		}
	}
	// Layer rows appear in network order.
	layerSeq := []string{"mnist", "conv1", "pool1", "conv2", "pool2", "ip1", "relu1", "ip2", "loss"}
	pos := -1
	for _, l := range layerSeq {
		i := strings.Index(got, "\n"+l+" ")
		if i < 0 {
			t.Fatalf("layer row %q missing:\n%s", l, got)
		}
		if i < pos {
			t.Fatalf("layer %q out of network order:\n%s", l, got)
		}
		pos = i
	}
}

// TestRunWithTrace runs the same profile with -trace and checks that the
// utilization report is appended and the Chrome JSON validates.
func TestRunWithTrace(t *testing.T) {
	path := filepath.Join(t.TempDir(), "out.json")
	var out strings.Builder
	err := run(options{
		Ref:     zoo.Ref{Zoo: "lenet", Batch: 4, Samples: 8, Seed: 1},
		Workers: 2, Iters: 2, Warmup: 1,
		TracePath: path,
	}, &out)
	if err != nil {
		t.Fatal(err)
	}
	got := out.String()
	for _, want := range []string{"worker utilization", "util", "imbal", "trace written to"} {
		if !strings.Contains(got, want) {
			t.Fatalf("traced output missing %q:\n%s", want, got)
		}
	}
	st, err := trace.ValidateChromeTraceFile(path)
	if err != nil {
		t.Fatalf("trace file invalid: %v", err)
	}
	if st.Complete == 0 {
		t.Fatal("trace has no complete events")
	}
	// driver + 2 workers
	if st.Threads != 3 {
		t.Fatalf("got %d threads, want 3", st.Threads)
	}
}

// TestRunDefaultsToOneWorker pins the plain invocation to the serial
// baseline: with no -workers the profile is coarse(1), which is the
// sequential execution bit for bit.
func TestRunDefaultsToOneWorker(t *testing.T) {
	o := parseFlags([]string{"-zoo", "lenet", "-batch", "4", "-samples", "8", "-iters", "1"})
	var out strings.Builder
	if err := run(o, &out); err != nil {
		t.Fatal(err)
	}
	if got := out.String(); !strings.Contains(got, "engine coarse, 1 workers, 1 timed iterations") ||
		!strings.Contains(got, "privatization scratch: 0.0 KB") {
		t.Fatalf("default profile is not the 1-worker baseline:\n%s", got)
	}
}

func TestRunNeedsModelOrZoo(t *testing.T) {
	var out strings.Builder
	if err := run(options{Workers: 1}, &out); err == nil {
		t.Fatal("expected error when neither -model nor -zoo given")
	}
}
