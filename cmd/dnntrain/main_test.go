package main

import (
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"coarsegrain/internal/blas"
	"coarsegrain/internal/snapshot"
)

// small returns the arguments of a LeNet run of one-batch epochs on one
// worker, followed by extra.
func small(extra ...string) []string {
	return append([]string{"-zoo", "lenet", "-samples", "8", "-batch", "8", "-display", "10", "-workers", "1"}, extra...)
}

// Flags that need a checkpoint directory are refused at start without
// one, before anything is trained or written.
func TestRunRefusesCheckpointFlagsWithoutSnapshotDir(t *testing.T) {
	for _, extra := range [][]string{
		{"-snapshot-every", "2"},
		{"-guard-policy", "rollback"},
	} {
		var out strings.Builder
		err := run(small(extra...), &out)
		if err == nil || !strings.Contains(err.Error(), "needs -snapshot-dir") {
			t.Errorf("%v: err = %v, want a refusal naming -snapshot-dir", extra, err)
		}
		if out.Len() != 0 {
			t.Errorf("%v: refused run wrote %q", extra, out.String())
		}
	}
}

// -resume of a checkpoint directory whose newest file was torn falls
// back to the previous checkpoint.
func TestRunResumeFallsBackPastTruncatedCheckpoint(t *testing.T) {
	dir := t.TempDir()
	var out strings.Builder
	if err := run(small("-iters", "20", "-snapshot-every", "10", "-snapshot-dir", dir), &out); err != nil {
		t.Fatal(err)
	}
	cks, err := snapshot.Checkpoints(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(cks) != 2 {
		t.Fatalf("checkpoints %v, want two", cks)
	}
	st, err := os.Stat(cks[1])
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(cks[1], st.Size()/2); err != nil {
		t.Fatal(err)
	}

	out.Reset()
	if err := run(small("-iters", "2", "-resume", dir), &out); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	for _, want := range []string{
		"checkpoint " + cks[1] + " invalid, falling back",
		"resumed from " + filepath.Join(dir, "ckpt-00000010.cgdnn") + " at iteration 10",
		"iter    12",
		"kernels " + blas.KernelSet() + "):",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("output lacks %q:\n%s", want, got)
		}
	}

	// Resuming the torn file itself fails with an error that says which
	// file and which section.
	err = run(small("-iters", "2", "-resume", cks[1]), io.Discard)
	if err == nil || !strings.Contains(err.Error(), cks[1]) || !strings.Contains(err.Error(), "snapshot: section ") {
		t.Errorf("-resume of a checkpoint cut to half: %v, want an error naming %s and the section", err, cks[1])
	}
}
