package faultinject

import (
	"errors"
	"io"
	"os"
	"path/filepath"
	"testing"

	"coarsegrain/internal/data"
)

func writeTemp(t *testing.T, content []byte) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "victim.bin")
	if err := os.WriteFile(path, content, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestCorruptFileIsDeterministic(t *testing.T) {
	content := make([]byte, 4096)
	for i := range content {
		content[i] = byte(i)
	}
	p1 := writeTemp(t, content)
	p2 := writeTemp(t, content)
	off1, err := New(42).CorruptFile(p1)
	if err != nil {
		t.Fatal(err)
	}
	off2, err := New(42).CorruptFile(p2)
	if err != nil {
		t.Fatal(err)
	}
	if off1 != off2 {
		t.Fatalf("same seed flipped different offsets: %d vs %d", off1, off2)
	}
	got, _ := os.ReadFile(p1)
	diffs := 0
	for i := range content {
		if got[i] != content[i] {
			diffs++
			if int64(i) != off1 {
				t.Fatalf("byte %d changed, reported offset %d", i, off1)
			}
			if got[i] != content[i]^0xFF {
				t.Fatalf("byte %d = %#x, want inverted %#x", i, got[i], content[i]^0xFF)
			}
		}
	}
	if diffs != 1 {
		t.Fatalf("%d bytes changed, want exactly 1", diffs)
	}
	// A different seed picks a different offset (for this content size).
	p3 := writeTemp(t, content)
	off3, err := New(43).CorruptFile(p3)
	if err != nil {
		t.Fatal(err)
	}
	if off3 == off1 {
		t.Logf("seeds 42 and 43 collided on offset %d (possible, just unlucky)", off1)
	}
}

func TestCorruptFileRejectsEmpty(t *testing.T) {
	if _, err := New(1).CorruptFile(writeTemp(t, nil)); err == nil {
		t.Fatal("empty file corrupted successfully")
	}
}

func TestTruncateFileIsDeterministicStrictPrefix(t *testing.T) {
	content := make([]byte, 1000)
	p1, p2 := writeTemp(t, content), writeTemp(t, content)
	n1, err := New(7).TruncateFile(p1)
	if err != nil {
		t.Fatal(err)
	}
	n2, err := New(7).TruncateFile(p2)
	if err != nil {
		t.Fatal(err)
	}
	if n1 != n2 {
		t.Fatalf("same seed truncated to different lengths: %d vs %d", n1, n2)
	}
	if n1 <= 0 || n1 >= int64(len(content)) {
		t.Fatalf("truncated length %d is not a strict prefix of %d", n1, len(content))
	}
	st, _ := os.Stat(p1)
	if st.Size() != n1 {
		t.Fatalf("file is %d bytes, reported %d", st.Size(), n1)
	}
}

func TestFlakyOpenerFailsExactlyNTimes(t *testing.T) {
	content := make([]byte, 10000)
	path := writeTemp(t, content)
	fo := New(11).FlakyOpener(2)
	readAll := func() error {
		rc, err := fo.Open(path)
		if err != nil {
			return err
		}
		_, err = io.ReadAll(rc)
		rc.Close()
		return err
	}
	for i := 0; i < 2; i++ {
		if err := readAll(); !errors.Is(err, ErrTransient) {
			t.Fatalf("attempt %d: err = %v, want transient", i+1, err)
		}
	}
	if err := readAll(); err != nil {
		t.Fatalf("attempt 3 should succeed: %v", err)
	}
	if fo.Attempts(path) != 3 {
		t.Fatalf("attempts = %d", fo.Attempts(path))
	}
	// Determinism: a second injector with the same seed fails the same way
	// (same open-vs-midread choices, same byte budgets).
	fo2 := New(11).FlakyOpener(2)
	for i := 0; i < 2; i++ {
		rc, err := fo2.Open(path)
		if err != nil {
			continue
		}
		io.ReadAll(rc)
		rc.Close()
	}
}

func TestLoaderRetryAbsorbsTransientFailures(t *testing.T) {
	// Two MNIST files (images + labels), each failing twice before
	// succeeding: the loaders' 3 attempts must absorb that.
	dir := t.TempDir()
	imgPath, lblPath := writeMNIST(t, dir, 4)
	fo := New(21).FlakyOpener(2)
	restore := data.SetOpenFile(fo.Open)
	defer restore()

	ds, err := data.LoadMNISTFiles(imgPath, lblPath)
	if err != nil {
		t.Fatalf("retry failed to absorb 2 transient faults: %v", err)
	}
	if ds.Len() != 4 {
		t.Fatalf("dataset has %d samples, want 4", ds.Len())
	}
	if got := fo.Attempts(imgPath); got != 3 {
		t.Fatalf("image file opened %d times, want 3", got)
	}
}

func TestLoaderRetryGivesUpBeyondBudget(t *testing.T) {
	dir := t.TempDir()
	imgPath, lblPath := writeMNIST(t, dir, 2)
	fo := New(22).FlakyOpener(5) // more failures than attempts
	restore := data.SetOpenFile(fo.Open)
	defer restore()

	if _, err := data.LoadMNISTFiles(imgPath, lblPath); err == nil {
		t.Fatal("5 consecutive faults absorbed by a 3-attempt budget")
	} else if !errors.Is(err, ErrTransient) {
		t.Fatalf("error does not wrap the transient cause: %v", err)
	}
}

// writeMNIST writes a minimal valid IDX image/label pair with n samples.
func writeMNIST(t *testing.T, dir string, n int) (imgPath, lblPath string) {
	t.Helper()
	img := []byte{0, 0, 8, 3, 0, 0, 0, byte(n), 0, 0, 0, 28, 0, 0, 0, 28}
	img = append(img, make([]byte, n*28*28)...)
	lbl := []byte{0, 0, 8, 1, 0, 0, 0, byte(n)}
	for i := 0; i < n; i++ {
		lbl = append(lbl, byte(i%10))
	}
	imgPath = filepath.Join(dir, "images.idx")
	lblPath = filepath.Join(dir, "labels.idx")
	if err := os.WriteFile(imgPath, img, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(lblPath, lbl, 0o644); err != nil {
		t.Fatal(err)
	}
	return imgPath, lblPath
}
