package blob

import "testing"

func TestDataOnlyNeverAllocatesDiff(t *testing.T) {
	b := NewDataOnly(4, 3)
	if b.Diff() != nil {
		t.Fatal("data-only blob allocated a diff buffer")
	}
	if !b.dataOnly {
		t.Fatal("NewDataOnly blob not marked data-only")
	}
	if got := len(b.Data()); got != 12 {
		t.Fatalf("data length %d, want 12", got)
	}
	b.Reshape(8, 3)
	if b.Diff() != nil {
		t.Fatal("reshape grew a diff buffer on a data-only blob")
	}
	if got := len(b.Data()); got != 24 {
		t.Fatalf("data length after grow %d, want 24", got)
	}
	b.Reshape(2, 3)
	if got, wantCap := len(b.Data()), 24; got != 6 || b.Cap() != wantCap {
		t.Fatalf("shrink: len %d cap %d, want 6/%d (buffer reuse)", got, b.Cap(), wantCap)
	}
}

func TestDataOnlyZeroDiffNoop(t *testing.T) {
	b := NamedDataOnly("x", 3)
	b.ZeroDiff() // must not panic on the nil diff
	b.ScaleDiff(2)
	if b.Name() != "x" {
		t.Fatalf("name %q", b.Name())
	}
}

func TestDataOnlyMemoryBytes(t *testing.T) {
	full := New(10)
	dataOnly := NewDataOnly(10)
	if full.MemoryBytes() != 80 {
		t.Fatalf("full blob %d bytes, want 80", full.MemoryBytes())
	}
	if dataOnly.MemoryBytes() != 40 {
		t.Fatalf("data-only blob %d bytes, want 40", dataOnly.MemoryBytes())
	}
}

func TestDropDiff(t *testing.T) {
	b := New(5)
	b.Data()[0] = 7
	b.Diff()[0] = 3
	b.DropDiff()
	if b.Diff() != nil || !b.dataOnly {
		t.Fatal("DropDiff did not release the gradient buffer")
	}
	if b.Data()[0] != 7 {
		t.Fatal("DropDiff disturbed the data buffer")
	}
	b.Reshape(9)
	if b.Diff() != nil {
		t.Fatal("reshape after DropDiff reallocated a diff buffer")
	}
	if b.MemoryBytes() != 9*4 {
		t.Fatalf("memory after drop %d, want 36", b.MemoryBytes())
	}
}

func TestDropDiffOnDiffOnlyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("DropDiff on a diff-only blob did not panic")
		}
	}()
	NewDiffOnly(3).DropDiff()
}
