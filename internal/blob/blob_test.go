package blob

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestNewShape(t *testing.T) {
	b := New(2, 3, 4, 5)
	if b.Count() != 120 {
		t.Fatalf("count = %d, want 120", b.Count())
	}
	if b.Num() != 2 || b.Channels() != 3 || b.Height() != 4 || b.Width() != 5 {
		t.Fatalf("legacy dims wrong: %v", b.Shape())
	}
	if b.AxisCount() != 4 {
		t.Fatalf("axes = %d", b.AxisCount())
	}
}

func TestLegacyDimsDefaultToOne(t *testing.T) {
	b := New(7, 9)
	if b.Height() != 1 || b.Width() != 1 {
		t.Fatalf("2-D blob H/W should be 1, got %d %d", b.Height(), b.Width())
	}
}

func TestOffsetMatchesPaperFormula(t *testing.T) {
	// Paper §2.1.1: value at (n, k, h, w) lives at ((n*K+k)*H+h)*W+w.
	n, k, h, w := 3, 2, 5, 4
	b := New(n, k, h, w)
	for ni := 0; ni < n; ni++ {
		for ki := 0; ki < k; ki++ {
			for hi := 0; hi < h; hi++ {
				for wi := 0; wi < w; wi++ {
					want := ((ni*k+ki)*h+hi)*w + wi
					if got := b.Offset(ni, ki, hi, wi); got != want {
						t.Fatalf("Offset(%d,%d,%d,%d) = %d, want %d", ni, ki, hi, wi, got, want)
					}
				}
			}
		}
	}
}

func TestPartialOffset(t *testing.T) {
	b := New(4, 3, 2)
	if got := b.Offset(2); got != 2*3*2 {
		t.Fatalf("Offset(2) = %d", got)
	}
	if got := b.Offset(2, 1); got != 2*6+1*2 {
		t.Fatalf("Offset(2,1) = %d", got)
	}
	if got := b.Offset(); got != 0 {
		t.Fatalf("Offset() = %d", got)
	}
}

func TestOffsetPanicsOutOfRange(t *testing.T) {
	b := New(2, 2)
	for _, idx := range [][]int{{2, 0}, {0, 2}, {-1, 0}, {0, 0, 0}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("Offset(%v) did not panic", idx)
				}
			}()
			b.Offset(idx...)
		}()
	}
}

func TestReshapeReusesBuffer(t *testing.T) {
	b := New(10, 10)
	p := &b.Data()[0]
	b.Reshape(5, 5)
	if b.Count() != 25 {
		t.Fatalf("count after shrink = %d", b.Count())
	}
	if &b.Data()[0] != p {
		t.Fatal("shrinking reshape reallocated")
	}
	b.Reshape(10, 10)
	if &b.Data()[0] != p {
		t.Fatal("re-grow within capacity reallocated")
	}
}

func TestReshapeGrows(t *testing.T) {
	b := New(2)
	b.Data()[0] = 5
	b.Reshape(100)
	if b.Count() != 100 {
		t.Fatalf("count = %d", b.Count())
	}
	// Grown buffer is zeroed.
	for i, v := range b.Data() {
		if v != 0 {
			t.Fatalf("grown data[%d] = %v, want 0", i, v)
		}
	}
}

func TestNegativeDimPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("negative dim did not panic")
		}
	}()
	New(2, -1)
}

func TestTooManyAxesPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("too many axes did not panic")
		}
	}()
	New(1, 1, 1, 1, 1, 1, 1, 1, 1)
}

func TestDimNegativeIndexing(t *testing.T) {
	b := New(2, 3, 4)
	if b.Dim(-1) != 4 || b.Dim(-3) != 2 {
		t.Fatalf("negative Dim indexing wrong")
	}
}

func TestAtSet(t *testing.T) {
	b := New(2, 3)
	b.Set(7.5, 1, 2)
	if b.At(1, 2) != 7.5 {
		t.Fatal("At/Set roundtrip failed")
	}
	if b.Data()[5] != 7.5 {
		t.Fatal("Set wrote wrong flat location")
	}
}

func TestZeroAndScale(t *testing.T) {
	b := New(4)
	for i := range b.Data() {
		b.Data()[i] = float32(i + 1)
		b.Diff()[i] = float32(i + 1)
	}
	b.ScaleData(2)
	if b.Data()[3] != 8 {
		t.Fatal("ScaleData wrong")
	}
	b.ScaleDiff(0.5)
	if b.Diff()[3] != 2 {
		t.Fatal("ScaleDiff wrong")
	}
	b.ZeroData()
	b.ZeroDiff()
	for i := range b.Data() {
		if b.Data()[i] != 0 || b.Diff()[i] != 0 {
			t.Fatal("Zero* left residue")
		}
	}
}

func TestUpdate(t *testing.T) {
	b := New(3)
	copy(b.Data(), []float32{10, 20, 30})
	copy(b.Diff(), []float32{1, 2, 3})
	b.Update()
	want := []float32{9, 18, 27}
	for i, v := range b.Data() {
		if v != want[i] {
			t.Fatalf("Update: data[%d]=%v want %v", i, v, want[i])
		}
	}
}

func TestAccumulateDiff(t *testing.T) {
	a, b := New(3), New(3)
	copy(a.Diff(), []float32{1, 2, 3})
	copy(b.Diff(), []float32{10, 20, 30})
	a.AccumulateDiffFrom(b)
	if a.Diff()[2] != 33 {
		t.Fatalf("accumulate: %v", a.Diff())
	}
}

func TestAccumulateDiffRange(t *testing.T) {
	a, b := New(5), New(5)
	copy(a.Diff(), []float32{1, 2, 3, 4, 5})
	copy(b.Diff(), []float32{10, 20, 30, 40, 50})
	a.AccumulateDiffRange(b, 1, 4)
	if got, want := a.Diff(), []float32{1, 22, 33, 44, 5}; !equalF32(got, want) {
		t.Fatalf("range accumulate: got %v, want %v", got, want)
	}
	a.AccumulateDiffRange(b, 2, 2) // empty range is a no-op
	if got, want := a.Diff(), []float32{1, 22, 33, 44, 5}; !equalF32(got, want) {
		t.Fatalf("empty range accumulate changed diff: %v", got)
	}
}

func equalF32(a, b []float32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestAccumulateDiffRangeCoversLikeFull: folding every disjoint slice of
// [0, n) must equal one full AccumulateDiffFrom — the invariant
// the core engine's element-parallel gradient merge depends on.
func TestAccumulateDiffRangeCoversLikeFull(t *testing.T) {
	const n = 23
	full, sliced, src := New(n), New(n), New(n)
	for i := 0; i < n; i++ {
		full.Diff()[i] = float32(i) * 0.25
		sliced.Diff()[i] = float32(i) * 0.25
		src.Diff()[i] = float32(n-i) * 0.125
	}
	full.AccumulateDiffFrom(src)
	for lo := 0; lo < n; lo += 5 {
		hi := lo + 5
		if hi > n {
			hi = n
		}
		sliced.AccumulateDiffRange(src, lo, hi)
	}
	if !equalF32(full.Diff(), sliced.Diff()) {
		t.Fatalf("sliced fold %v != full fold %v", sliced.Diff(), full.Diff())
	}
}

func TestAccumulateDiffRangePanics(t *testing.T) {
	cases := []struct {
		name   string
		target *Blob
		lo, hi int
	}{
		{"count mismatch", New(4), 0, 3},
		{"negative lo", New(3), -1, 2},
		{"hi out of range", New(3), 0, 4},
		{"inverted range", New(3), 2, 1},
	}
	for _, tc := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s: expected panic", tc.name)
				}
			}()
			tc.target.AccumulateDiffRange(New(3), tc.lo, tc.hi)
		}()
	}
}

func TestCopyMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("mismatched copy did not panic")
		}
	}()
	New(3).CopyDataFrom(New(4))
}

func TestNorms(t *testing.T) {
	b := New(3)
	copy(b.Data(), []float32{-1, 2, -3})
	copy(b.Diff(), []float32{-2, 0, 2})
	if b.AsumData() != 6 {
		t.Fatalf("AsumData = %v", b.AsumData())
	}
	if b.AsumDiff() != 4 {
		t.Fatalf("AsumDiff = %v", b.AsumDiff())
	}
}

func TestSameShape(t *testing.T) {
	if !New(2, 3).SameShape(New(2, 3)) {
		t.Fatal("equal shapes reported different")
	}
	if New(2, 3).SameShape(New(3, 2)) {
		t.Fatal("different shapes reported same")
	}
	if New(6).SameShape(New(2, 3)) {
		t.Fatal("different rank reported same")
	}
}

func TestShareDataWith(t *testing.T) {
	a, b := New(4), New(4)
	b.ShareDataWith(a)
	a.Data()[1] = 42
	if b.Data()[1] != 42 {
		t.Fatal("shared data not aliased")
	}
	// Diff remains independent.
	a.Diff()[1] = 7
	if b.Diff()[1] != 0 {
		t.Fatal("diff unexpectedly aliased")
	}
}

func TestNamedAndString(t *testing.T) {
	b := Named("conv1", 2, 2)
	if b.Name() != "conv1" {
		t.Fatal("name lost")
	}
	if !strings.Contains(b.String(), "conv1") || !strings.Contains(b.String(), "(4)") {
		t.Fatalf("String() = %q", b.String())
	}
}

func TestCountHelpers(t *testing.T) {
	b := New(2, 3, 4)
	if b.CountFrom(1) != 12 || b.CountFrom(0) != 24 || b.CountFrom(3) != 1 {
		t.Fatal("CountFrom wrong")
	}
}

func TestMemoryBytes(t *testing.T) {
	b := New(10)
	if b.MemoryBytes() != 80 {
		t.Fatalf("MemoryBytes = %d, want 80", b.MemoryBytes())
	}
}

// Property: Offset is a bijection between valid multi-indices and [0, count).
func TestQuickOffsetBijection(t *testing.T) {
	f := func(d0, d1, d2 uint8) bool {
		s0, s1, s2 := int(d0%5)+1, int(d1%5)+1, int(d2%5)+1
		b := New(s0, s1, s2)
		seen := make(map[int]bool)
		for i := 0; i < s0; i++ {
			for j := 0; j < s1; j++ {
				for k := 0; k < s2; k++ {
					off := b.Offset(i, j, k)
					if off < 0 || off >= b.Count() || seen[off] {
						return false
					}
					seen[off] = true
				}
			}
		}
		return len(seen) == b.Count()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: Update is the inverse of adding diff to data.
func TestQuickUpdateInverse(t *testing.T) {
	f := func(vals []float32) bool {
		if len(vals) == 0 {
			return true
		}
		b := New(len(vals))
		copy(b.Data(), vals)
		copy(b.Diff(), vals)
		b.Update() // data = vals - vals = 0
		for _, v := range b.Data() {
			if v != 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
