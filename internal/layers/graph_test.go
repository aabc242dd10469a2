package layers

import (
	"testing"

	"coarsegrain/internal/blob"
	"coarsegrain/internal/rng"
)

// --- Eltwise ---

func TestEltwiseSumForwardBackward(t *testing.T) {
	l := NewEltwise("e", EltwiseSum, []float32{2, -1})
	a := blob.New(2, 3)
	b := blob.New(2, 3)
	copy(a.Data(), []float32{1, 2, 3, 4, 5, 6})
	copy(b.Data(), []float32{6, 5, 4, 3, 2, 1})
	tops := setup(t, l, []*blob.Blob{a, b})
	runForward(l, []*blob.Blob{a, b}, tops)
	want := []float32{-4, -1, 2, 5, 8, 11}
	for i, w := range want {
		almostEq(t, tops[0].Data()[i], w, 1e-6, "eltwise sum")
	}
	for i := range tops[0].Diff() {
		tops[0].Diff()[i] = float32(i + 1)
	}
	l.BackwardRange(0, l.BackwardExtent(), []*blob.Blob{a, b}, tops, nil)
	if a.Diff()[2] != 2*3 || b.Diff()[2] != -3 {
		t.Fatalf("eltwise sum grads: %v %v", a.Diff(), b.Diff())
	}
}

func TestEltwiseMaxRoutesGradient(t *testing.T) {
	l := NewEltwise("e", EltwiseMax, nil)
	a := blob.New(1, 3)
	b := blob.New(1, 3)
	copy(a.Data(), []float32{5, 1, 5})
	copy(b.Data(), []float32{2, 8, 2})
	tops := setup(t, l, []*blob.Blob{a, b})
	runForward(l, []*blob.Blob{a, b}, tops)
	want := []float32{5, 8, 5}
	for i, w := range want {
		almostEq(t, tops[0].Data()[i], w, 0, "eltwise max")
	}
	copy(tops[0].Diff(), []float32{1, 1, 1})
	l.BackwardRange(0, l.BackwardExtent(), []*blob.Blob{a, b}, tops, nil)
	if a.Diff()[0] != 1 || a.Diff()[1] != 0 || b.Diff()[1] != 1 || b.Diff()[0] != 0 {
		t.Fatalf("max grads: %v %v", a.Diff(), b.Diff())
	}
}

func TestEltwiseValidation(t *testing.T) {
	l := NewEltwise("e", EltwiseSum, nil)
	if err := l.SetUp([]*blob.Blob{blob.New(2, 2)}, []*blob.Blob{blob.New()}); err == nil {
		t.Fatal("single bottom accepted")
	}
	if err := l.SetUp([]*blob.Blob{blob.New(2, 2), blob.New(2, 3)}, []*blob.Blob{blob.New()}); err == nil {
		t.Fatal("mismatched shapes accepted")
	}
	l2 := NewEltwise("e", EltwiseSum, []float32{1})
	if err := l2.SetUp([]*blob.Blob{blob.New(2, 2), blob.New(2, 2)}, []*blob.Blob{blob.New()}); err == nil {
		t.Fatal("wrong coeff count accepted")
	}
}

func TestEltwiseChunkedEqualsWhole(t *testing.T) {
	r := rng.New(23, 1)
	l := NewEltwise("e", EltwiseSum, nil)
	a := randomBlob(r, -1, 1, 4, 3, 2, 2)
	b := randomBlob(r, -1, 1, 4, 3, 2, 2)
	tops := setup(t, l, []*blob.Blob{a, b})
	runForward(l, []*blob.Blob{a, b}, tops)
	ref := append([]float32(nil), tops[0].Data()...)
	tops[0].ZeroData()
	n := l.ForwardExtent()
	for lo := 0; lo < n; lo += 5 {
		hi := min(lo+5, n)
		l.ForwardRange(lo, hi, []*blob.Blob{a, b}, tops)
	}
	for i := range ref {
		if tops[0].Data()[i] != ref[i] {
			t.Fatal("chunked eltwise differs")
		}
	}
}

// --- Concat ---

func TestConcatForwardBackward(t *testing.T) {
	l := NewConcat("c")
	a := blob.New(2, 1, 2, 2) // 1 channel
	b := blob.New(2, 2, 2, 2) // 2 channels
	for i := range a.Data() {
		a.Data()[i] = float32(i)
	}
	for i := range b.Data() {
		b.Data()[i] = 100 + float32(i)
	}
	tops := setup(t, l, []*blob.Blob{a, b})
	if s := tops[0].Shape(); s[0] != 2 || s[1] != 3 || s[2] != 2 || s[3] != 2 {
		t.Fatalf("concat shape %v", s)
	}
	runForward(l, []*blob.Blob{a, b}, tops)
	// Sample 0: a's 4 values then b's 8 values.
	if tops[0].At(0, 0, 0, 0) != 0 || tops[0].At(0, 1, 0, 0) != 100 || tops[0].At(0, 2, 1, 1) != 107 {
		t.Fatalf("concat values wrong: %v", tops[0].Data())
	}
	// Sample 1 offsets.
	if tops[0].At(1, 0, 0, 0) != 4 || tops[0].At(1, 1, 0, 0) != 108 {
		t.Fatal("concat sample 1 wrong")
	}
	for i := range tops[0].Diff() {
		tops[0].Diff()[i] = float32(i)
	}
	l.BackwardRange(0, l.BackwardExtent(), []*blob.Blob{a, b}, tops, nil)
	if a.Diff()[0] != 0 || a.Diff()[3] != 3 || b.Diff()[0] != 4 || b.Diff()[7] != 11 {
		t.Fatalf("concat grads: %v %v", a.Diff(), b.Diff())
	}
}

func TestConcatValidation(t *testing.T) {
	l := NewConcat("c")
	if err := l.SetUp([]*blob.Blob{blob.New(2, 1, 2, 2), blob.New(3, 1, 2, 2)}, []*blob.Blob{blob.New()}); err == nil {
		t.Fatal("batch mismatch accepted")
	}
	if err := l.SetUp([]*blob.Blob{blob.New(2, 1, 2, 2), blob.New(2, 1, 3, 3)}, []*blob.Blob{blob.New()}); err == nil {
		t.Fatal("spatial mismatch accepted")
	}
	if err := l.SetUp(nil, []*blob.Blob{blob.New()}); err == nil {
		t.Fatal("no bottoms accepted")
	}
}

// --- Flatten ---

func TestFlattenRoundTrip(t *testing.T) {
	r := rng.New(25, 1)
	l := NewFlatten("f")
	bottom := randomBlob(r, -1, 1, 3, 2, 4, 4)
	tops := setup(t, l, []*blob.Blob{bottom})
	if s := tops[0].Shape(); len(s) != 2 || s[0] != 3 || s[1] != 32 {
		t.Fatalf("flatten shape %v", s)
	}
	runForward(l, []*blob.Blob{bottom}, tops)
	for i := range bottom.Data() {
		if tops[0].Data()[i] != bottom.Data()[i] {
			t.Fatal("flatten changed values")
		}
	}
	for i := range tops[0].Diff() {
		tops[0].Diff()[i] = float32(i)
	}
	l.BackwardRange(0, l.BackwardExtent(), []*blob.Blob{bottom}, tops, nil)
	for i := range bottom.Diff() {
		if bottom.Diff()[i] != float32(i) {
			t.Fatal("flatten backward wrong")
		}
	}
}

func TestEltwiseOpString(t *testing.T) {
	if EltwiseSum.String() != "SUM" || EltwiseProd.String() != "PROD" || EltwiseMax.String() != "MAX" {
		t.Fatal("op strings wrong")
	}
}

// --- Split ---

func TestSplitForwardCopiesAndBackwardSums(t *testing.T) {
	l := NewSplit("s")
	bottom := blob.New(2, 3)
	copy(bottom.Data(), []float32{1, 2, 3, 4, 5, 6})
	tops := []*blob.Blob{blob.New(), blob.New(), blob.New()}
	if err := l.SetUp([]*blob.Blob{bottom}, tops); err != nil {
		t.Fatal(err)
	}
	runForward(l, []*blob.Blob{bottom}, tops)
	for _, top := range tops {
		for i := range bottom.Data() {
			if top.Data()[i] != bottom.Data()[i] {
				t.Fatal("split did not copy")
			}
		}
	}
	for ti, top := range tops {
		for i := range top.Diff() {
			top.Diff()[i] = float32(ti + 1)
		}
	}
	l.BackwardRange(0, l.BackwardExtent(), []*blob.Blob{bottom}, tops, nil)
	for _, v := range bottom.Diff() {
		if v != 6 { // 1+2+3
			t.Fatalf("split backward sum: %v", bottom.Diff())
		}
	}
}

func TestSplitGradient(t *testing.T) {
	// Manual gradient check (the helper only supports fixed arities):
	// J = <top0, w0> + <top1, w1>; dJ/dbottom = w0 + w1.
	r := rng.New(26, 1)
	l := NewSplit("s")
	bottom := randomBlob(r, -1, 1, 2, 4)
	tops := []*blob.Blob{blob.New(), blob.New()}
	if err := l.SetUp([]*blob.Blob{bottom}, tops); err != nil {
		t.Fatal(err)
	}
	runForward(l, []*blob.Blob{bottom}, tops)
	for _, top := range tops {
		for i := range top.Diff() {
			top.Diff()[i] = r.Range(0.5, 1.5)
		}
	}
	l.BackwardRange(0, l.BackwardExtent(), []*blob.Blob{bottom}, tops, nil)
	for i := range bottom.Diff() {
		want := tops[0].Diff()[i] + tops[1].Diff()[i]
		almostEq(t, bottom.Diff()[i], want, 1e-6, "split gradient")
	}
}

func TestSplitValidation(t *testing.T) {
	l := NewSplit("s")
	if err := l.SetUp([]*blob.Blob{blob.New(2), blob.New(2)}, []*blob.Blob{blob.New()}); err == nil {
		t.Fatal("two bottoms accepted")
	}
	if err := l.SetUp([]*blob.Blob{blob.New(2)}, nil); err == nil {
		t.Fatal("no tops accepted")
	}
}
