package core

import (
	"testing"

	"coarsegrain/internal/blob"
	"coarsegrain/internal/layers"
	"coarsegrain/internal/rng"
)

// buildBN creates a BatchNorm layer over a random 4-D blob.
func buildBN(t *testing.T, seed uint64) (*layers.BatchNorm, []*blob.Blob, []*blob.Blob) {
	t.Helper()
	l, err := layers.NewBatchNorm("bn", layers.BNConfig{})
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(seed, 5)
	bottom := blob.New(8, 3, 4, 4)
	for i := range bottom.Data() {
		bottom.Data()[i] = r.Range(-2, 2)
	}
	tops := []*blob.Blob{blob.New()}
	if err := l.SetUp([]*blob.Blob{bottom}, tops); err != nil {
		t.Fatal(err)
	}
	return l, []*blob.Blob{bottom}, tops
}

// BatchNorm exercises the backward prepare/finish hooks: the coarse
// engine must produce the same gradients as sequential, including the
// whole-batch reduction terms.
func TestBatchNormCoarseMatchesSequential(t *testing.T) {
	lRef, botRef, topRef := buildBN(t, 1)
	seq := NewSequential()
	seq.Forward(lRef, botRef, topRef)
	seedTopDiff(topRef, 1)
	for _, p := range lRef.Params() {
		p.ZeroDiff()
	}
	seq.Backward(lRef, botRef, topRef)

	for _, w := range []int{2, 4, 8} {
		l, bot, top := buildBN(t, 1)
		e := NewCoarse(w)
		e.Forward(l, bot, top)
		// Forward must be bit-identical: stats computed in the serial
		// prepare, normalization in disjoint ranges.
		for i := range topRef[0].Data() {
			if top[0].Data()[i] != topRef[0].Data()[i] {
				t.Fatalf("workers=%d: BN forward differs at %d", w, i)
			}
		}
		seedTopDiff(top, 1)
		for _, p := range l.Params() {
			p.ZeroDiff()
		}
		e.Backward(l, bot, top)
		if d := maxAbsDiff(bot[0].Diff(), botRef[0].Diff()); d != 0 {
			t.Fatalf("workers=%d: BN bottom grad differs by %g (must be exact: "+
				"reductions run in the serial prepare)", w, d)
		}
		for pi := range l.Params() {
			if d := maxAbsDiff(l.Params()[pi].Diff(), lRef.Params()[pi].Diff()); d > 1e-4 {
				t.Fatalf("workers=%d: BN param %d grad deviates by %g", w, pi, d)
			}
		}
		e.Close()
	}
}

func TestBatchNormFineEngineFallback(t *testing.T) {
	// BatchNorm has parameters but no channel ranges: the fine engine
	// runs its backward serially, with hooks intact.
	lRef, botRef, topRef := buildBN(t, 2)
	NewSequential().Forward(lRef, botRef, topRef)
	l, bot, top := buildBN(t, 2)
	e := NewFine(4)
	defer e.Close()
	e.Forward(l, bot, top)
	for i := range topRef[0].Data() {
		if top[0].Data()[i] != topRef[0].Data()[i] {
			t.Fatal("fine-engine BN forward differs")
		}
	}
	seedTopDiff(topRef, 2)
	seedTopDiff(top, 2)
	for _, p := range lRef.Params() {
		p.ZeroDiff()
	}
	for _, p := range l.Params() {
		p.ZeroDiff()
	}
	NewSequential().Backward(lRef, botRef, topRef)
	e.Backward(l, bot, top)
	if d := maxAbsDiff(bot[0].Diff(), botRef[0].Diff()); d != 0 {
		t.Fatalf("fine-engine BN backward differs by %g", d)
	}
}
