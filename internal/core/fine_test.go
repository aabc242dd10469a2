package core

import (
	"fmt"
	"math"
	"testing"

	"coarsegrain/internal/blob"
	"coarsegrain/internal/layers"
)

// fineRun is one forward and backward pass of a layerCase on an engine,
// from a seeded top gradient and zeroed parameter gradients.
func fineRun(t *testing.T, c layerCase, e Engine) (layers.Layer, []*blob.Blob, []*blob.Blob) {
	t.Helper()
	l, bottom, top := c.setUp(t)
	e.Forward(l, bottom, top)
	c.seedTopDiffs(top)
	for _, p := range l.Params() {
		p.ZeroDiff()
	}
	e.Backward(l, bottom, top)
	return l, bottom, top
}

// sameBits reports the first index where got and want differ in bits.
func sameBits(got, want []float32) (int, bool) {
	for i := range want {
		if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
			return i, false
		}
	}
	return 0, true
}

// Every catalogue layer under Fine(P) against Sequential: top, bottom
// gradients and parameter gradients bit for bit, at worker counts that do
// and do not divide the channel counts.
func TestFineMatchesSequentialEveryLayer(t *testing.T) {
	for _, c := range layerCases() {
		t.Run(c.name, func(t *testing.T) {
			lRef, botRef, topRef := fineRun(t, c, NewSequential())
			for _, p := range []int{1, 2, 3, 5} {
				e := NewFine(p)
				l, bot, top := fineRun(t, c, e)
				e.Close()
				check := func(what string, got, want []float32) {
					t.Helper()
					if i, ok := sameBits(got, want); !ok {
						t.Fatalf("fine/%d: %s differs at %d: %v vs %v", p, what, i, got[i], want[i])
					}
				}
				for i := range topRef {
					check(fmt.Sprintf("top %d", i), top[i].Data(), topRef[i].Data())
				}
				for i := range botRef {
					check(fmt.Sprintf("bottom %d grad", i), bot[i].Diff(), botRef[i].Diff())
				}
				for i := range lRef.Params() {
					check(fmt.Sprintf("param %d grad", i), l.Params()[i].Diff(), lRef.Params()[i].Diff())
				}
			}
		})
	}
}
