//go:build !race

// The race detector's instrumentation allocates, so the allocation pins
// only run in normal test passes.

package core

import "testing"

// TestWarmPassesAllocateNothing pins the engine's allocation contract for
// every catalogue layer under every cut: once a forward and a backward
// pass have sized the layer's buffers and the engine's arena, a pass
// allocates nothing — per-rank gradients, range bodies and the ordered
// fold all run from storage made once (paper Algorithms 4 and 5). The
// pin measures at run time, so it sees through the Layer and
// ChannelRanger interfaces and at any call depth below the band body: a
// make in a layer's sample loop, or at the top of a helper the loop calls,
// raises the count.
func TestWarmPassesAllocateNothing(t *testing.T) {
	engines := []struct {
		name string
		mk   func() Engine
	}{
		{"sequential", NewSequential},
		{"coarse/2", func() Engine { return NewCoarse(2) }},
		{"fine/2", func() Engine { return NewFine(2) }},
	}
	for _, c := range layerCases() {
		t.Run(c.name, func(t *testing.T) {
			for _, en := range engines {
				e := en.mk()
				l, bottom, top := fineRun(t, c, e)
				fwd := testing.AllocsPerRun(5, func() { e.Forward(l, bottom, top) })
				bwd := testing.AllocsPerRun(5, func() { e.Backward(l, bottom, top) })
				e.Close()
				if fwd != 0 || bwd != 0 {
					t.Errorf("%s: a warm Forward allocates %v objects and a warm Backward %v, want 0 and 0", en.name, fwd, bwd)
				}
			}
		})
	}
}
