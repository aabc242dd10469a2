//go:build !race

// The race detector's instrumentation allocates, so the allocation pins
// only run in normal test passes.

package blas

import (
	"testing"
)

// TestGemmAllocations pins a warm Gemm (its scratch borrowed from the
// package free list) at 0 heap allocations, on the small-M and small-K
// products whose time is mostly the vector packers and writeback: ip1's
// forward at M = 1 (a served request) and its weight gradient at K = 8 (a
// band of 8 samples); and the transposed conv weight gradient
// (ConvBackwardWeights) and the bottom gradient (ConvBackwardData, in
// strips and gathered, each forced) on the zoo nets' five convolutions;
// each on every kernel set.
func TestGemmAllocations(t *testing.T) {
	forEachSet(t, func(t *testing.T) {
		r := newPCG(55, 55)
		for _, sh := range []struct {
			name    string
			ta, tb  Transpose
			m, n, k int
			beta    float32
		}{
			{"ip1-fwd-m1", NoTrans, Trans, 1, 500, 800, 0},
			{"ip1-bwdW-k8", Trans, NoTrans, 500, 800, 8, 1},
		} {
			arows, acols := storage(sh.ta, sh.m, sh.k)
			brows, bcols := storage(sh.tb, sh.k, sh.n)
			a, b := randomSlice(r, arows*acols), randomSlice(r, brows*bcols)
			c := make([]float32, sh.m*sh.n)
			gemm := func() { Gemm(sh.ta, sh.tb, sh.m, sh.n, sh.k, 1, a, acols, b, bcols, sh.beta, c, sh.n) }
			gemm()
			if got := testing.AllocsPerRun(20, gemm); got != 0 {
				t.Errorf("%s: Gemm allocates %v objects per call, want 0", sh.name, got)
			}
		}
		for _, l := range zooConvs {
			g, o := l.g, l.o
			im, dTop := randomSlice(r, g.Channels*g.Height*g.Width), randomSlice(r, o*g.Cols())
			wGrad := make([]float32, o*g.Rows())
			p, s := NewConvPlan(g), &GemmScratch{}
			dW := func() { ConvBackwardWeights(s, p, o, dTop, im, wGrad) }
			dW()
			if got := testing.AllocsPerRun(10, dW); got != 0 {
				t.Errorf("%s dW: ConvBackwardWeights allocates %v objects per call, want 0", l.name, got)
			}
			w, dX := randomSlice(r, o*g.Rows()), make([]float32, g.Channels*g.Height*g.Width)
			for _, route := range []ConvRoute{{}, {DXGather: true}} {
				p := NewConvPlanForced(g, route)
				s.PackBackwardData(p, o, w, 0, g.Channels)
				data := func() { ConvBackwardData(s, p, o, dTop, dX, 0, g.Channels) }
				data()
				if got := testing.AllocsPerRun(10, data); got != 0 {
					t.Errorf("%s dX (gathers: %v): ConvBackwardData allocates %v objects per call, want 0", l.name, p.dataGathers(o), got)
				}
			}
		}
	})
}
