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

// TestMaxPoolTableAllocations pins a warm MaxPoolTable on a held scratch
// at 0 allocations, at LeNet's pool2 (8x8 -> 4x4, 2x2 stride 2: every
// window through the table), on every kernel set.
func TestMaxPoolTableAllocations(t *testing.T) {
	forEachSet(t, func(t *testing.T) {
		in := randomSlice(newPCG(56, 56), 64)
		tab, out, idx := windowTable(8, 8, 2, 2, 2, 2, 0, 0, 4, 4), make([]float32, 16), make([]int32, 16)
		s := &GemmScratch{}
		pool := func() { MaxPoolTable(s, in, tab, out, idx) }
		pool()
		if got := testing.AllocsPerRun(20, pool); got != 0 {
			t.Errorf("MaxPoolTable allocates %v objects per call, want 0", got)
		}
	})
}

// windowTable lists every window of an outH x outW max pooling of an h x
// w plane (kernel kh x kw, stride sh x sw, padding ph x pw) in a
// PoolTable, clipped elements -1, each window at its output position.
func windowTable(h, w, kh, kw, sh, sw, ph, pw, outH, outW int) *PoolTable {
	n := outH * outW
	t := &PoolTable{K: kh * kw, Out: make([]int32, n), At: make([]int32, kh*kw*n)}
	for i := range t.Out {
		t.Out[i] = int32(i)
		hs, ws := i/outW*sh-ph, i%outW*sw-pw
		for k := 0; k < kh*kw; k++ {
			ih, iw := hs+k/kw, ws+k%kw
			t.At[k*n+i] = -1
			if ih >= 0 && ih < h && iw >= 0 && iw < w {
				t.At[k*n+i] = int32(ih*w + iw)
			}
		}
	}
	return t
}
