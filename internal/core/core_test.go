package core

import (
	"math"
	"testing"

	"coarsegrain/internal/blob"
	"coarsegrain/internal/layers"
	"coarsegrain/internal/par"
	"coarsegrain/internal/rng"
)

// buildConv creates a deterministic convolution layer with its blobs.
func buildConv(t *testing.T, seed uint64) (*layers.Convolution, []*blob.Blob, []*blob.Blob) {
	t.Helper()
	return buildConvKernel(t, seed, false)
}

// buildConvKernel is buildConv on the direct loop nest or (lowered) the
// im2col+GEMM products.
func buildConvKernel(t *testing.T, seed uint64, lowered bool) (*layers.Convolution, []*blob.Blob, []*blob.Blob) {
	t.Helper()
	l, err := layers.NewConvolution("conv", layers.ConvConfig{
		NumOutput: 4, Kernel: 3, Pad: 1, Lowered: lowered,
		WeightFiller: layers.GaussianFiller{Std: 0.2}, RNG: rng.New(seed, 1),
	})
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(seed, 2)
	bottom := blob.New(6, 3, 8, 8)
	for i := range bottom.Data() {
		bottom.Data()[i] = r.Range(-1, 1)
	}
	tops := []*blob.Blob{blob.New()}
	if err := l.SetUp([]*blob.Blob{bottom}, tops); err != nil {
		t.Fatal(err)
	}
	return l, []*blob.Blob{bottom}, tops
}

func seedTopDiff(tops []*blob.Blob, seed uint64) {
	r := rng.New(seed, 3)
	for i := range tops[0].Diff() {
		tops[0].Diff()[i] = r.Range(-1, 1)
	}
}

func maxAbsDiff(a, b []float32) float64 {
	var m float64
	for i := range a {
		if d := math.Abs(float64(a[i] - b[i])); d > m {
			m = d
		}
	}
	return m
}

func TestEngineNames(t *testing.T) {
	for _, tc := range []struct {
		e    Engine
		name string
		w    int
	}{
		{NewSequential(), "sequential", 1},
		{NewCoarse(4), "coarse", 4},
		{NewFine(4), "fine", 4},
	} {
		if tc.e.Name() != tc.name || tc.e.Workers() != tc.w {
			t.Fatalf("engine %T: name %q workers %d", tc.e, tc.e.Name(), tc.e.Workers())
		}
		tc.e.Close()
	}
}

// Coarse forward must be bit-identical to sequential for any worker count:
// forward has no reductions, only disjoint writes.
func TestCoarseForwardBitIdentical(t *testing.T) {
	lRef, botRef, topRef := buildConv(t, 42)
	NewSequential().Forward(lRef, botRef, topRef)
	for _, w := range []int{1, 2, 3, 7, 16} {
		l, bot, top := buildConv(t, 42)
		e := NewCoarse(w)
		e.Forward(l, bot, top)
		e.Close()
		for i := range topRef[0].Data() {
			if top[0].Data()[i] != topRef[0].Data()[i] {
				t.Fatalf("workers=%d: forward differs at %d", w, i)
			}
		}
	}
}

// Coarse backward with ordered reduction: bottom diffs bit-identical
// (disjoint writes); parameter gradients equal to sequential within
// float-summation tolerance, and bit-deterministic for a fixed worker
// count.
func TestCoarseBackwardMatchesSequential(t *testing.T) {
	lRef, botRef, topRef := buildConv(t, 7)
	seq := NewSequential()
	seq.Forward(lRef, botRef, topRef)
	seedTopDiff(topRef, 7)
	for _, p := range lRef.Params() {
		p.ZeroDiff()
	}
	seq.Backward(lRef, botRef, topRef)

	for _, w := range []int{2, 4, 8} {
		l, bot, top := buildConv(t, 7)
		e := NewCoarse(w)
		e.Forward(l, bot, top)
		seedTopDiff(top, 7)
		for _, p := range l.Params() {
			p.ZeroDiff()
		}
		e.Backward(l, bot, top)

		if d := maxAbsDiff(bot[0].Diff(), botRef[0].Diff()); d != 0 {
			t.Fatalf("workers=%d: bottom diff differs by %g (must be exact)", w, d)
		}
		for pi := range l.Params() {
			if d := maxAbsDiff(l.Params()[pi].Diff(), lRef.Params()[pi].Diff()); d > 1e-4 {
				t.Fatalf("workers=%d: param %d grad differs by %g", w, pi, d)
			}
		}

		// Re-run with the same worker count: must be bit-identical
		// (the ordered reduction's determinism guarantee).
		l2, bot2, top2 := buildConv(t, 7)
		e2 := NewCoarse(w)
		e2.Forward(l2, bot2, top2)
		seedTopDiff(top2, 7)
		for _, p := range l2.Params() {
			p.ZeroDiff()
		}
		e2.Backward(l2, bot2, top2)
		for pi := range l.Params() {
			if d := maxAbsDiff(l.Params()[pi].Diff(), l2.Params()[pi].Diff()); d != 0 {
				t.Fatalf("workers=%d: ordered reduction not deterministic (diff %g)", w, d)
			}
		}
		e.Close()
		e2.Close()
	}
}

// The A-red ablation on real gradients: privatize the conv layer's
// backward exactly as Coarse does, merge the private copies with the
// unordered pairwise par.Pool.ReduceTree instead of the rank-ordered fold,
// and check the result stays within float-summation tolerance of
// Coarse's ordered reduction.
func TestTreeReductionCloseToOrdered(t *testing.T) {
	const workers = 4
	lRef, botRef, topRef := buildConv(t, 9)
	eo := NewCoarse(workers)
	eo.Forward(lRef, botRef, topRef)
	seedTopDiff(topRef, 9)
	for _, p := range lRef.Params() {
		p.ZeroDiff()
	}
	eo.Backward(lRef, botRef, topRef)
	eo.Close()

	l, bot, top := buildConv(t, 9)
	NewSequential().Forward(l, bot, top)
	seedTopDiff(top, 9)
	params := l.Params()
	for _, p := range params {
		p.ZeroDiff()
	}
	if p, ok := any(l).(layers.BackwardPreparer); ok {
		p.BackwardPrepare(bot, top)
	}
	n := l.BackwardExtent()
	privs := make([][]*blob.Blob, workers)
	for rank := range privs {
		privs[rank] = make([]*blob.Blob, len(params))
		for i, p := range params {
			privs[rank][i] = blob.NewDiffOnly(p.Shape()...)
		}
		if lo, hi := par.Chunk(n, workers, rank); lo < hi {
			l.BackwardRange(lo, hi, bot, top, privs[rank])
		}
	}
	pool := par.NewPool(workers)
	pool.ReduceTree(func(dst, src int) {
		for i := range params {
			privs[dst][i].AccumulateDiffFrom(privs[src][i])
		}
	})
	pool.Close()
	for i, p := range params {
		p.AccumulateDiffFrom(privs[0][i])
	}
	for pi := range params {
		if d := maxAbsDiff(params[pi].Diff(), lRef.Params()[pi].Diff()); d > 1e-4 {
			t.Fatalf("tree reduction param %d deviates by %g", pi, d)
		}
	}
}

// Fine against Sequential on each convolution kernel, bit for bit: a Fine
// band computes whole output channels (forward, dW and db) or whole input
// channels (dX), each in the sequential range's order.
func TestFineMatchesSequential(t *testing.T) {
	for _, lowered := range []bool{false, true} {
		lRef, botRef, topRef := buildConvKernel(t, 11, lowered)
		seq := NewSequential()
		seq.Forward(lRef, botRef, topRef)
		seedTopDiff(topRef, 11)
		for _, p := range lRef.Params() {
			p.ZeroDiff()
		}
		seq.Backward(lRef, botRef, topRef)

		for _, w := range []int{2, 3, 4} {
			e := NewFine(w)
			l, bot, top := buildConvKernel(t, 11, lowered)
			e.Forward(l, bot, top)
			if d := maxAbsDiff(top[0].Data(), topRef[0].Data()); d != 0 {
				t.Fatalf("fine/%d lowered=%v: forward deviates by %g", w, lowered, d)
			}
			seedTopDiff(top, 11)
			for _, p := range l.Params() {
				p.ZeroDiff()
			}
			e.Backward(l, bot, top)
			if d := maxAbsDiff(bot[0].Diff(), botRef[0].Diff()); d != 0 {
				t.Fatalf("fine/%d lowered=%v: bottom grad deviates by %g", w, lowered, d)
			}
			for pi := range l.Params() {
				if d := maxAbsDiff(l.Params()[pi].Diff(), lRef.Params()[pi].Diff()); d != 0 {
					t.Fatalf("fine/%d lowered=%v: param %d grad deviates by %g", w, lowered, pi, d)
				}
			}
			e.Close()
		}
	}
}

// Gradients must ACCUMULATE across Backward calls under every engine and
// convolution kernel (the solver zeroes them once per iteration, not per
// layer call).
func TestBackwardAccumulates(t *testing.T) {
	for _, tc := range []struct {
		mk      func() Engine
		lowered bool
	}{
		{func() Engine { return NewSequential() }, false},
		{func() Engine { return NewCoarse(3) }, false},
		{func() Engine { return NewFine(3) }, false},
		{func() Engine { return NewCoarse(3) }, true},
		{func() Engine { return NewFine(3) }, true},
	} {
		e := tc.mk()
		l, bot, top := buildConvKernel(t, 13, tc.lowered)
		e.Forward(l, bot, top)
		seedTopDiff(top, 13)
		for _, p := range l.Params() {
			p.ZeroDiff()
		}
		e.Backward(l, bot, top)
		once := append([]float32(nil), l.Params()[0].Diff()...)
		e.Backward(l, bot, top)
		for i := range once {
			want := 2 * once[i]
			got := l.Params()[0].Diff()[i]
			if math.Abs(float64(got-want)) > 1e-3*math.Max(1, math.Abs(float64(want))) {
				t.Fatalf("%s lowered=%v: gradient did not accumulate: %v vs 2*%v", e.Name(), tc.lowered, got, once[i])
			}
		}
		e.Close()
	}
}

func TestScratchBytesGrowsWithWorkers(t *testing.T) {
	l, bot, top := buildConv(t, 17)
	e := NewCoarse(4)
	defer e.Close()
	if e.ScratchBytes() != 0 {
		t.Fatal("scratch before any backward should be 0")
	}
	e.Forward(l, bot, top)
	seedTopDiff(top, 17)
	e.Backward(l, bot, top)
	sb := e.ScratchBytes()
	if sb == 0 {
		t.Fatal("scratch after backward should be > 0")
	}
	// Param storage: (4*3*3*3 + 4) floats * 4 bytes (diff-only) * 4 ranks.
	paramFloats := int64(4*3*3*3 + 4)
	want := paramFloats * 4 * 4
	if sb != want {
		t.Fatalf("scratch = %d bytes, want %d", sb, want)
	}
	// Reuse across layers: a second backward must not grow the arena.
	e.Backward(l, bot, top)
	if e.ScratchBytes() != sb {
		t.Fatalf("scratch grew on reuse: %d -> %d", sb, e.ScratchBytes())
	}
}

// A layer whose range body panics must not wedge the coarse engine.
type panicLayer struct {
	layers.Layer
	armed bool
}

func (p *panicLayer) ForwardRange(lo, hi int, bottom, top []*blob.Blob) {
	if p.armed {
		panic("injected failure")
	}
	p.Layer.ForwardRange(lo, hi, bottom, top)
}

func TestEngineSurvivesLayerPanic(t *testing.T) {
	l, bot, top := buildConv(t, 19)
	pl := &panicLayer{Layer: l, armed: true}
	e := NewCoarse(4)
	defer e.Close()
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("panic not propagated")
			}
		}()
		e.Forward(pl, bot, top)
	}()
	pl.armed = false
	e.Forward(pl, bot, top) // must not hang or panic
}

// Layers without parameters take the no-privatization backward path.
func TestCoarseBackwardNoParams(t *testing.T) {
	r := rng.New(23, 1)
	l, err := layers.NewPooling("p", layers.PoolConfig{Method: layers.MaxPool, Kernel: 2, Stride: 2})
	if err != nil {
		t.Fatal(err)
	}
	bottom := blob.New(4, 2, 6, 6)
	for i := range bottom.Data() {
		bottom.Data()[i] = r.Range(-1, 1)
	}
	tops := []*blob.Blob{blob.New()}
	if err := l.SetUp([]*blob.Blob{bottom}, tops); err != nil {
		t.Fatal(err)
	}
	seq := NewSequential()
	seq.Forward(l, []*blob.Blob{bottom}, tops)
	for i := range tops[0].Diff() {
		tops[0].Diff()[i] = r.Range(-1, 1)
	}
	seq.Backward(l, []*blob.Blob{bottom}, tops)
	ref := append([]float32(nil), bottom.Diff()...)

	e := NewCoarse(3)
	defer e.Close()
	bottom.ZeroDiff()
	e.Backward(l, []*blob.Blob{bottom}, tops)
	if d := maxAbsDiff(bottom.Diff(), ref); d != 0 {
		t.Fatalf("pool coarse backward differs by %g", d)
	}
	if e.ScratchBytes() != 0 {
		t.Fatal("param-less backward should not allocate scratch")
	}
}
