package core

import (
	"fmt"
	"math"
	"testing"

	"coarsegrain/internal/blob"
	"coarsegrain/internal/layers"
	"coarsegrain/internal/par"
	"coarsegrain/internal/rng"
)

// buildIP creates a deterministic LeNet-ip1-shaped inner-product layer.
func buildIP(t *testing.T, seed uint64) (layers.Layer, []*blob.Blob, []*blob.Blob) {
	t.Helper()
	l, err := layers.NewInnerProduct("ip", layers.IPConfig{
		NumOutput: 32, WeightFiller: layers.GaussianFiller{Std: 0.1}, RNG: rng.New(seed, 1),
	})
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(seed, 2)
	bottom := blob.New(12, 50)
	for i := range bottom.Data() {
		bottom.Data()[i] = r.Range(-1, 1)
	}
	tops := []*blob.Blob{blob.New()}
	if err := l.SetUp([]*blob.Blob{bottom}, tops); err != nil {
		t.Fatal(err)
	}
	return l, []*blob.Blob{bottom}, tops
}

// referenceOrderedBackward reproduces Algorithm 5's serial ordered merge
// by hand, without the engine: run the layer's backward over each rank's
// static chunk into fresh zeroed private blobs, then fold the privates
// into the shared params with full-blob AccumulateDiffFrom in strictly
// increasing rank order. This is the accumulation order the ordered
// reduction has always guaranteed; the element-parallel merge must
// reproduce it bit-for-bit.
func referenceOrderedBackward(l layers.Layer, bottom, top []*blob.Blob, workers int) {
	n := l.BackwardExtent()
	params := l.Params()
	if p, ok := l.(layers.BackwardPreparer); ok {
		p.BackwardPrepare(bottom, top)
	}
	privs := make([][]*blob.Blob, workers)
	for r := 0; r < workers; r++ {
		pg := make([]*blob.Blob, len(params))
		for i, p := range params {
			pg[i] = blob.NewDiffOnly(p.Shape()...)
		}
		privs[r] = pg
		lo, hi := par.Chunk(n, workers, r)
		if lo < hi {
			l.BackwardRange(lo, hi, bottom, top, pg)
		}
	}
	for r := 0; r < workers; r++ {
		for i, p := range params {
			p.AccumulateDiffFrom(privs[r][i])
		}
	}
}

// TestOrderedSlicesMergeBitIdenticalAcrossWorkers is the determinism
// table test for the element-parallel reduction: for LeNet-shaped conv
// and inner-product layers, the engine's merged gradients must be
// bit-identical to the serial rank-ordered reference at every worker
// count, and at P=1 bit-identical to the Sequential engine outright.
// (For P>1 no engine can be bit-equal to Sequential — chunked partials
// round differently than one serial chain; DESIGN.md §Algorithm 5 —
// so cross-P agreement is checked at float-summation tolerance, exactly
// as the training-level contract states.)
func TestOrderedSlicesMergeBitIdenticalAcrossWorkers(t *testing.T) {
	builders := []struct {
		name  string
		build func(t *testing.T, seed uint64) (layers.Layer, []*blob.Blob, []*blob.Blob)
		seed  uint64
	}{
		{"conv", func(t *testing.T, seed uint64) (layers.Layer, []*blob.Blob, []*blob.Blob) {
			l, bot, top := buildConv(t, seed)
			return l, bot, top
		}, 11},
		{"ip", buildIP, 13},
	}
	for _, bc := range builders {
		for _, workers := range []int{1, 2, 3, 4, 7, 8} {
			t.Run(fmt.Sprintf("%s/P=%d", bc.name, workers), func(t *testing.T) {
				// Engine run: coarse with the element-parallel ordered merge.
				l, bot, top := bc.build(t, bc.seed)
				e := NewCoarse(workers)
				e.Forward(l, bot, top)
				seedTopDiff(top, bc.seed)
				for _, p := range l.Params() {
					p.ZeroDiff()
				}
				e.Backward(l, bot, top)
				e.Close()

				// Reference run: serial rank-ordered merge, reconstructed.
				lr, botr, topr := bc.build(t, bc.seed)
				seq := NewSequential()
				seq.Forward(lr, botr, topr)
				seedTopDiff(topr, bc.seed)
				for _, p := range lr.Params() {
					p.ZeroDiff()
				}
				referenceOrderedBackward(lr, botr, topr, workers)

				for pi := range l.Params() {
					got, want := l.Params()[pi].Diff(), lr.Params()[pi].Diff()
					for i := range want {
						if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
							t.Fatalf("param %d element %d: engine %x != ordered reference %x",
								pi, i, math.Float32bits(got[i]), math.Float32bits(want[i]))
						}
					}
				}
				if d := maxAbsDiff(bot[0].Diff(), botr[0].Diff()); d != 0 {
					t.Fatalf("bottom diff differs by %g (disjoint writes must be exact)", d)
				}

				// Sequential-engine comparison: bitwise at P=1, tolerance
				// beyond (float addition is not associative).
				ls, bots, tops := bc.build(t, bc.seed)
				seq.Forward(ls, bots, tops)
				seedTopDiff(tops, bc.seed)
				for _, p := range ls.Params() {
					p.ZeroDiff()
				}
				seq.Backward(ls, bots, tops)
				for pi := range l.Params() {
					got, want := l.Params()[pi].Diff(), ls.Params()[pi].Diff()
					if workers == 1 {
						for i := range want {
							if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
								t.Fatalf("P=1 param %d element %d not bit-identical to Sequential", pi, i)
							}
						}
					} else if d := maxAbsDiff(got, want); d > 1e-4 {
						t.Fatalf("param %d deviates from Sequential by %g", pi, d)
					}
				}
			})
		}
	}
}
