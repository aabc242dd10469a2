package par

import (
	"math"
	"math/rand"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
)

func TestChunkCoversAndDisjoint(t *testing.T) {
	for _, n := range []int{0, 1, 5, 16, 17, 100, 1000} {
		for _, p := range []int{1, 2, 3, 7, 16, 64} {
			covered := make([]int, n)
			prevHi := 0
			for r := 0; r < p; r++ {
				lo, hi := Chunk(n, p, r)
				if lo > hi {
					t.Fatalf("n=%d p=%d r=%d: lo %d > hi %d", n, p, r, lo, hi)
				}
				if lo < prevHi {
					t.Fatalf("n=%d p=%d r=%d: overlap", n, p, r)
				}
				for i := lo; i < hi; i++ {
					covered[i]++
				}
				prevHi = hi
			}
			for i, c := range covered {
				if c != 1 {
					t.Fatalf("n=%d p=%d: iteration %d covered %d times", n, p, i, c)
				}
			}
		}
	}
}

func TestChunkStaticBalance(t *testing.T) {
	// Static scheduling gives every non-trailing rank exactly ceil(n/P).
	n, p := 103, 8
	want := (n + p - 1) / p
	lo, hi := Chunk(n, p, 0)
	if hi-lo != want {
		t.Fatalf("rank 0 got %d iterations, want %d", hi-lo, want)
	}
	// Trailing rank may be short or empty.
	lo, hi = Chunk(n, p, p-1)
	if hi-lo < 0 || hi-lo > want {
		t.Fatalf("trailing rank got %d iterations", hi-lo)
	}
}

func TestChunkDegenerateWorkers(t *testing.T) {
	lo, hi := Chunk(10, 0, 0)
	if lo != 0 || hi != 10 {
		t.Fatalf("workers=0 should behave as 1: [%d,%d)", lo, hi)
	}
}

func TestForCoversAllIterations(t *testing.T) {
	for _, workers := range []int{1, 2, 4, 7} {
		p := NewPool(workers)
		n := 1000
		hits := make([]int32, n)
		p.For(n, func(lo, hi, rank int) {
			for i := lo; i < hi; i++ {
				atomic.AddInt32(&hits[i], 1)
			}
		})
		for i, h := range hits {
			if h != 1 {
				t.Fatalf("workers=%d: iteration %d hit %d times", workers, i, h)
			}
		}
		p.Close()
	}
}

func TestForEmptyAndNegative(t *testing.T) {
	p := NewPool(4)
	defer p.Close()
	var called int32
	p.For(0, func(lo, hi, rank int) { atomic.AddInt32(&called, 1) })
	p.For(-5, func(lo, hi, rank int) { atomic.AddInt32(&called, 1) })
	if atomic.LoadInt32(&called) != 0 {
		t.Fatal("body called for empty loop")
	}
}

func TestForFewerIterationsThanWorkers(t *testing.T) {
	p := NewPool(8)
	defer p.Close()
	var n int32
	p.For(3, func(lo, hi, rank int) {
		atomic.AddInt32(&n, int32(hi-lo))
	})
	if n != 3 {
		t.Fatalf("covered %d iterations, want 3", n)
	}
}

func TestRegionRunsEveryRankOnce(t *testing.T) {
	p := NewPool(5)
	defer p.Close()
	var mu sync.Mutex
	seen := map[int]int{}
	p.Region(func(rank int) {
		mu.Lock()
		seen[rank]++
		mu.Unlock()
	})
	if len(seen) != 5 {
		t.Fatalf("ranks seen: %v", seen)
	}
	for r, c := range seen {
		if c != 1 {
			t.Fatalf("rank %d ran %d times", r, c)
		}
	}
}

func TestOrderedRunsInRankOrder(t *testing.T) {
	p := NewPool(6)
	defer p.Close()
	var order []int
	p.Ordered(func(rank int) { order = append(order, rank) })
	for i, r := range order {
		if r != i {
			t.Fatalf("ordered ran out of order: %v", order)
		}
	}
	if len(order) != 6 {
		t.Fatalf("ordered visited %d ranks", len(order))
	}
}

func TestForOrderedReductionDeterminism(t *testing.T) {
	// Summing a pseudo-random vector with privatization + ordered merge must
	// be bit-identical for every worker count (the paper's convergence-
	// invariance mechanism).
	n := 4097
	xs := make([]float32, n)
	v := float32(0.1)
	for i := range xs {
		v = v*1.0001 + 0.7
		xs[i] = v
	}
	ref := func() float32 {
		var s float32
		for _, x := range xs {
			s += x
		}
		return s
	}()
	for _, workers := range []int{1, 2, 3, 4, 8, 16} {
		p := NewPool(workers)
		priv := make([]float32, workers)
		var total float32
		p.For(n, func(lo, hi, rank int) {
			var s float32
			for i := lo; i < hi; i++ {
				s += xs[i]
			}
			priv[rank] = s
		})
		p.Ordered(func(rank int) { total += priv[rank] })
		p.Close()
		// Ordered merge of contiguous chunks reproduces the exact sequential
		// sum because each private partial is the exact sum of a contiguous
		// range and the merge adds them left to right... which is only
		// bit-equal when partials associate identically. Verify closeness
		// and, critically, determinism across repeated runs.
		if rel := float64(total-ref) / float64(ref); rel > 1e-5 || rel < -1e-5 {
			t.Fatalf("workers=%d: total %v vs ref %v", workers, total, ref)
		}
		p2 := NewPool(workers)
		priv2 := make([]float32, workers)
		var total2 float32
		p2.For(n, func(lo, hi, rank int) {
			var s float32
			for i := lo; i < hi; i++ {
				s += xs[i]
			}
			priv2[rank] = s
		})
		p2.Ordered(func(rank int) { total2 += priv2[rank] })
		p2.Close()
		if total != total2 {
			t.Fatalf("workers=%d: ordered reduction not deterministic: %v vs %v", workers, total, total2)
		}
	}
}

func TestPanicPropagatesAndPoolSurvives(t *testing.T) {
	p := NewPool(4)
	defer p.Close()
	func() {
		defer func() {
			r := recover()
			if r == nil {
				t.Fatal("panic in body not propagated")
			}
			if !strings.Contains(r.(string), "boom") {
				t.Fatalf("panic message lost: %v", r)
			}
		}()
		p.For(100, func(lo, hi, rank int) {
			if rank == 2 {
				panic("boom")
			}
		})
	}()
	// Pool must still work after a panicking region (failure injection).
	var n int32
	p.For(10, func(lo, hi, rank int) { atomic.AddInt32(&n, int32(hi-lo)) })
	if n != 10 {
		t.Fatalf("pool wedged after panic: covered %d", n)
	}
}

func TestPanicOnMaster(t *testing.T) {
	p := NewPool(3)
	defer p.Close()
	defer func() {
		if recover() == nil {
			t.Fatal("master panic not propagated")
		}
	}()
	p.For(3, func(lo, hi, rank int) {
		if rank == 0 {
			panic("master boom")
		}
	})
}

func TestNewPoolClampsToOne(t *testing.T) {
	p := NewPool(-3)
	defer p.Close()
	if p.Workers() != 1 {
		t.Fatalf("workers = %d, want 1", p.Workers())
	}
}

func TestCloseIdempotent(t *testing.T) {
	p := NewPool(2)
	p.Close()
	p.Close()
}

func TestReduceTree(t *testing.T) {
	for _, workers := range []int{1, 2, 3, 5, 8} {
		p := NewPool(workers)
		parts := make([]int64, workers)
		for r := range parts {
			parts[r] = int64(r + 1)
		}
		p.ReduceTree(func(dst, src int) {
			parts[dst] += parts[src]
			parts[src] = 0
		})
		want := int64(workers * (workers + 1) / 2)
		if parts[0] != want {
			t.Fatalf("workers=%d: tree reduce = %d, want %d", workers, parts[0], want)
		}
		p.Close()
	}

	// On float partials the tree re-associates the sum, so it may differ
	// from the rank-ordered fold in the last bits, but only there (the
	// A-red claim EXPERIMENTS.md records).
	const n = 4096
	for _, workers := range []int{2, 3, 4, 8} {
		p := NewPool(workers)
		r := rand.New(rand.NewSource(int64(workers)))
		parts := make([][]float32, workers)
		for w := range parts {
			parts[w] = make([]float32, n)
			for i := range parts[w] {
				parts[w][i] = r.Float32()*2 - 1
			}
		}
		ordered := make([]float32, n)
		p.Ordered(func(rank int) {
			for i, v := range parts[rank] {
				ordered[i] += v
			}
		})
		p.ReduceTree(func(dst, src int) {
			for i, v := range parts[src] {
				parts[dst][i] += v
			}
		})
		for i := range ordered {
			if d := math.Abs(float64(parts[0][i] - ordered[i])); d > 1e-4 {
				t.Fatalf("workers=%d: tree fold deviates from the ordered fold by %g at %d", workers, d, i)
			}
		}
		p.Close()
	}
}

// Property: for arbitrary n and worker counts, For covers each iteration
// exactly once with no overlap.
func TestQuickForExactCoverage(t *testing.T) {
	f := func(nRaw uint16, wRaw uint8) bool {
		n := int(nRaw % 2000)
		w := int(wRaw%16) + 1
		p := NewPool(w)
		defer p.Close()
		hits := make([]int32, n)
		p.For(n, func(lo, hi, rank int) {
			for i := lo; i < hi; i++ {
				atomic.AddInt32(&hits[i], 1)
			}
		})
		for _, h := range hits {
			if h != 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
