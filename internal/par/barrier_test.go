package par

import (
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// TestBarrierBackToBackRegions hammers the hot path the barrier is built
// for: thousands of consecutive fork/joins with no idle gap, so dispatch
// stays in the spin phase. Every region must run every rank exactly once,
// and the join must be a full happens-before fence (the counter read
// after Region must see all worker increments without extra sync).
func TestBarrierBackToBackRegions(t *testing.T) {
	for _, workers := range []int{2, 3, 4, 8} {
		p := NewPool(workers)
		counts := make([]int64, workers)
		const regions = 2000
		for i := 0; i < regions; i++ {
			p.Region(func(rank int) {
				atomic.AddInt64(&counts[rank], 1)
			})
			for r := 0; r < workers; r++ {
				if got := atomic.LoadInt64(&counts[r]); got != int64(i+1) {
					t.Fatalf("P=%d: after region %d, rank %d ran %d times", workers, i, r, got)
				}
			}
		}
		p.Close()
	}
}

// TestBarrierParkAndRewake idles the pool long enough that every worker
// exhausts its spin budget and parks on the cond var, then dispatches
// again: the park/rewake path must work repeatedly, not just the spin
// path.
func TestBarrierParkAndRewake(t *testing.T) {
	p := NewPool(4)
	defer p.Close()
	for round := 0; round < 5; round++ {
		time.Sleep(20 * time.Millisecond) // far beyond the spin+yield budget
		var ran atomic.Int32
		p.Region(func(rank int) { ran.Add(1) })
		if got := ran.Load(); got != 4 {
			t.Fatalf("round %d: %d ranks ran, want 4", round, got)
		}
	}
}

// TestBarrierLongRegionParksJoiner makes the workers outlast the caller's
// join spin budget so the joiner takes the park path, and checks the
// last-finisher wakeup works.
func TestBarrierLongRegionParksJoiner(t *testing.T) {
	p := NewPool(4)
	defer p.Close()
	var ran atomic.Int32
	p.Region(func(rank int) {
		if rank != 0 {
			time.Sleep(10 * time.Millisecond)
		}
		ran.Add(1)
	})
	if got := ran.Load(); got != 4 {
		t.Fatalf("%d ranks ran, want 4", got)
	}
}

// TestBarrierMixedWorksharingStress interleaves Region/For/OrderedSlices
// with empty ranges and panics — the shapes the training
// loop and its error paths produce — to shake out dispatch races under
// -race.
func TestBarrierMixedWorksharingStress(t *testing.T) {
	p := NewPool(4)
	defer p.Close()
	sum := make([]int64, 64)
	for i := 0; i < 300; i++ {
		p.For(64, func(lo, hi, rank int) {
			for j := lo; j < hi; j++ {
				sum[j]++
			}
		})
		p.For(0, func(lo, hi, rank int) { t.Error("body ran for n=0") })
		if i%37 == 5 {
			func() {
				defer func() {
					if r := recover(); r == nil {
						t.Error("expected panic to propagate")
					}
				}()
				p.Region(func(rank int) {
					if rank%2 == 1 {
						panic("stress")
					}
				})
			}()
		}
		p.OrderedSlices(64, func(lo, hi, rank int) {
			for j := lo; j < hi; j++ {
				sum[j]++
			}
		})
	}
	for j, v := range sum {
		if v != 300*(1+4) {
			t.Fatalf("element %d: %d increments, want %d", j, v, 300*5)
		}
	}
}

// TestRegionOnClosedPoolPanics: the barrier cannot dispatch to an exited
// team, so using a closed pool is a programming error that must fail
// loudly instead of hanging the join.
func TestRegionOnClosedPoolPanics(t *testing.T) {
	p := NewPool(2)
	p.Close()
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("expected Region on closed Pool to panic")
		}
		if s, ok := r.(string); !ok || !strings.Contains(s, "closed Pool") {
			t.Fatalf("unexpected panic payload: %v", r)
		}
	}()
	p.Region(func(rank int) {})
}

// TestClosedSingleWorkerPoolStillInline: a P=1 pool has no team to shut
// down; its inline execution keeps working after Close (matching the old
// channel implementation, which only closed channels of ranks >= 1).
func TestClosedSingleWorkerPoolStillInline(t *testing.T) {
	p := NewPool(1)
	p.Close()
	var ran atomic.Bool
	p.Region(func(rank int) { ran.Store(true) })
	if !ran.Load() {
		t.Fatal("inline region did not run on closed P=1 pool")
	}
}
