// Package par is the OpenMP-like shared-memory parallel runtime that the
// coarse-grain parallelization is built on. It provides the three primitives
// the paper's code transformation needs (§3.2, Algorithms 4 and 5):
//
//   - Pool.For: a parallel loop over a coalesced iteration space with
//     OpenMP-default *static scheduling* (one contiguous chunk of
//     ceil(n/P) iterations per thread);
//   - per-worker privatization (workers are identified by a stable rank,
//     so callers can index per-thread private storage);
//   - Pool.Ordered: the `#pragma omp for ordered` analogue used for the
//     deterministic gradient reduction — each worker's merge section runs
//     in strictly increasing rank order, which makes the reduced value
//     bit-identical to the sequential execution for any worker count;
//   - Pool.OrderedSlices: the element-parallel form of the same ordered
//     reduction — the element space is sliced across workers and every
//     worker folds ranks 0..P-1 in rank order over its own slice, so each
//     element sees the exact accumulation order of Ordered while the
//     serial section shrinks from O(n) to O(n/P).
//
// The pool keeps P long-lived goroutines pinned to ranks so that repeated
// parallel regions (one per layer per pass per iteration — thousands per
// second) do not pay goroutine creation costs, mirroring an OpenMP thread
// team that persists across parallel regions.
package par

import (
	"fmt"
	"sync"
	"time"

	"coarsegrain/internal/trace"
)

// Pool is a team of worker goroutines with stable ranks 0..P-1.
// A Pool with P == 1 executes everything inline on the caller's goroutine,
// which is the sequential execution the paper compares against.
//
// Pool methods are not safe for concurrent use by multiple goroutines: like
// an OpenMP thread team, one parallel region runs at a time.
type Pool struct {
	workers int
	// bar is the epoch-based spin-then-park fork/join barrier that
	// dispatches regions to worker ranks 1..P-1 (rank 0 is the caller).
	// See barrier.go for the protocol and its memory-ordering argument.
	bar *barrier

	mu         sync.Mutex
	firstPanic any

	closed bool

	// tracer, when non-nil, records one span per worker per worksharing
	// region, labeled with the tracer's current scope (the layer and
	// phase the driver set before entering the region). Nil costs one
	// branch per region.
	tracer *trace.Tracer
}

type task func(rank int)

// NewPool creates a team of n workers. n < 1 is treated as 1.
// Workers beyond rank 0 are goroutines; rank 0 work runs on the calling
// goroutine (like an OpenMP master thread).
func NewPool(n int) *Pool {
	if n < 1 {
		n = 1
	}
	p := &Pool{workers: n, bar: newBarrier(n)}
	for r := 1; r < n; r++ {
		go p.worker(r)
	}
	return p
}

// Workers returns the team size P.
func (p *Pool) Workers() int { return p.workers }

// SetTracer attaches (or, with nil, detaches) a span tracer. Worker
// spans carry the tracer's current scope, the executing rank (which is
// also the band: every schedule here is static) and the iteration
// sub-range. Must be called while no region is
// in flight; create the tracer with at least Workers() ranks or worker
// spans beyond its team size are dropped.
func (p *Pool) SetTracer(t *trace.Tracer) { p.tracer = t }

// traced wraps a loop body so each invocation records one worker span;
// under static scheduling the band is the executing rank.
func (p *Pool) traced(body func(lo, hi, rank int)) func(lo, hi, rank int) {
	tr := p.tracer
	name, phase := tr.Scope()
	return func(lo, hi, rank int) {
		start := time.Now()
		body(lo, hi, rank)
		tr.Record(trace.Span{
			Name: name, Phase: phase, Rank: rank, Band: rank,
			Lo: lo, Hi: hi, Start: tr.Stamp(start), Dur: time.Since(start),
		})
	}
}

// Close shuts the team down. The pool must not be used afterwards: a
// parallel region on a closed pool panics. Closing an already-closed
// pool is a no-op.
func (p *Pool) Close() {
	if p.closed {
		return
	}
	p.closed = true
	if p.workers > 1 {
		p.bar.close()
	}
}

// worker is the loop run by ranks 1..P-1: wait for the barrier to publish
// a region (or the shutdown epoch), run our share, retire it, repeat.
func (p *Pool) worker(rank int) {
	var last uint64
	for {
		last = p.bar.await(last)
		if p.bar.stop {
			return
		}
		p.runTask(p.bar.cur, rank)
	}
}

// runTask executes t(rank), converting a panic into a recorded failure so
// that a panicking loop body cannot wedge the team: the region still
// completes, and the first panic is re-raised on the caller's goroutine.
func (p *Pool) runTask(t task, rank int) {
	defer func() {
		if r := recover(); r != nil {
			p.mu.Lock()
			if p.firstPanic == nil {
				//dnnlint:ignore hotalloc panic-recovery path: runs at most once per worker panic, never in steady state
				p.firstPanic = fmt.Sprintf("par: worker %d panicked: %v", rank, r)
			}
			p.mu.Unlock()
		}
		p.bar.done()
	}()
	t(rank)
}

// region runs t once on every rank (a `#pragma omp parallel` region) and
// waits for completion. Panics in workers are re-raised here.
func (p *Pool) region(t task) {
	if p.workers == 1 {
		t(0)
		return
	}
	if p.closed {
		panic("par: parallel region on closed Pool")
	}
	p.bar.post(t, p.workers)
	p.runTask(t, 0)
	p.bar.join()
	p.mu.Lock()
	fp := p.firstPanic
	p.firstPanic = nil
	p.mu.Unlock()
	if fp != nil {
		panic(fp)
	}
}

// Chunk returns the static-scheduling chunk [lo, hi) assigned to the given
// rank for an n-iteration loop: chunks are contiguous, of size ceil(n/P),
// and the trailing ranks may receive empty ranges. This is the OpenMP
// default ("static") schedule and is exposed so tests and the analytic
// scalability model can reason about the exact work distribution.
func Chunk(n, workers, rank int) (lo, hi int) {
	if workers < 1 {
		workers = 1
	}
	chunk := (n + workers - 1) / workers
	lo = rank * chunk
	hi = lo + chunk
	if lo > n {
		lo = n
	}
	if hi > n {
		hi = n
	}
	return lo, hi
}

// For executes body over the iteration space [0, n) using static
// scheduling: worker r runs body(lo_r, hi_r, r) exactly once with the
// contiguous range returned by Chunk. Workers whose range is empty still
// enter the region (they may own private state) but body is not called for
// them. For blocks until all workers finish.
//
// body must not assume any execution order between ranks; ranges of
// distinct ranks are disjoint, so writes indexed by the iteration variable
// are race-free by construction.
func (p *Pool) For(n int, body func(lo, hi, rank int)) {
	if n <= 0 {
		return
	}
	if p.tracer.Enabled() {
		body = p.traced(body)
	}
	if p.workers == 1 {
		body(0, n, 0)
		return
	}
	p.region(func(rank int) {
		lo, hi := Chunk(n, p.workers, rank)
		if lo < hi {
			body(lo, hi, rank)
		}
	})
}

// Region runs body once per rank, like `#pragma omp parallel` with no
// worksharing loop. Useful when the caller wants full control over private
// allocation and work splitting.
func (p *Pool) Region(body func(rank int)) {
	if tr := p.tracer; tr.Enabled() {
		name, phase := tr.Scope()
		inner := body
		body = func(rank int) {
			start := time.Now()
			inner(rank)
			tr.Record(trace.Span{
				Name: name, Phase: phase, Rank: rank, Band: rank,
				Start: tr.Stamp(start), Dur: time.Since(start),
			})
		}
	}
	p.region(body)
}

// Ordered runs body(rank) for every rank in strictly increasing rank order,
// on the caller's goroutine. This is the reduction idiom of Algorithm 5
// (lines 22-23): after the parallel loop has filled per-rank private
// gradient blobs, the merge happens in a fixed order so the result is
// bit-identical to a sequential execution regardless of the worker count.
//
// The merge itself is sequential by design: the paper chooses the ordered
// update over an unordered reduction precisely to preserve the sequential
// loss trace for debugging and tuning (§3.2.1).
func (p *Pool) Ordered(body func(rank int)) {
	for r := 0; r < p.workers; r++ {
		body(r)
	}
}

// OrderedSlices is the element-parallel form of Ordered for reductions
// whose state is an n-element vector (Algorithm 5's gradient merge viewed
// element-wise). The element space [0, n) is statically sliced across
// workers with Chunk, and each worker folds the source ranks 0..P-1 in
// strictly increasing rank order over its own slice: worker w calls
// merge(lo_w, hi_w, 0), merge(lo_w, hi_w, 1), ..., merge(lo_w, hi_w, P-1).
//
// Because every element is owned by exactly one worker and that worker
// applies the ranks in the same order Ordered would, each element's
// accumulation order — and therefore its rounding — is identical to the
// sequential ordered merge: the result is bit-identical to Ordered at any
// worker count, while the merge's critical path drops from O(n·P) to
// O(n·P/P) = O(n). This is the sanctioned way to accumulate one rank's
// float state into another's in parallel; dnnlint's orderedreduce
// analyzer flags hand-rolled cross-rank folds inside other worksharing
// constructs.
//
// merge(lo, hi, rank) must fold source rank's elements [lo, hi) into the
// reduction target and must touch nothing outside [lo, hi). Slices of
// distinct workers are disjoint, so the writes are race-free by
// construction. n <= 0 runs nothing. With P == 1 the single call
// merge(0, n, 0) runs inline on the caller.
func (p *Pool) OrderedSlices(n int, merge func(lo, hi, rank int)) {
	if n <= 0 {
		return
	}
	workers := p.workers
	fold := func(lo, hi, _ int) {
		for r := 0; r < workers; r++ {
			merge(lo, hi, r)
		}
	}
	if p.tracer.Enabled() {
		// One span per worker covering its whole rank fold: Band is the
		// folding worker's rank, Lo/Hi its element slice.
		fold = p.traced(fold)
	}
	if workers == 1 {
		fold(0, n, 0)
		return
	}
	p.region(func(rank int) {
		lo, hi := Chunk(n, workers, rank)
		if lo < hi {
			fold(lo, hi, rank)
		}
	})
}

// ReduceTree merges per-rank partial results with a pairwise tree:
// combine(dst, src) must fold partial src into partial dst. Tree reduction
// is the *unordered* alternative the paper mentions — cheaper in parallel
// (log P depth) but not guaranteed to reproduce the sequential value
// because float addition is not associative. No engine uses it: it is
// the tree arm of the A-red ablation (DESIGN.md), measured by
// internal/core's BenchmarkOrderedReduce and modeled by bench.Ablation.
func (p *Pool) ReduceTree(combine func(dst, src int)) {
	for stride := 1; stride < p.workers; stride *= 2 {
		// The k-th pair of this stride is (2*stride*k, 2*stride*k+stride);
		// it exists while its src index stays below the team size, giving
		// ceil((workers-stride) / (2*stride)) pairs — computed instead of
		// materialized so steady-state tree reduction allocates nothing.
		m := (p.workers - stride + 2*stride - 1) / (2 * stride)
		p.For(m, func(klo, khi, _ int) {
			for k := klo; k < khi; k++ {
				dst := 2 * stride * k
				combine(dst, dst+stride)
			}
		})
	}
}
