package core

import (
	"time"

	"coarsegrain/internal/blob"
	"coarsegrain/internal/layers"
	"coarsegrain/internal/par"
	"coarsegrain/internal/trace"
)

// Coarse is the paper's contribution: batch-level (coarse-grain)
// parallelization of the generic layer loop nest, in the one
// configuration the paper's convergence argument rests on — static
// schedule plus ordered reduction.
//
// Forward (Algorithm 4): the serial prepare hook runs first (data layers
// load their batch here, sequentially, exactly as in Caffe); then the
// layer's coalesced iteration space is statically scheduled across the
// worker team; the serial finish hook closes the pass.
//
// Backward (Algorithm 5): each worker receives private, zero-initialized
// gradient blobs for the layer's parameters ("object privatization"),
// processes its static chunk, and the private gradients are merged into
// the shared parameter diffs. The merge is itself parallel: the layer's
// parameters are viewed as one flat element space, sliced across the team
// with par.Pool.OrderedSlices, and each worker folds ranks 0..P-1 *in
// rank order* over its own slice — every element keeps the exact
// accumulation order of the serial ordered merge, so the result is
// bit-deterministic for a fixed worker count while the reduce's critical
// path shrinks by a factor of P. All fork/join edges run on the pool's
// spin-then-park barrier (par.Pool), not channels. The same rank-ordered
// fold is what internal/dist stretches across process boundaries
// (DISTRIBUTED.md).
//
// With one worker every range runs inline on the caller and nothing is
// privatized, so Coarse(1) is the sequential execution bit for bit.
//
// The engine is network-agnostic: it never inspects layer types, only the
// generic extents/ranges — which is the property that makes the
// parallelization immediately available for new layer types (§3.3).
type Coarse struct {
	pool   *par.Pool
	arenas []arena // one per worker rank
	tracer *trace.Tracer
}

// NewCoarse creates a coarse-grain engine with the given worker count.
func NewCoarse(workers int) *Coarse {
	p := par.NewPool(workers)
	return &Coarse{pool: p, arenas: make([]arena, p.Workers())}
}

// Name implements Engine.
func (e *Coarse) Name() string { return "coarse" }

// SetTracer attaches a span tracer to the engine and its worker pool:
// every worksharing band becomes a per-worker span, and the gradient
// merge of Algorithm 5 gets its own reduce span (the serial section the
// paper's overhead analysis singles out). Attach before training; nil
// detaches.
func (e *Coarse) SetTracer(t *trace.Tracer) {
	e.tracer = t
	e.pool.SetTracer(t)
}

// Workers implements Engine.
func (e *Coarse) Workers() int { return e.pool.Workers() }

// Forward implements Engine.
func (e *Coarse) Forward(l layers.Layer, bottom, top []*blob.Blob) {
	forwardHooks(l, bottom, top, func() {
		if n := l.ForwardExtent(); n > 0 {
			e.pool.For(n, func(lo, hi, _ int) {
				l.ForwardRange(lo, hi, bottom, top)
			})
		}
	})
}

// Backward implements Engine.
func (e *Coarse) Backward(l layers.Layer, bottom, top []*blob.Blob) {
	n := l.BackwardExtent()
	if n == 0 {
		return
	}
	params := l.Params()
	workers := e.pool.Workers()
	if len(params) == 0 || workers == 1 {
		// Nothing to privatize: bottom-diff writes are disjoint by the
		// layer contract, so the plain parallel loop is already race-free.
		backwardHooks(l, bottom, top, func() {
			e.pool.For(n, func(lo, hi, _ int) {
				l.BackwardRange(lo, hi, bottom, top, params)
			})
		})
		return
	}
	if p, ok := l.(layers.BackwardPreparer); ok {
		p.BackwardPrepare(bottom, top)
	}

	// Object privatization (Algorithm 5 lines 3-5): per-rank private
	// gradient blobs, zero-initialized inside the parallel region.
	privs := make([][]*blob.Blob, workers)
	e.pool.Region(func(rank int) {
		pg := make([]*blob.Blob, len(params))
		for i, p := range params {
			pg[i] = e.arenas[rank].take(p.Shape())
		}
		privs[rank] = pg
		lo, hi := par.Chunk(n, workers, rank)
		if lo < hi {
			l.BackwardRange(lo, hi, bottom, top, pg)
		}
	})

	// Gradient merge (Algorithm 5 lines 22-23), element-parallel: view the
	// layer's params as one flat element space, slice it across workers,
	// and let each worker fold ranks 0..P-1 in rank order over its own
	// slice (par.OrderedSlices). Every element keeps the exact
	// accumulation order of the serial ordered merge — the result stays
	// bit-deterministic — while the reduce's critical path shrinks from
	// O(|params|·P) to O(|params|·P/P).
	var mergeStart time.Time
	if e.tracer.Enabled() {
		mergeStart = time.Now()
		// Label the per-worker merge spans as reduce-phase work so the
		// trace report shows the reduce section scaling with P.
		e.tracer.SetScope(l.Name(), trace.PhaseReduce)
	}
	offsets := make([]int, len(params)+1)
	for i, p := range params {
		offsets[i+1] = offsets[i] + p.Count()
	}
	e.pool.OrderedSlices(offsets[len(params)], func(lo, hi, rank int) {
		pg := privs[rank]
		for i, p := range params {
			plo, phi := lo-offsets[i], hi-offsets[i]
			if plo < 0 {
				plo = 0
			}
			if c := p.Count(); phi > c {
				phi = c
			}
			if plo < phi {
				p.AccumulateDiffRange(pg[i], plo, phi)
			}
		}
	})
	if tr := e.tracer; tr.Enabled() {
		tr.Record(trace.Span{
			Name: l.Name(), Phase: trace.PhaseReduce, Rank: trace.RankDriver, Band: -1,
			Lo: 0, Hi: offsets[len(params)], Start: tr.Stamp(mergeStart), Dur: time.Since(mergeStart),
		})
	}

	for rank, pg := range privs {
		for _, b := range pg {
			e.arenas[rank].put(b)
		}
	}
	if f, ok := l.(layers.BackwardFinisher); ok {
		f.BackwardFinish(bottom, top)
	}
}

// ScratchBytes implements Engine: the privatization overhead of §3.2.1.
func (e *Coarse) ScratchBytes() int64 {
	var n int64
	for i := range e.arenas {
		n += e.arenas[i].bytes()
	}
	return n
}

// Close implements Engine.
func (e *Coarse) Close() { e.pool.Close() }
