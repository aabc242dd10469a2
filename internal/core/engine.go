// Package core implements the paper's primary contribution: the execution
// engines that parallelize a layer's forward and backward passes.
//
// An engine is a worker team (a par.Pool with its per-worker gradient
// arenas) plus a *cut*: a choice, for each layer and pass, of the axis the
// pass is split along — none (serial), the batch (samples) or the layer's
// channels. The three engines are the three cuts of the paper's
// comparison, run by one engine type over the one layer contract:
//
//   - NewCoarse is the engine: the coarse-grain, batch-level
//     parallelization (§3) — every pass is cut by samples, the layer's
//     coalesced loop statically scheduled across the team, parameter
//     gradients privatized per worker and merged with an ordered reduction
//     (Algorithms 4 and 5). It is *network-agnostic*: it only uses the
//     generic Layer interface, never a layer-specific kernel. Every command
//     builds NewCoarse(-workers); one worker is the sequential run bit for
//     bit.
//   - NewSequential — the serial baseline every speedup is measured
//     against: a team of one, every pass one full range on the caller.
//     It is also what a net built with a nil engine runs — each serving
//     replica, whose parallelism is across replicas.
//   - NewFine — the plain-GPU analogue (parallelism inside a layer's pass,
//     §3.1.1/§3.1.2): a layers.ChannelRanger is cut by channels and every
//     other layer's range as Coarse cuts it, bit-identical to Sequential
//     at any worker count. It is constructed only by the experiment
//     harness (internal/bench), the examples and tests.
//
// The convolution kernel is the other axis of the paper's comparison and
// a property of the net, not of the engine: a net built with lowered
// convolutions (layers.ConvConfig.Lowered, the im2col+GEMM restructuring
// that stands in for cuDNN) runs them under every cut, so Fine on a
// lowered net is the cuDNN-GPU analogue.
//
// Engines are deliberately unaware of networks and solvers; package net
// composes them.
//
// # Observability
//
// Every engine accepts a span tracer (Engine.SetTracer; package net
// propagates it) and hands it to its pool, so every samples or channels
// band appears as a per-worker span, and Algorithm 5's gradient merge gets
// a driver-side reduce span. A serial cut runs on the caller outside the
// pool and records no band spans: only the driver-side layer spans
// recorded by package net exist for it. A nil tracer costs nothing; see
// OBSERVABILITY.md.
package core

import (
	"time"

	"coarsegrain/internal/blob"
	"coarsegrain/internal/layers"
	"coarsegrain/internal/par"
	"coarsegrain/internal/trace"
)

// Engine executes single-layer passes under some parallelization strategy.
type Engine interface {
	// Name identifies the strategy ("sequential", "coarse", ...).
	Name() string
	// Workers returns the size of the worker team (1 for sequential).
	Workers() int
	// Forward runs l's forward pass (prepare hook, parallel region,
	// finish hook).
	Forward(l layers.Layer, bottom, top []*blob.Blob)
	// Backward runs l's backward pass. Parameter gradients are
	// ACCUMULATED into l.Params() diffs; callers (the solver) zero them
	// at the start of an iteration.
	Backward(l layers.Layer, bottom, top []*blob.Blob)
	// ScratchBytes reports the engine's private-storage footprint — the
	// paper's §3.2.1 memory-overhead metric. Zero for engines without
	// privatization.
	ScratchBytes() int64
	// SetTracer attaches a span tracer to the engine and its worker team;
	// nil detaches. Attach before training, never while a pass is in
	// flight.
	SetTracer(t *trace.Tracer)
	// Close releases the worker team.
	Close()
}

// axis is what a cut splits one pass of one layer along.
type axis int

const (
	// serial runs the pass as one full range on the caller.
	serial axis = iota
	// samples cuts the layer's coalesced range into static bands
	// (Algorithm 4), privatizing parameter gradients (Algorithm 5).
	samples
	// channels cuts a layers.ChannelRanger by output channels (forward,
	// parameter gradient) and input channels (bottom gradient); each band
	// owns its rows of the gradient, so nothing is privatized.
	channels
)

// engine is the one Engine: a worker team and the cut that picks, per
// layer and pass, the axis the team splits it along.
type engine struct {
	name   string
	pool   *par.Pool
	arenas []arena // one per worker rank
	tracer *trace.Tracer
	cut    func(l layers.Layer, backward bool) axis
}

func newEngine(name string, workers int, cut func(layers.Layer, bool) axis) *engine {
	p := par.NewPool(workers)
	return &engine{name: name, pool: p, arenas: make([]arena, p.Workers()), cut: cut}
}

// NewSequential creates the serial engine: every pass is one full range on
// the calling goroutine — the 1-thread baseline of the paper's evaluation.
func NewSequential() Engine {
	return newEngine("sequential", 1, func(layers.Layer, bool) axis { return serial })
}

// NewCoarse creates the coarse-grain engine with the given worker count:
// batch-level parallelization of the generic layer loop nest, in the one
// configuration the paper's convergence argument rests on — static
// schedule plus ordered reduction. With one worker every range runs inline
// on the caller and nothing is privatized, so NewCoarse(1) is the
// sequential execution bit for bit.
func NewCoarse(workers int) Engine {
	return newEngine("coarse", workers, func(layers.Layer, bool) axis { return samples })
}

// NewFine creates the fine-grain engine, the analogue of the paper's
// "plain-GPU" configuration: parallelism lives *inside* each layer's
// passes, every band covering the whole batch (§3.1.1 BLAS-level / §3.1.2
// blob-level). Its cut:
//
//   - a layers.ChannelRanger (Convolution, InnerProduct) is cut by
//     channels;
//   - every other forward pass, and the backward pass of a layer without
//     parameters, is cut by samples, as in Coarse;
//   - a layer with parameters but no channel axis (BatchNorm,
//     Deconvolution) runs its backward serially.
//
// Every cut computes each output as the sequential range does, so Fine is
// bit-identical to Sequential at every worker count.
func NewFine(workers int) Engine {
	return newEngine("fine", workers, func(l layers.Layer, backward bool) axis {
		if _, ok := l.(layers.ChannelRanger); ok {
			return channels
		}
		if backward && len(l.Params()) > 0 {
			return serial
		}
		return samples
	})
}

// Name implements Engine.
func (e *engine) Name() string { return e.name }

// Workers implements Engine.
func (e *engine) Workers() int { return e.pool.Workers() }

// SetTracer implements Engine: every worksharing band becomes a per-worker
// span, and the gradient merge of Algorithm 5 gets its own reduce span (the
// serial section the paper's overhead analysis singles out).
func (e *engine) SetTracer(t *trace.Tracer) {
	e.tracer = t
	e.pool.SetTracer(t)
}

// Forward implements Engine (Algorithm 4 under a samples cut): the serial
// prepare hook runs first (data layers load their batch here, sequentially,
// exactly as in Caffe), then the cut's bands, then the serial finish hook.
func (e *engine) Forward(l layers.Layer, bottom, top []*blob.Blob) {
	if p, ok := l.(layers.ForwardPreparer); ok {
		p.ForwardPrepare(bottom, top)
	}
	switch n := l.ForwardExtent(); e.cut(l, false) {
	case serial:
		if n > 0 {
			l.ForwardRange(0, n, bottom, top)
		}
	case samples:
		// A zero extent (the Data layer's) skips the region and its
		// closure.
		if n > 0 {
			e.pool.For(n, func(lo, hi, _ int) { l.ForwardRange(lo, hi, bottom, top) })
		}
	case channels:
		cr := l.(layers.ChannelRanger)
		out, _ := cr.ChannelExtents()
		e.pool.For(out, func(lo, hi, _ int) { cr.ForwardChannels(lo, hi, bottom, top) })
	}
	if f, ok := l.(layers.ForwardFinisher); ok {
		f.ForwardFinish(bottom, top)
	}
}

// Backward implements Engine. Under a samples cut a layer with parameters
// and more than one worker takes Algorithm 5's privatized path; without
// parameters the bottom-diff writes are disjoint by the layer contract, so
// the plain parallel loop is already race-free.
func (e *engine) Backward(l layers.Layer, bottom, top []*blob.Blob) {
	n := l.BackwardExtent()
	if n == 0 {
		return
	}
	params := l.Params()
	if p, ok := l.(layers.BackwardPreparer); ok {
		p.BackwardPrepare(bottom, top)
	}
	switch e.cut(l, true) {
	case serial:
		l.BackwardRange(0, n, bottom, top, params)
	case samples:
		if len(params) > 0 && e.pool.Workers() > 1 {
			e.privatized(l, n, bottom, top, params)
		} else {
			e.pool.For(n, func(lo, hi, _ int) { l.BackwardRange(lo, hi, bottom, top, params) })
		}
	case channels:
		cr := l.(layers.ChannelRanger)
		out, in := cr.ChannelExtents()
		e.pool.For(out, func(lo, hi, _ int) { cr.BackwardParamChannels(lo, hi, bottom, top) })
		e.pool.For(in, func(lo, hi, _ int) { cr.BackwardDataChannels(lo, hi, bottom, top) })
	}
	if f, ok := l.(layers.BackwardFinisher); ok {
		f.BackwardFinish(bottom, top)
	}
}

// privatized is Algorithm 5: each worker receives private, zero-initialized
// gradient blobs for the layer's parameters ("object privatization"),
// processes its static chunk, and the private gradients are merged into the
// shared parameter diffs. The merge is itself parallel: the layer's
// parameters are viewed as one flat element space, sliced across the team
// with par.Pool.OrderedSlices, and each worker folds ranks 0..P-1 *in rank
// order* over its own slice — every element keeps the exact accumulation
// order of the serial ordered merge, so the result is bit-deterministic for
// a fixed worker count while the reduce's critical path shrinks by a factor
// of P. All fork/join edges run on the pool's spin-then-park barrier
// (par.Pool), not channels. The same rank-ordered fold is what
// internal/dist stretches across process boundaries (DISTRIBUTED.md).
func (e *engine) privatized(l layers.Layer, n int, bottom, top, params []*blob.Blob) {
	workers := e.pool.Workers()
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
}

// ScratchBytes implements Engine: the privatization overhead of §3.2.1,
// zero until a samples cut privatizes a gradient.
func (e *engine) ScratchBytes() int64 {
	var n int64
	for i := range e.arenas {
		n += e.arenas[i].bytes()
	}
	return n
}

// Close implements Engine.
func (e *engine) Close() { e.pool.Close() }
