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
// composes them. Engine.For lends the team to the work of a step that is
// not a layer pass — the solver's update sweep and the guard's scans — so
// a training step runs on one team.
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
	// For runs body over [0, n) on the engine's worker team with the
	// static schedule of a samples cut: rank r runs body once over
	// par.Chunk(n, Workers(), r), and with one worker the whole range
	// runs inline on the caller. It lends the team to work outside a
	// layer pass (the solver's update, the guard's scans), so a step
	// runs on one team. Like a pass, it must not overlap another.
	For(n int, body func(lo, hi, rank int))
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

	// pass is the layer pass in flight, which the bodies below read;
	// Forward and Backward set it before each region and clear it after.
	pass pass
	// The region bodies, bound once in newEngine so that a pass hands
	// the pool no new closure.
	bandBody    func(lo, hi, rank int)
	privateBody func(rank int)
	mergeBody   func(lo, hi, rank int)
	// privs[r] holds rank r's private gradient blobs during a privatized
	// pass, and offsets the pass's parameter offsets in the flat merge
	// space; both keep their backing arrays across passes.
	privs   [][]*blob.Blob
	offsets []int
}

// pass is one layer pass: which range body a band runs, the layer (and
// its channel view under a channels cut), its blobs and its extent.
type pass struct {
	body                body
	l                   layers.Layer
	cr                  layers.ChannelRanger
	bottom, top, params []*blob.Blob
	n                   int
}

// body names a layer's range body.
type body int

const (
	forwardRange body = iota
	backwardRange
	forwardChannels
	paramChannels
	dataChannels
)

func newEngine(name string, workers int, cut func(layers.Layer, bool) axis) *engine {
	p := par.NewPool(workers)
	e := &engine{name: name, pool: p, arenas: make([]arena, p.Workers()), cut: cut, privs: make([][]*blob.Blob, p.Workers())}
	e.bandBody, e.privateBody, e.mergeBody = e.band, e.privateBand, e.mergeSlice
	return e
}

// band runs the pass's range body over [lo, hi).
func (e *engine) band(lo, hi, _ int) {
	p := &e.pass
	switch p.body {
	case forwardRange:
		p.l.ForwardRange(lo, hi, p.bottom, p.top)
	case backwardRange:
		p.l.BackwardRange(lo, hi, p.bottom, p.top, p.params)
	case forwardChannels:
		p.cr.ForwardChannels(lo, hi, p.bottom, p.top)
	case paramChannels:
		p.cr.BackwardParamChannels(lo, hi, p.bottom, p.top)
	case dataChannels:
		p.cr.BackwardDataChannels(lo, hi, p.bottom, p.top)
	}
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

// For implements Engine.
func (e *engine) For(n int, body func(lo, hi, rank int)) { e.pool.For(n, body) }

// Forward implements Engine (Algorithm 4 under a samples cut): the serial
// prepare hook runs first (a data layer advances its cursor here), then
// the cut's bands (a data layer's load among them, which Caffe runs on
// one thread), then the serial finish hook.
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
		e.pass = pass{body: forwardRange, l: l, bottom: bottom, top: top}
		e.pool.For(n, e.bandBody)
	case channels:
		cr := l.(layers.ChannelRanger)
		out, _ := cr.ChannelExtents()
		e.pass = pass{body: forwardChannels, cr: cr, bottom: bottom, top: top}
		e.pool.For(out, e.bandBody)
	}
	e.pass = pass{}
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
			e.pass = pass{body: backwardRange, l: l, bottom: bottom, top: top, params: params}
			e.pool.For(n, e.bandBody)
		}
	case channels:
		cr := l.(layers.ChannelRanger)
		out, in := cr.ChannelExtents()
		e.pass = pass{body: paramChannels, cr: cr, bottom: bottom, top: top}
		e.pool.For(out, e.bandBody)
		e.pass.body = dataChannels
		e.pool.For(in, e.bandBody)
	}
	e.pass = pass{}
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
	// Object privatization (Algorithm 5 lines 3-5): per-rank private
	// gradient blobs, zero-initialized inside the parallel region.
	e.pass = pass{l: l, bottom: bottom, top: top, params: params, n: n}
	e.pool.Region(e.privateBody)

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
	e.offsets = append(e.offsets[:0], 0)
	for _, p := range params {
		e.offsets = append(e.offsets, e.offsets[len(e.offsets)-1]+p.Count())
	}
	total := e.offsets[len(params)]
	e.pool.OrderedSlices(total, e.mergeBody)
	if tr := e.tracer; tr.Enabled() {
		tr.Record(trace.Span{
			Name: l.Name(), Phase: trace.PhaseReduce, Rank: trace.RankDriver, Band: -1,
			Lo: 0, Hi: total, Start: tr.Stamp(mergeStart), Dur: time.Since(mergeStart),
		})
	}

	for rank, pg := range e.privs {
		for _, b := range pg {
			e.arenas[rank].put(b)
		}
		e.privs[rank] = pg[:0]
	}
}

// privateBand is one rank's share of the privatized pass: take zeroed
// private gradients from the rank's arena and run the rank's static chunk
// of the backward into them.
func (e *engine) privateBand(rank int) {
	pg := e.privs[rank][:0]
	for _, p := range e.pass.params {
		pg = append(pg, e.arenas[rank].take(p.Shape()))
	}
	e.privs[rank] = pg
	lo, hi := par.Chunk(e.pass.n, e.pool.Workers(), rank)
	if lo < hi {
		e.pass.l.BackwardRange(lo, hi, e.pass.bottom, e.pass.top, pg)
	}
}

// mergeSlice folds source rank's private gradients into elements [lo, hi)
// of the flat merge space: the part of each parameter inside it.
func (e *engine) mergeSlice(lo, hi, rank int) {
	pg := e.privs[rank]
	for i, p := range e.pass.params {
		plo, phi := max(lo-e.offsets[i], 0), min(hi-e.offsets[i], p.Count())
		if plo < phi {
			p.AccumulateDiffRange(pg[i], plo, phi)
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
