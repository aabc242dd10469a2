// Package core implements the paper's primary contribution: the execution
// engines that parallelize a layer's forward and backward passes.
//
// Coarse is the engine: the coarse-grain, batch-level parallelization
// (§3) — the layer's coalesced loop is statically scheduled across a
// worker team, parameter gradients are privatized per worker and merged
// with an ordered reduction (Algorithms 4 and 5). It is
// *network-agnostic*: it only uses the generic Layer interface, never a
// layer-specific kernel. Every command builds NewCoarse(-workers); one
// worker is the sequential run bit for bit.
//
// The other two engines reproduce the paper's comparison points. Fine is
// constructed only by the experiment harness (internal/bench), the
// examples and tests; Sequential is also what a net built with a nil
// engine runs — each serving replica, whose parallelism is across
// replicas:
//
//   - Sequential — the serial baseline every speedup is measured against.
//   - Fine — the plain-GPU analogue (parallelism inside a layer's pass,
//     §3.1.1/§3.1.2): a schedule over the same layer contract, cutting a
//     layers.ChannelRanger by channels and every other layer's range as
//     Coarse does, bit-identical to Sequential at any worker count.
//
// The convolution kernel is the other axis of the paper's comparison and
// a property of the net, not of the engine: a net built with lowered
// convolutions (layers.ConvConfig.Lowered, the im2col+GEMM restructuring
// that stands in for cuDNN) runs them under all three engines, so Fine on
// a lowered net is the cuDNN-GPU analogue.
//
// Engines are deliberately unaware of networks and solvers; package net
// composes them.
//
// # Observability
//
// Engines that run parallel work accept a span tracer via an optional
// SetTracer(*trace.Tracer) method (package net propagates it): Coarse
// traces its worker regions and gradient reductions, Fine forwards the
// tracer to its pool so its channel and range bands appear as worker
// spans. Sequential runs on the driver alone, so only the
// driver-side layer spans recorded by package net exist for it. A nil
// tracer costs nothing; see OBSERVABILITY.md.
package core

import (
	"coarsegrain/internal/blob"
	"coarsegrain/internal/layers"
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
	// Close releases the worker team.
	Close()
}

// forwardHooks runs the serial prepare hook, the supplied parallel body,
// and the serial finish hook — the common engine skeleton.
func forwardHooks(l layers.Layer, bottom, top []*blob.Blob, body func()) {
	if p, ok := l.(layers.ForwardPreparer); ok {
		p.ForwardPrepare(bottom, top)
	}
	body()
	if f, ok := l.(layers.ForwardFinisher); ok {
		f.ForwardFinish(bottom, top)
	}
}

// backwardHooks is the backward-pass counterpart of forwardHooks.
func backwardHooks(l layers.Layer, bottom, top []*blob.Blob, body func()) {
	if p, ok := l.(layers.BackwardPreparer); ok {
		p.BackwardPrepare(bottom, top)
	}
	body()
	if f, ok := l.(layers.BackwardFinisher); ok {
		f.BackwardFinish(bottom, top)
	}
}
