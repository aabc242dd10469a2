package core

import (
	"coarsegrain/internal/blob"
	"coarsegrain/internal/layers"
	"coarsegrain/internal/par"
	"coarsegrain/internal/trace"
)

// Fine is the fine-grain engine, the analogue of the paper's "plain-GPU"
// configuration: parallelism lives *inside* each layer's linear-algebra
// kernels (§3.1.1 BLAS-level / §3.1.2 blob-level), which requires a
// per-layer fine-grain implementation — the recoding effort the paper
// contrasts with the network-agnostic coarse approach. Layers without a
// fine implementation fall back to serial execution.
//
// The kernel a layer runs is the layer's own choice: on a net built with
// lowered convolutions (layers.ConvConfig.Lowered), Fine splits the
// im2col+GEMM products across its pool — the cuDNN-GPU analogue; on a
// direct-convolution net, the loop nest's channel loops.
type Fine struct {
	pool *par.Pool
}

// NewFine creates the fine-grain engine.
func NewFine(workers int) *Fine { return &Fine{pool: par.NewPool(workers)} }

// Name implements Engine.
func (e *Fine) Name() string { return "fine" }

// Workers implements Engine.
func (e *Fine) Workers() int { return e.pool.Workers() }

// SetTracer attaches a span tracer to the worker pool, so the fine
// kernels' BLAS-level bands (e.g. GemmParallel tile runs) appear as
// per-worker spans. Attach before training; nil detaches.
func (e *Fine) SetTracer(t *trace.Tracer) { e.pool.SetTracer(t) }

// Forward implements Engine.
func (e *Fine) Forward(l layers.Layer, bottom, top []*blob.Blob) {
	forwardHooks(l, bottom, top, func() {
		if ff, ok := l.(layers.FineForwarder); ok {
			ff.ForwardFine(e.pool, bottom, top)
			return
		}
		if n := l.ForwardExtent(); n > 0 {
			l.ForwardRange(0, n, bottom, top)
		}
	})
}

// Backward implements Engine.
func (e *Fine) Backward(l layers.Layer, bottom, top []*blob.Blob) {
	if fb, ok := l.(layers.FineBackwarder); ok {
		backwardHooks(l, bottom, top, func() { fb.BackwardFine(e.pool, bottom, top) })
		return
	}
	if n := l.BackwardExtent(); n > 0 {
		backwardHooks(l, bottom, top, func() {
			l.BackwardRange(0, n, bottom, top, l.Params())
		})
	}
}

// ScratchBytes implements Engine: the fine engine privatizes nothing.
func (e *Fine) ScratchBytes() int64 { return 0 }

// Close implements Engine.
func (e *Fine) Close() { e.pool.Close() }
