package core

import (
	"coarsegrain/internal/blob"
	"coarsegrain/internal/layers"
	"coarsegrain/internal/par"
	"coarsegrain/internal/trace"
)

// Fine is the fine-grain engine, the analogue of the paper's "plain-GPU"
// configuration: parallelism lives *inside* each layer's passes, every
// band covering the whole batch (§3.1.1 BLAS-level / §3.1.2 blob-level).
// It is a schedule over the layer contract, not a per-layer kernel:
//
//   - a layers.ChannelRanger (Convolution, InnerProduct) is cut by output
//     channels for the forward pass and the parameter gradient, then by
//     input channels for the bottom gradient; each band owns its rows of
//     the gradient, so nothing is privatized;
//   - every other forward pass, and the backward pass of a layer without
//     parameters, is its range body over static bands, as in Coarse;
//   - a layer with parameters but no channel axis (BatchNorm,
//     Deconvolution) runs its backward serially.
//
// Every cut computes each output as the sequential range does, so Fine is
// bit-identical to Sequential at every worker count. The kernel a
// convolution runs is the layer's own: on a lowered net
// (layers.ConvConfig.Lowered) the channel bands are bands of the
// im2col+GEMM products — the cuDNN-GPU analogue; on a direct net, of the
// loop nest's channel loops.
type Fine struct {
	pool *par.Pool
}

// NewFine creates the fine-grain engine.
func NewFine(workers int) *Fine { return &Fine{pool: par.NewPool(workers)} }

// Name implements Engine.
func (e *Fine) Name() string { return "fine" }

// Workers implements Engine.
func (e *Fine) Workers() int { return e.pool.Workers() }

// SetTracer attaches a span tracer to the worker pool, so every channel or
// range band appears as a per-worker span. Attach before training; nil
// detaches.
func (e *Fine) SetTracer(t *trace.Tracer) { e.pool.SetTracer(t) }

// Forward implements Engine.
func (e *Fine) Forward(l layers.Layer, bottom, top []*blob.Blob) {
	forwardHooks(l, bottom, top, func() {
		if cr, ok := l.(layers.ChannelRanger); ok {
			out, _ := cr.ChannelExtents()
			e.pool.For(out, func(lo, hi, _ int) { cr.ForwardChannels(lo, hi, bottom, top) })
			return
		}
		e.pool.For(l.ForwardExtent(), func(lo, hi, _ int) { l.ForwardRange(lo, hi, bottom, top) })
	})
}

// Backward implements Engine.
func (e *Fine) Backward(l layers.Layer, bottom, top []*blob.Blob) {
	n := l.BackwardExtent()
	if n == 0 {
		return
	}
	params := l.Params()
	backwardHooks(l, bottom, top, func() {
		if cr, ok := l.(layers.ChannelRanger); ok {
			out, in := cr.ChannelExtents()
			e.pool.For(out, func(lo, hi, _ int) { cr.BackwardParamChannels(lo, hi, bottom, top) })
			e.pool.For(in, func(lo, hi, _ int) { cr.BackwardDataChannels(lo, hi, bottom, top) })
			return
		}
		if len(params) > 0 {
			l.BackwardRange(0, n, bottom, top, params)
			return
		}
		e.pool.For(n, func(lo, hi, _ int) { l.BackwardRange(lo, hi, bottom, top, params) })
	})
}

// ScratchBytes implements Engine: the fine engine privatizes nothing.
func (e *Fine) ScratchBytes() int64 { return 0 }

// Close implements Engine.
func (e *Fine) Close() { e.pool.Close() }
