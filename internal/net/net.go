// Package net composes layers into a feed-forward network DAG and drives
// the per-iteration forward and backward passes through an execution
// engine, mirroring Caffe's Net<float> (§2.1 of the paper).
//
// Blobs are wired by name: each layer declares the names of the blobs it
// consumes (bottoms) and produces (tops); the net resolves them, infers
// shapes through Layer.SetUp, determines which blobs need gradients and
// tells layers not to compute gradients nobody consumes (e.g. the first
// convolution after the data layer, as Caffe does).
package net

import (
	"fmt"
	"strings"
	"time"

	"coarsegrain/internal/blob"
	"coarsegrain/internal/core"
	"coarsegrain/internal/layers"
	"coarsegrain/internal/trace"
)

// LayerSpec declares one layer and its blob wiring.
type LayerSpec struct {
	Layer   layers.Layer
	Bottoms []string
	Tops    []string
}

// Net is a feed-forward network: layers in topological order plus the
// blobs flowing between them.
type Net struct {
	specs   []LayerSpec
	bottoms [][]*blob.Blob
	tops    [][]*blob.Blob
	blobs   map[string]*blob.Blob

	params     []*blob.Blob
	paramNames []string
	// paramLo[i] is the index into params of layer i's first parameter;
	// layer i owns params[paramLo[i]:paramLo[i+1]] (params are appended
	// in spec order, so each layer's range is contiguous).
	paramLo []int

	// backwardHook, when set, fires after each layer's backward pass
	// with the layer's parameter index range — see SetBackwardLayerHook.
	backwardHook func(lo, hi int)

	// lossIdx lists the indices of layers implementing LossWeighter.
	lossIdx []int
	// needsBackward[i] reports whether layer i participates in backprop.
	needsBackward []bool

	engine core.Engine
	tracer *trace.Tracer

	// forwardOnly marks inference nets built by NewForward: activation
	// blobs carry no gradient buffers and Backward panics.
	forwardOnly bool
}

// New builds a network from specs, running each layer's SetUp in order.
// The engine drives all passes and may be swapped later with SetEngine.
func New(specs []LayerSpec, engine core.Engine) (*Net, error) {
	return build(specs, engine, false)
}

// NewForward builds a forward-only (inference) network: activation blobs
// are created data-only (no gradient buffer is ever allocated), every
// parameter blob's diff buffer is dropped, and layers that distinguish
// train/test mode start in test mode. The memory footprint is roughly
// half of a trainable net's and the forward pass never touches a Diff
// slice, which is what makes the serving hot path allocation-free
// (SERVING.md). Backward and ForwardBackward panic on such a net.
func NewForward(specs []LayerSpec, engine core.Engine) (*Net, error) {
	return build(specs, engine, true)
}

// stater matches snapshot.Stater structurally (layers carrying
// non-learnable state blobs, e.g. BatchNorm's moving averages).
type stater interface {
	StateBlobs() []*blob.Blob
}

func build(specs []LayerSpec, engine core.Engine, forwardOnly bool) (*Net, error) {
	if engine == nil {
		engine = core.NewSequential()
	}
	n := &Net{
		specs:       specs,
		blobs:       make(map[string]*blob.Blob),
		engine:      engine,
		forwardOnly: forwardOnly,
	}
	needsGrad := make(map[string]bool)
	// diffWriters counts, per blob, the layers whose backward pass writes
	// the blob's gradient. Layer BackwardRange contracts OVERWRITE bottom
	// diffs (they do not accumulate), so at most one writer is allowed;
	// a second consumer must be gradient-free (like Accuracy) or the
	// graph needs an explicit combining layer (Eltwise).
	diffWriters := make(map[string]string)
	for i, spec := range specs {
		if spec.Layer == nil {
			return nil, fmt.Errorf("net: spec %d has nil layer", i)
		}
		name := spec.Layer.Name()
		var bots []*blob.Blob
		for _, bn := range spec.Bottoms {
			b, ok := n.blobs[bn]
			if !ok {
				return nil, fmt.Errorf("net: layer %s consumes unknown blob %q", name, bn)
			}
			bots = append(bots, b)
		}
		var tops []*blob.Blob
		inPlace := false
		for _, tn := range spec.Tops {
			if existing, dup := n.blobs[tn]; dup {
				// In-place mode (Caffe's "top == bottom", e.g. ReLU): the
				// layer must consume the same blob it produces and declare
				// that its backward tolerates the overwrite.
				ipl, can := spec.Layer.(layers.InPlacer)
				if can && ipl.CanRunInPlace() && containsString(spec.Bottoms, tn) {
					tops = append(tops, existing)
					inPlace = true
					continue
				}
				return nil, fmt.Errorf("net: layer %s re-produces blob %q (layer does not support in-place)", name, tn)
			}
			var t *blob.Blob
			if forwardOnly {
				t = blob.NamedDataOnly(tn)
			} else {
				t = blob.Named(tn)
			}
			n.blobs[tn] = t
			tops = append(tops, t)
		}
		if err := spec.Layer.SetUp(bots, tops); err != nil {
			return nil, fmt.Errorf("net: %w", err)
		}
		n.bottoms = append(n.bottoms, bots)
		n.tops = append(n.tops, tops)

		n.paramLo = append(n.paramLo, len(n.params))
		for pi, p := range spec.Layer.Params() {
			n.params = append(n.params, p)
			n.paramNames = append(n.paramNames, fmt.Sprintf("%s[%d]", name, pi))
		}
		if _, ok := spec.Layer.(layers.LossWeighter); ok {
			n.lossIdx = append(n.lossIdx, i)
		}

		// Gradient-need analysis: a layer backpropagates iff it has
		// parameters or any bottom needs a gradient; its tops then need
		// gradients for upstream... (downstream in backward order).
		layerNeeds := len(spec.Layer.Params()) > 0
		flags := make([]bool, len(spec.Bottoms))
		for bi, bn := range spec.Bottoms {
			flags[bi] = needsGrad[bn]
			if needsGrad[bn] {
				layerNeeds = true
			}
		}
		if _, isLoss := spec.Layer.(layers.LossWeighter); isLoss {
			layerNeeds = true
		}
		if ps, ok := spec.Layer.(interface{ SetPropagateDown([]bool) }); ok {
			ps.SetPropagateDown(flags)
		}
		n.needsBackward = append(n.needsBackward, layerNeeds)
		if layerNeeds {
			for _, tn := range spec.Tops {
				needsGrad[tn] = true
			}
		}
		if layerNeeds && spec.Layer.BackwardExtent() > 0 && !inPlace {
			// In-place layers transform the shared blob's diff in place
			// (read then overwrite); they are not additional writers.
			for bi, bn := range spec.Bottoms {
				if !flags[bi] {
					continue
				}
				if prev, dup := diffWriters[bn]; dup {
					return nil, fmt.Errorf(
						"net: blob %q receives gradients from both %s and %s; bottom diffs overwrite, so insert an explicit combining layer (e.g. Eltwise)",
						bn, prev, name)
				}
				diffWriters[bn] = name
			}
		}
	}
	n.paramLo = append(n.paramLo, len(n.params))
	if len(specs) == 0 {
		return nil, fmt.Errorf("net: no layers")
	}
	if forwardOnly {
		// Inference never reads parameter gradients: drop them so the net
		// holds only the coefficients (plus layer state), and start in
		// test mode (Dropout passes through, BatchNorm uses its moving
		// averages).
		for _, p := range n.params {
			p.DropDiff()
		}
		for _, l := range n.Layers() {
			if st, ok := l.(stater); ok {
				for _, b := range st.StateBlobs() {
					b.DropDiff()
				}
			}
		}
		n.SetTrain(false)
	}
	return n, nil
}

// Reshape re-runs shape inference through every layer in topological
// order, propagating (possibly changed) bottom shapes to top blobs. The
// serving engine calls it after Data.SetBatchSize so a dynamic batch of
// any size ≤ the warmed maximum flows through without reallocation
// (blob buffers are reused while capacity suffices).
func (n *Net) Reshape() {
	for i, spec := range n.specs {
		spec.Layer.Reshape(n.bottoms[i], n.tops[i])
	}
}

// ShareParamsWith makes every parameter (and layer-state) blob of n alias
// ref's data buffers: the two nets then read the same single copy of the
// coefficients. This is the serving replica pool's weight sharing — R
// forward-only replicas hold one set of weights, not R — and is safe
// precisely because forward passes only ever read parameter data.
// Architectures must match (same parameter count and element counts).
// Snapshot loads into ref are immediately visible to every sharer.
func (n *Net) ShareParamsWith(ref *Net) error {
	if len(n.params) != len(ref.params) {
		return fmt.Errorf("net: param count mismatch %d vs %d", len(n.params), len(ref.params))
	}
	for i, p := range n.params {
		if p.Count() != ref.params[i].Count() {
			return fmt.Errorf("net: param %d count mismatch", i)
		}
		p.ShareDataWith(ref.params[i])
	}
	nl, rl := n.Layers(), ref.Layers()
	if len(nl) != len(rl) {
		return fmt.Errorf("net: layer count mismatch %d vs %d", len(nl), len(rl))
	}
	for i, l := range nl {
		st, ok := l.(stater)
		if !ok {
			continue
		}
		rst, ok := rl[i].(stater)
		if !ok {
			return fmt.Errorf("net: layer %d state mismatch", i)
		}
		sb, rb := st.StateBlobs(), rst.StateBlobs()
		if len(sb) != len(rb) {
			return fmt.Errorf("net: layer %d state blob count mismatch", i)
		}
		for j, b := range sb {
			b.ShareDataWith(rb[j])
		}
	}
	return nil
}

// SetEngine swaps the execution engine (e.g. to compare sequential,
// coarse and fine runs on the same trained state). An attached tracer is
// propagated to the new engine.
func (n *Net) SetEngine(e core.Engine) {
	n.engine = e
	if n.tracer.Enabled() {
		e.SetTracer(n.tracer)
	}
}

// Engine returns the current execution engine.
func (n *Net) Engine() core.Engine { return n.engine }

// SetTracer attaches a span tracer (nil detaches): every layer×phase
// engine call becomes a driver span carrying the layer's FLOP/byte
// counters, and the tracer is propagated to the engine (and through it
// to the worker pool) so every samples or channels band adds a
// per-worker span.
// The tracer is the net's only per-layer timer; trace.PerLayer turns its
// driver spans into the per-layer table.
// Attach before training, never while a pass is in flight.
func (n *Net) SetTracer(t *trace.Tracer) {
	n.tracer = t
	n.engine.SetTracer(t)
}

// Tracer returns the attached tracer (nil when tracing is off).
func (n *Net) Tracer() *trace.Tracer { return n.tracer }

// Layers returns the layers in topological order.
func (n *Net) Layers() []layers.Layer {
	out := make([]layers.Layer, len(n.specs))
	for i, s := range n.specs {
		out[i] = s.Layer
	}
	return out
}

// Blob returns a blob by name, or nil when absent.
func (n *Net) Blob(name string) *blob.Blob { return n.blobs[name] }

// Params returns all learnable parameter blobs in layer order.
func (n *Net) Params() []*blob.Blob { return n.params }

// ParamNames returns diagnostic names parallel to Params().
func (n *Net) ParamNames() []string { return n.paramNames }

// Forward runs the full forward pass (Algorithm 1 lines 3-7, the
// inherently sequential layer loop) and returns the weighted loss.
// Without a tracer the loop takes no clock readings at all.
func (n *Net) Forward() float64 {
	timed := n.tracer.Enabled()
	for i, spec := range n.specs {
		var start time.Time
		if timed {
			start = time.Now()
			n.tracer.SetScope(spec.Layer.Name(), trace.PhaseForward)
		}
		n.engine.Forward(spec.Layer, n.bottoms[i], n.tops[i])
		if timed {
			n.recordLayerSpan(i, trace.PhaseForward, start, time.Since(start))
		}
	}
	return n.Loss()
}

// recordLayerSpan emits the driver span for one engine call, including
// the layer's pass cost (when it reports one) and the blob bytes the
// pass touches.
func (n *Net) recordLayerSpan(i int, phase trace.Phase, start time.Time, d time.Duration) {
	tr := n.tracer
	spec := n.specs[i]
	s := trace.Span{
		Name: spec.Layer.Name(), Phase: phase, Rank: trace.RankDriver, Band: -1,
		Start: tr.Stamp(start), Dur: d,
	}
	if phase == trace.PhaseForward {
		s.Hi = spec.Layer.ForwardExtent()
	} else {
		s.Hi = spec.Layer.BackwardExtent()
	}
	if c, ok := spec.Layer.(layers.Coster); ok {
		if phase == trace.PhaseForward {
			s.FLOPs = c.ForwardFLOPs()
		} else {
			s.FLOPs = c.BackwardFLOPs()
		}
	}
	for _, b := range n.bottoms[i] {
		s.Bytes += b.MemoryBytes()
	}
	for _, b := range n.tops[i] {
		s.Bytes += b.MemoryBytes()
	}
	tr.Record(s)
}

// Loss returns the current weighted sum of loss-layer outputs.
func (n *Net) Loss() float64 {
	var loss float64
	for _, i := range n.lossIdx {
		w := n.specs[i].Layer.(layers.LossWeighter).LossWeight()
		loss += float64(w) * float64(n.tops[i][0].Data()[0])
	}
	return loss
}

// SetBackwardLayerHook registers h to fire after each layer's backward
// pass completes, with the half-open range [lo, hi) of indices into
// Params() whose gradients just became final (nil detaches). The
// backward pass visits layers in reverse topological order and each
// parameter's gradient is written only by its owning layer, so once a
// layer's backward returns its parameter gradients will not change
// again this iteration — which is what lets a distributed trainer ship
// layer k's gradient slices while the engine is still on layer k-1
// (the comm/compute overlap of DISTRIBUTED.md). The hook runs on the
// driving goroutine between engine calls and fires only for layers
// that own parameters.
func (n *Net) SetBackwardLayerHook(h func(lo, hi int)) { n.backwardHook = h }

// BackwardParamOrder returns the indices into Params() in the order
// their gradients become final during Backward — the canonical send
// order of the distributed gradient scatter (last layer's parameters
// first, ascending within a layer).
func (n *Net) BackwardParamOrder() []int {
	order := make([]int, len(n.params))
	k := 0
	for i := len(n.specs) - 1; i >= 0; i-- {
		if !n.needsBackward[i] {
			continue
		}
		for p := n.paramLo[i]; p < n.paramLo[i+1]; p++ {
			order[k] = p
			k++
		}
	}
	return order[:k]
}

// Backward runs the full backward pass (Algorithm 1 lines 8-10), seeding
// each loss layer's top gradient with its loss weight. Parameter gradients
// ACCUMULATE; call ZeroParamDiffs first (the solver does).
func (n *Net) Backward() {
	if n.forwardOnly {
		panic("net: Backward on a forward-only net (built with NewForward)")
	}
	for _, i := range n.lossIdx {
		w := n.specs[i].Layer.(layers.LossWeighter).LossWeight()
		n.tops[i][0].Diff()[0] = w
	}
	timed := n.tracer.Enabled()
	for i := len(n.specs) - 1; i >= 0; i-- {
		if !n.needsBackward[i] {
			continue
		}
		var start time.Time
		if timed {
			start = time.Now()
			n.tracer.SetScope(n.specs[i].Layer.Name(), trace.PhaseBackward)
		}
		n.engine.Backward(n.specs[i].Layer, n.bottoms[i], n.tops[i])
		if timed {
			n.recordLayerSpan(i, trace.PhaseBackward, start, time.Since(start))
		}
		if n.backwardHook != nil && n.paramLo[i+1] > n.paramLo[i] {
			n.backwardHook(n.paramLo[i], n.paramLo[i+1])
		}
	}
}

// ForwardBackward runs one full iteration pass pair and returns the loss.
func (n *Net) ForwardBackward() float64 {
	loss := n.Forward()
	n.Backward()
	return loss
}

// ZeroParamDiffs clears all parameter gradients.
func (n *Net) ZeroParamDiffs() {
	for _, p := range n.params {
		p.ZeroDiff()
	}
}

// SetTrain toggles train/test mode on layers that distinguish them
// (Dropout).
func (n *Net) SetTrain(train bool) {
	for _, s := range n.specs {
		if d, ok := s.Layer.(interface{ SetTrain(bool) }); ok {
			d.SetTrain(train)
		}
	}
}

// Output returns the scalar value of a 1-element blob (loss, accuracy).
func (n *Net) Output(name string) (float32, error) {
	b := n.blobs[name]
	if b == nil {
		return 0, fmt.Errorf("net: no blob %q", name)
	}
	if b.Count() != 1 {
		return 0, fmt.Errorf("net: blob %q is not scalar (count %d)", name, b.Count())
	}
	return b.Data()[0], nil
}

// MemoryBytes returns the memory held by all blobs and parameters — the
// baseline of the paper's §3.2.1 memory-overhead comparison.
func (n *Net) MemoryBytes() int64 {
	var total int64
	for _, b := range n.blobs {
		total += b.MemoryBytes()
	}
	for _, p := range n.params {
		total += p.MemoryBytes()
	}
	return total
}

// String renders the network topology.
func (n *Net) String() string {
	var b strings.Builder
	for i, s := range n.specs {
		fmt.Fprintf(&b, "%2d %-12s %-16s %v -> %v\n", i, s.Layer.Name(), s.Layer.Type(), s.Bottoms, s.Tops)
	}
	return b.String()
}

// containsString reports whether xs contains s.
func containsString(xs []string, s string) bool {
	for _, x := range xs {
		if x == s {
			return true
		}
	}
	return false
}

// CopyParamsFrom copies parameter data from another net with an identical
// architecture — used to run engine-equivalence comparisons from a common
// starting point.
func (n *Net) CopyParamsFrom(o *Net) error {
	if len(n.params) != len(o.params) {
		return fmt.Errorf("net: param count mismatch %d vs %d", len(n.params), len(o.params))
	}
	for i, p := range n.params {
		if p.Count() != o.params[i].Count() {
			return fmt.Errorf("net: param %d count mismatch", i)
		}
		p.CopyDataFrom(o.params[i])
	}
	return nil
}
