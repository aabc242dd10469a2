// Package layers implements the Caffe-style layer catalogue used by the two
// benchmark networks of the paper (LeNet/MNIST and CIFAR-10-full):
// Convolution, Pooling (MAX/AVE), InnerProduct, ReLU, Sigmoid, TanH, LRN,
// Dropout, Softmax, SoftmaxWithLoss, EuclideanLoss, Accuracy and Data.
//
// # The parallelization contract
//
// Every layer exposes its forward and backward loop nests in the coalesced
// form of the paper's Algorithms 4 and 5: a single counted iteration space
// (ForwardExtent/BackwardExtent) plus a range body (ForwardRange/
// BackwardRange) that processes the contiguous sub-range [lo, hi). The
// execution engines (package core) decide how ranges are scheduled:
//
//   - sequential: one call covering [0, extent);
//   - coarse-grain (the paper's contribution): static chunks across a
//     worker pool, with parameter gradients privatized per worker and
//     merged by an ordered reduction;
//   - fine-grain (the plain-GPU analogue): a layer that implements
//     ChannelRanger is split along its channel axis instead — output
//     channels for the forward pass and the parameter gradient, input
//     channels for the bottom gradient — and every other layer's range
//     body is split as the coarse engine splits it. The layer states the
//     axis; the engine owns the schedule.
//
// A layer with a channel axis writes each pass once, as a private body
// over a (sample range × channel range) rectangle: the sample-band
// methods (ForwardRange, BackwardRange) call it with every channel, the
// channel-band methods (ChannelRanger) with every sample. Two cuts of one
// computation therefore cannot drift apart, and both give the sequential
// bits.
//
// Which kernel a convolution runs is a property of the layer, not of the
// engine: ConvConfig.Lowered picks the im2col+GEMM products of package
// blas (Caffe's CPU path, the cuDNN analogue) over the direct loop nest
// under all three engines, and Deconvolution always runs on those
// products.
//
// Race-freedom is by construction, and part of the interface contract:
// distinct coalesced ranges of the same layer must touch disjoint regions of
// the top blobs (forward) and of the bottom diff blobs (backward). Each
// layer chooses how many loops it coalesces (the paper: "the number of
// coalesced loops is layer dependent") precisely so that this holds. The
// channel ranges of a ChannelRanger obey the same rule over channels.
//
// Work that is inherently sequential — loading a data batch, summing
// per-sample losses — lives in the optional ForwardPreparer /
// ForwardFinisher hooks, which engines run serially around the parallel
// region. Per-sample results are always stored by sample index, so the
// serial finish step is deterministic for any worker count.
package layers

import (
	"fmt"

	"coarsegrain/internal/blob"
)

// Layer is the unit of network computation. Implementations must be safe
// for concurrent ForwardRange (resp. BackwardRange) calls on disjoint
// ranges after SetUp/Reshape.
type Layer interface {
	// Name returns the layer instance name ("conv1").
	Name() string
	// Type returns the layer type name ("Convolution").
	Type() string
	// SetUp validates bottom shapes, allocates parameters and shapes the
	// top blobs. Called once when the net is built.
	SetUp(bottom, top []*blob.Blob) error
	// Reshape re-derives top shapes from (possibly changed) bottom shapes.
	// Must be cheap when nothing changed.
	Reshape(bottom, top []*blob.Blob)
	// Params returns the learnable parameter blobs (possibly empty).
	Params() []*blob.Blob

	// ForwardExtent returns the number of coalesced forward iterations for
	// the current shapes. An extent of 0 means all forward work happens in
	// the ForwardPrepare/ForwardFinish hooks (e.g. the Data layer, which
	// the paper observes executes sequentially).
	ForwardExtent() int
	// ForwardRange computes the coalesced iterations [lo, hi). Writes to
	// top blobs for distinct ranges must be disjoint.
	ForwardRange(lo, hi int, bottom, top []*blob.Blob)

	// BackwardExtent returns the number of coalesced backward iterations.
	// 0 means the layer has no backward pass (Data, Accuracy).
	BackwardExtent() int
	// BackwardRange computes gradient iterations [lo, hi). Gradients with
	// respect to parameters are ACCUMULATED (+=) into paramGrads, which
	// has the same shapes as Params() — the engine passes either the
	// parameters themselves (sequential) or per-worker private blobs
	// (coarse-grain, Algorithm 5's privatization). Gradients with respect
	// to bottoms are written to the bottom blobs' Diff; writes for
	// distinct ranges must be disjoint.
	BackwardRange(lo, hi int, bottom, top []*blob.Blob, paramGrads []*blob.Blob)
}

// ForwardPreparer is implemented by layers that need a serial step before
// the parallel forward region (batch loading, dropout mask generation).
type ForwardPreparer interface {
	ForwardPrepare(bottom, top []*blob.Blob)
}

// ForwardFinisher is implemented by layers that need a serial step after
// the parallel forward region (summing per-sample losses/accuracies).
type ForwardFinisher interface {
	ForwardFinish(bottom, top []*blob.Blob)
}

// InPlacer is implemented by layers that can run with top == bottom (the
// same blob), Caffe's in-place mode for activations and dropout: the
// forward overwrites its input and the backward overwrites the shared
// diff. A layer may only claim this when its backward never needs the
// pre-activation input (ReLU's sign test works on the output; Sigmoid and
// TanH differentiate through the output alone).
type InPlacer interface {
	CanRunInPlace() bool
}

// BackwardPreparer is implemented by layers that need a serial step before
// the parallel backward region. The canonical user is BatchNorm, whose
// input gradient depends on whole-batch reductions of the top gradient:
// the reductions run here (deterministically, in sample order), then the
// parallel range computes per-sample gradients from them.
type BackwardPreparer interface {
	BackwardPrepare(bottom, top []*blob.Blob)
}

// BackwardFinisher is implemented by layers that need a serial step after
// the parallel backward region.
type BackwardFinisher interface {
	BackwardFinish(bottom, top []*blob.Blob)
}

// ChannelRanger is implemented by layers with parameters whose passes can
// also be cut along a channel axis, every range covering the whole batch:
// the second axis the fine-grain engine schedules (the BLAS-level split of
// §3.1.1). Each body computes its channels exactly as the full-extent
// ForwardRange/BackwardRange does, so any cut gives the sequential bits.
type ChannelRanger interface {
	// ChannelExtents returns the output- and input-channel counts; in is
	// 0 when the bottom gradient is not propagated.
	ChannelExtents() (out, in int)
	// ForwardChannels computes output channels [olo, ohi) of every sample.
	ForwardChannels(olo, ohi int, bottom, top []*blob.Blob)
	// BackwardParamChannels ACCUMULATES the parameter-gradient rows of
	// output channels [olo, ohi) into Params() diffs, over every sample in
	// sample order. Distinct ranges own distinct rows, so nothing is
	// privatized.
	BackwardParamChannels(olo, ohi int, bottom, top []*blob.Blob)
	// BackwardDataChannels writes input channels [clo, chi) of every
	// sample's bottom gradient.
	BackwardDataChannels(clo, chi int, bottom, top []*blob.Blob)
}

// Coster is implemented by layers that can state the arithmetic cost of
// one full pass over the current shapes. The tracer attaches these
// counters to the per-layer spans, which turns a trace into achieved-
// GFLOP/s numbers without any external roofline bookkeeping. Costs are
// nominal multiply-add counts (2 FLOPs per MAC), not instruction counts.
type Coster interface {
	// ForwardFLOPs is the cost of Forward over the whole extent.
	ForwardFLOPs() int64
	// BackwardFLOPs is the cost of Backward over the whole extent, for
	// the current propagate-down setting.
	BackwardFLOPs() int64
}

// LossWeighter is implemented by loss layers; the net multiplies the
// layer's top scalar by this weight when accumulating the iteration loss.
type LossWeighter interface {
	LossWeight() float32
}

// base carries the boilerplate shared by all layers.
type base struct {
	name   string
	typ    string
	params []*blob.Blob
}

func (b *base) Name() string         { return b.name }
func (b *base) Type() string         { return b.typ }
func (b *base) Params() []*blob.Blob { return b.params }

// checkBottomTop validates arity; every SetUp starts with it.
func checkBottomTop(l Layer, bottom, top []*blob.Blob, nBottom, nTop int) error {
	if len(bottom) != nBottom {
		return fmt.Errorf("layer %s (%s): want %d bottom blobs, got %d", l.Name(), l.Type(), nBottom, len(bottom))
	}
	if len(top) != nTop {
		return fmt.Errorf("layer %s (%s): want %d top blobs, got %d", l.Name(), l.Type(), nTop, len(top))
	}
	return nil
}

// planeExtent returns the coalesced extent used by elementwise and
// per-plane layers: the product of the two outermost dimensions (batch and
// channels) when the blob is at least 2-D, else the batch dimension. Each
// coalesced iteration then covers one contiguous plane of CountFrom(2)
// elements, which keeps the static-schedule work unit small (the paper's
// motivation for coalescing, §3.2.1) while preserving contiguous access.
func planeExtent(b *blob.Blob) int {
	switch b.AxisCount() {
	case 0:
		return 0
	case 1:
		return b.Dim(0)
	default:
		return b.Dim(0) * b.Dim(1)
	}
}

// planeSize returns the element count of one planeExtent iteration.
func planeSize(b *blob.Blob) int {
	if b.AxisCount() <= 1 {
		return 1
	}
	return b.CountFrom(2)
}
