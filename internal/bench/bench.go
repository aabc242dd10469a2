// Package bench is the experiment harness: it regenerates every table and
// figure of the paper's evaluation section (Figures 4-9 plus the §3.2.1
// memory numbers and the convergence-invariance claim) from this
// repository's implementation. See DESIGN.md §3 for the experiment index
// and EXPERIMENTS.md for recorded paper-vs-reproduction results.
//
// Each experiment runs the *real* network (real layers, real engines) to
// measure single-thread per-layer costs, then evaluates parallel
// executions two ways:
//
//   - measured: actual goroutine teams timed with the wall clock —
//     meaningful on a multi-core host;
//   - modeled: the simtime analytic model driven by the measured serial
//     costs and the layers' true iteration extents — the documented
//     substitution for the paper's 16-core Xeon (DESIGN.md §4.1).
package bench

import (
	"fmt"
	"time"

	"coarsegrain/internal/core"
	"coarsegrain/internal/layers"
	"coarsegrain/internal/net"
	"coarsegrain/internal/simtime"
	"coarsegrain/internal/trace"
	"coarsegrain/internal/zoo"
)

// Options configures an experiment run.
type Options struct {
	// Net selects the benchmark: "mnist" (LeNet) or "cifar"
	// (CIFAR-10-full).
	Net string
	// Batch overrides the Caffe default batch (64 MNIST / 100 CIFAR).
	Batch int
	// Samples sizes the synthetic dataset (default 4*batch).
	Samples int
	// Iterations is how many timed iterations the measurement averages
	// over (default 3).
	Iterations int
	// Warmup iterations excluded from timing (default 1).
	Warmup int
	// Threads lists the worker counts to evaluate (default the paper's
	// 1, 2, 4, 8, 12, 16).
	Threads []int
	// Seed drives weights and synthetic data.
	Seed uint64
	// DataDir, when set, is searched for the real MNIST/CIFAR files;
	// synthetic data is used otherwise.
	DataDir string
	// Measure additionally times real parallel engine runs at each
	// thread count (only meaningful on a multi-core host).
	Measure bool
	// Machine overrides the modeled hardware (DefaultMachine otherwise).
	Machine *simtime.Machine

	// model is Net resolved by normalize: the dataset (real files when
	// present, synthetic otherwise) and the Caffe solver it ships with.
	model *zoo.Model
}

func (o *Options) normalize() error {
	if o.Net == "" {
		o.Net = "mnist"
	}
	m, err := zoo.Resolve(zoo.Ref{Zoo: o.Net, Batch: o.Batch, Seed: o.Seed, DataDir: o.DataDir})
	if err != nil {
		return fmt.Errorf("bench: %w", err)
	}
	o.Net, o.Batch, o.model = m.Dataset, m.Batch, m
	if o.Samples == 0 {
		o.Samples = 4 * o.Batch
	}
	m.LoadData(o.Samples)
	if o.Iterations == 0 {
		o.Iterations = 3
	}
	if o.Warmup == 0 {
		o.Warmup = 1
	}
	if len(o.Threads) == 0 {
		o.Threads = []int{1, 2, 4, 8, 12, 16}
	}
	if o.Machine == nil {
		m := simtime.DefaultMachine()
		o.Machine = &m
	}
	return nil
}

// buildNet constructs the selected benchmark network on the direct
// convolution — the loop nest the paper's figures are about, whatever the
// front ends run (zoo.Model.Specs builds the lowered one) — or, with
// lowered, on the im2col+GEMM convolution.
func buildNet(o Options, eng core.Engine, lowered bool) (*net.Net, error) {
	specs, err := zoo.Build(o.Net, o.model.Source, zoo.Options{BatchSize: o.Batch, Seed: o.Seed, LoweredConv: lowered})
	if err != nil {
		return nil, err
	}
	return net.New(specs, eng)
}

// MeasureSerial runs the network under the sequential engine and returns
// the net plus the per-layer forward/backward times of the timed
// iterations, read off a tracer sized to hold them all.
func MeasureSerial(o Options) (*net.Net, *trace.LayerTimes, error) {
	if err := o.normalize(); err != nil {
		return nil, nil, err
	}
	n, err := buildNet(o, core.NewSequential(), false)
	if err != nil {
		return nil, nil, err
	}
	for i := 0; i < o.Warmup; i++ {
		n.ZeroParamDiffs()
		n.ForwardBackward()
	}
	tr := trace.NewWithCapacity(1, trace.IterCapacity(o.Iterations, len(n.Layers())))
	n.SetTracer(tr)
	for i := 0; i < o.Iterations; i++ {
		n.ZeroParamDiffs()
		n.ForwardBackward()
	}
	n.SetTracer(nil)
	lt, err := trace.PerLayer(tr)
	return n, lt, err
}

// MeasureEngine returns the mean wall-clock time of one full iteration of
// the network, on the direct or (lowered) the im2col+GEMM convolution,
// under an arbitrary engine, and the last iteration's loss. Nothing
// updates the weights, so the loss depends only on the net and the data.
func MeasureEngine(o Options, eng core.Engine, lowered bool) (time.Duration, float64, error) {
	if err := o.normalize(); err != nil {
		return 0, 0, err
	}
	n, err := buildNet(o, eng, lowered)
	if err != nil {
		return 0, 0, err
	}
	for i := 0; i < o.Warmup; i++ {
		n.ZeroParamDiffs()
		n.ForwardBackward()
	}
	start := time.Now()
	var loss float64
	for i := 0; i < o.Iterations; i++ {
		n.ZeroParamDiffs()
		loss = n.ForwardBackward()
	}
	return time.Since(start) / time.Duration(o.Iterations), loss, nil
}

// classifyDist maps a layer to its data-thread distribution class, the
// quantity behind the paper's locality analysis: the data layer writes
// sequentially; sample-coalesced layers (LRN, InnerProduct, losses)
// distribute whole samples; everything else distributes (sample, channel)
// planes.
func classifyDist(l layers.Layer, batch int) simtime.Dist {
	ext := l.ForwardExtent()
	switch {
	case ext == 0:
		return simtime.DistSequential
	case ext == batch:
		return simtime.DistSamples
	default:
		return simtime.DistPlanes
	}
}

// ModelsFromNet builds the analytic model inputs from a real network and
// its measured serial per-layer times — the layer extents, parameter
// counts and distribution classes come from the live layer objects, not
// from assumptions. A layer's serial time is the minimum over the
// recorded iterations, not the mean: the model wants the undisturbed
// time, and on a shared host one neighbour's burst multiplies a ~30 us
// layer's single reading several times over, which the model then reads
// as a layer with work to parallelize.
func ModelsFromNet(n *net.Net, lt *trace.LayerTimes, batch int) []simtime.LayerModel {
	var out []simtime.LayerModel
	for _, l := range n.Layers() {
		params := 0
		for _, p := range l.Params() {
			params += p.Count()
		}
		d := classifyDist(l, batch)
		out = append(out, simtime.LayerModel{
			Name:        l.Name(),
			FwdSerialUS: float64(lt.Fwd[l.Name()].Min.Nanoseconds()) / 1000,
			BwdSerialUS: float64(lt.Bwd[l.Name()].Min.Nanoseconds()) / 1000,
			FwdExtent:   l.ForwardExtent(),
			BwdExtent:   l.BackwardExtent(),
			ParamElems:  params,
			Consumes:    d,
			Produces:    d,
		})
	}
	return out
}
