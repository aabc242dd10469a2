// Package simtime is the analytic performance model that stands in for the
// paper's 16-core Xeon E5-2667v2 testbed (DESIGN.md §4.1). The container
// this repository is built in may expose a single core, so raw wall-clock
// cannot exhibit multi-thread speedups; instead, the model computes the
// execution time a P-thread coarse-grain run would take from quantities
// the *real* implementation exposes:
//
//   - the measured single-thread time of each layer phase;
//   - the layer's actual coalesced iteration extent (which determines the
//     static-scheduling work split, including the ceil() imbalance);
//   - the parameter element count (which determines the ordered-reduction
//     serial section of Algorithm 5);
//   - the layer's data-thread distribution class, from which the paper's
//     inter-layer locality penalties follow (§4.3 "Locality between
//     layers", "Sequential memory allocation").
//
// The model's terms are exactly the paper's identified limiting factors:
// work imbalance under static scheduling, parallel-region overhead, the
// ordered gradient reduction, locality loss between layers with different
// data-thread distributions, phases that run on one thread (the paper's
// Caffe data layer loads its batch that way), and the NUMA penalty beyond
// one socket. This repository's data layer loads its batch in sample
// bands on the worker team, so bench.ModelsFromNet hands the model a
// samples layer with the batch as its extent, and the one-thread term
// applies only to a layer model written with extent 0. The solver's
// update, the paper's third serial term, is not modeled: it runs as one
// element sweep on the worker team, and a measured step includes it
// where the modeled network time does not. Constants are calibrated once (DefaultMachine)
// against the paper's headline numbers (~6x @ 8 threads, ~8x @ 16).
//
// The model's inputs and its predictions can both be checked against the
// span tracer (package trace, OBSERVABILITY.md): the measured
// single-thread layer times are the driver spans of a sequential-engine
// run, and on a multicore host the model's imbalance and reduction terms
// correspond to the utilization report's imbal column and the red spans
// of a coarse-engine trace.
package simtime

import "math"

// Dist classifies a layer's data-thread distribution — which worker
// touches which part of a blob. Two adjacent layers with equal classes
// preserve locality; a change forces data movement (§4.3).
type Dist string

const (
	// DistSequential marks data produced by one thread (the paper's
	// Caffe data layer).
	DistSequential Dist = "sequential"
	// DistPlanes marks work distributed over (sample, channel) planes
	// (convolution outputs, pooling, ReLU).
	DistPlanes Dist = "planes"
	// DistSamples marks work distributed over whole samples (LRN,
	// inner product, softmax/loss).
	DistSamples Dist = "samples"
)

// Phase selects forward or backward.
type Phase int

const (
	// Forward pass.
	Forward Phase = iota
	// Backward pass.
	Backward
)

// LayerModel carries the per-layer quantities the model consumes. Build it
// from a real layer with bench.ModelsFromNet (measured serial times plus
// introspected extents).
type LayerModel struct {
	Name string
	// FwdSerialUS / BwdSerialUS are measured single-thread times.
	FwdSerialUS, BwdSerialUS float64
	// FwdExtent / BwdExtent are the coalesced iteration counts
	// (0 = the phase runs on one thread, as the paper's Caffe data layer
	// loads its batch).
	FwdExtent, BwdExtent int
	// ParamElems is the total learnable element count (reduction size).
	ParamElems int
	// Consumes / Produces are the distribution classes of the layer's
	// input and output access patterns.
	Consumes, Produces Dist
}

// Machine holds the calibrated hardware constants.
type Machine struct {
	// Cores is the total core count (the paper's machine: 16).
	Cores int
	// CoresPerSocket bounds one NUMA node (8 on the E5-2667v2 pair).
	CoresPerSocket int
	// RegionOverheadUS is the fork/join cost of one parallel region.
	RegionOverheadUS float64
	// RegionPerThreadUS is the additional per-thread region cost.
	RegionPerThreadUS float64
	// MergePerElemNS is the ordered-reduction cost per parameter element
	// per worker (the serial section of Algorithm 5).
	MergePerElemNS float64
	// ZeroPerElemNS is the per-element cost of zero-initializing one
	// worker's private gradient blob (runs in parallel, once per worker).
	ZeroPerElemNS float64
	// LocalityPenalty is the fractional slowdown, at full thread count,
	// of a layer whose consumed distribution differs from what its
	// predecessor produced.
	LocalityPenalty float64
	// SequentialPenalty is the (stronger) penalty for consuming data that
	// one thread wrote (the paper's data layer case).
	SequentialPenalty float64
	// NUMAPenalty is the extra fractional cost once threads span sockets.
	NUMAPenalty float64
}

// DefaultMachine returns constants calibrated to reproduce the paper's
// overall speedup curve (~6x at 8 threads, ~8x at 16 on MNIST).
func DefaultMachine() Machine {
	return Machine{
		Cores:             16,
		CoresPerSocket:    8,
		RegionOverheadUS:  1.5,
		RegionPerThreadUS: 0.15,
		MergePerElemNS:    0.25,
		ZeroPerElemNS:     0.1,
		LocalityPenalty:   0.45,
		SequentialPenalty: 0.60,
		NUMAPenalty:       1.10,
	}
}

// LayerTime returns the modeled execution time in microseconds of one
// layer phase under `threads` coarse-grain workers, given the distribution
// class `prev` produced by the layer's predecessor.
func (m Machine) LayerTime(l LayerModel, phase Phase, prev Dist, threads int) float64 {
	if threads < 1 {
		threads = 1
	}
	serial := l.FwdSerialUS
	extent := l.FwdExtent
	if phase == Backward {
		serial = l.BwdSerialUS
		extent = l.BwdExtent
	}
	if serial == 0 {
		return 0
	}
	// Sequential phases (extent 0) never speed up.
	if extent == 0 || threads == 1 {
		return serial
	}

	// Static scheduling: the slowest rank executes ceil(extent/threads)
	// iterations — the work-imbalance term the paper addresses with loop
	// coalescing (§3.2.1 "Work unbalance").
	chunk := math.Ceil(float64(extent) / float64(threads))
	compute := serial * chunk / float64(extent)

	// Locality: consuming data laid out by a different distribution adds
	// a penalty that grows with thread count (more caches to miss into),
	// saturating at LocalityPenalty/SequentialPenalty (§4.3).
	spread := 1 - 1/float64(threads)
	if prev == DistSequential {
		compute *= 1 + m.SequentialPenalty*spread
	} else if prev != "" && prev != l.Consumes {
		compute *= 1 + m.LocalityPenalty*spread
	}

	// NUMA: crossing the socket boundary adds a cross-node traffic share
	// (§4.2.1: "when crossing the 8 thread border, NUMA considerations
	// come into play").
	if m.CoresPerSocket > 0 && threads > m.CoresPerSocket {
		over := float64(threads-m.CoresPerSocket) / float64(threads)
		compute *= 1 + m.NUMAPenalty*over
	}

	// Parallel region fork/join.
	total := compute + m.RegionOverheadUS + m.RegionPerThreadUS*float64(threads)

	// Backward of parameterized layers: private-gradient zeroing (in
	// parallel, one blob per rank) plus the ordered merge (serial in rank
	// order) — Algorithm 5's privatization and reduction.
	if phase == Backward && l.ParamElems > 0 && threads > 1 {
		total += float64(l.ParamElems) * m.ZeroPerElemNS / 1000
		total += float64(l.ParamElems) * float64(threads) * m.MergePerElemNS / 1000
	}
	return total
}

// NetworkTime evaluates a whole network: it walks the layers in order
// (forward) and reverse (backward), tracks the produced distribution to
// apply locality penalties, and returns per-layer times plus the total.
// The returned maps are keyed by layer name.
func (m Machine) NetworkTime(layersIn []LayerModel, threads int) (fwd, bwd map[string]float64, total float64) {
	fwd = make(map[string]float64, len(layersIn))
	bwd = make(map[string]float64, len(layersIn))
	prev := Dist("")
	for _, l := range layersIn {
		t := m.LayerTime(l, Forward, prev, threads)
		fwd[l.Name] = t
		total += t
		prev = l.Produces
	}
	// Backward: the "previous" layer in execution order is the successor
	// in the network, whose backward writes the diffs this layer reads.
	prev = ""
	for i := len(layersIn) - 1; i >= 0; i-- {
		l := layersIn[i]
		t := m.LayerTime(l, Backward, prev, threads)
		bwd[l.Name] = t
		total += t
		if l.BwdExtent > 0 {
			prev = l.Consumes // backward writes follow the consumed layout
		}
	}
	return fwd, bwd, total
}

// Speedup returns the modeled overall speedup of `threads` workers over
// the serial execution for the given network.
func (m Machine) Speedup(layersIn []LayerModel, threads int) float64 {
	_, _, t1 := m.NetworkTime(layersIn, 1)
	_, _, tp := m.NetworkTime(layersIn, threads)
	if tp == 0 {
		return 0
	}
	return t1 / tp
}

// GPUProfile maps layer name -> per-phase speedup over the serial CPU
// execution. The values are *calibration constants transcribed from the
// paper's Figures 6 and 9* (see bench.MNISTGPUProfile/CIFARGPUProfile);
// they are not measured here — the K40 is hardware this reproduction
// substitutes (DESIGN.md §4.2).
type GPUProfile map[string]PhaseSpeedup

// PhaseSpeedup holds the forward/backward speedup factors of one layer.
type PhaseSpeedup struct {
	Fwd, Bwd float64
}

// GPUTime returns the modeled total iteration time under a GPU profile:
// every layer's serial time divided by its calibrated speedup, with
// unprofiled layers (e.g. the data layer) running at CPU speed.
func GPUTime(layersIn []LayerModel, prof GPUProfile) float64 {
	var total float64
	for _, l := range layersIn {
		sp, ok := prof[l.Name]
		if !ok || sp.Fwd <= 0 {
			total += l.FwdSerialUS
		} else {
			total += l.FwdSerialUS / sp.Fwd
		}
		if !ok || sp.Bwd <= 0 {
			total += l.BwdSerialUS
		} else {
			total += l.BwdSerialUS / sp.Bwd
		}
	}
	return total
}

// GPUSpeedup returns the modeled overall speedup of a GPU profile over
// the serial CPU execution.
func GPUSpeedup(layersIn []LayerModel, prof GPUProfile) float64 {
	var serial float64
	for _, l := range layersIn {
		serial += l.FwdSerialUS + l.BwdSerialUS
	}
	t := GPUTime(layersIn, prof)
	if t == 0 {
		return 0
	}
	return serial / t
}
