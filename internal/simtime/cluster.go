package simtime

// This file extends the analytic model from one node to a cluster: the
// FireCaffe-style question (PAPERS.md, Iandola et al.) of how far
// data-parallel replication scales before gradient communication eats
// the compute speedup, answered from a handful of measured quantities —
// before buying the hardware. The modeled execution is exactly what
// internal/dist implements: per-iteration ordered reduce-scatter of the
// gradients across k replicas, a fan-out-f tree gather of the reduced
// slices to the coordinator, the solver step, and a tree broadcast of
// the updated weights, with the scatter partially hidden behind the
// backward pass (DISTRIBUTED.md). cmd/dnncluster -predict evaluates it;
// EXPERIMENTS.md records predicted vs measured.

import "math"

// ClusterMachine holds the calibrated constants of a replica cluster:
// the interconnect and the physical cores the replicas actually get.
type ClusterMachine struct {
	// Cores is the number of physical cores executing replicas. For a
	// real cluster this is ≥ the replica count (one-plus cores each);
	// for the in-process transport on one host it is the host's core
	// count, which caps the compute speedup at min(k, Cores) — on this
	// repository's single-core container, modeling Cores=1 is what
	// makes the k=4 prediction match the measured run.
	Cores int
	// LinkMBps is one link's usable bandwidth in megabytes/second
	// (loopback/in-process: memory bandwidth; 1 GbE: ~110).
	LinkMBps float64
	// LatencyUS is the fixed per-message cost in microseconds (syscall +
	// queue + propagation; in-process: the inbox handoff).
	LatencyUS float64
	// OverlapFraction is the share of scatter traffic hidden behind
	// backward compute by the layer-hook overlap, in [0,1]. 0 models a
	// strictly phase-ordered exchange; measured traces put the dist
	// implementation near 0.5 on LeNet (EXPERIMENTS.md).
	OverlapFraction float64
}

// LocalCluster returns constants calibrated for the in-process
// transport on this repository's development container: no real NIC, so
// bandwidth is a memcpy and latency a mutex handoff; Cores comes from
// the caller because it is the whole story on an oversubscribed host.
func LocalCluster(cores int) ClusterMachine {
	if cores < 1 {
		cores = 1
	}
	return ClusterMachine{
		Cores:           cores,
		LinkMBps:        3000,
		LatencyUS:       8,
		OverlapFraction: 0.5,
	}
}

// ClusterWorkload is one iteration's work, measured once on a single
// replica (e.g. from a sequential dnntrain run or its trace).
type ClusterWorkload struct {
	// ComputeUS is the serial forward+backward+update time of the full
	// global batch on one replica, in microseconds.
	ComputeUS float64
	// BackwardFrac is the backward pass's share of ComputeUS — the
	// window the scatter can hide in. LeNet measures ≈ 0.55.
	BackwardFrac float64
	// ParamElems is the total learnable element count.
	ParamElems int
	// ParamTensors is the number of parameter blobs (message count per
	// phase scales with it).
	ParamTensors int
}

// ClusterPrediction breaks one modeled iteration into its terms, all in
// microseconds.
type ClusterPrediction struct {
	// ComputeUS is the per-replica compute time of the sharded batch,
	// accounting for core oversubscription.
	ComputeUS float64
	// ScatterUS is the full cost of the all-to-all gradient
	// reduce-scatter; HiddenUS of it overlaps backward compute.
	ScatterUS, HiddenUS float64
	// TreeUS is the gather-plus-broadcast cost through the reduction
	// tree (grows with tree depth, not replica count — the FireCaffe
	// argument for trees over a flat parameter server).
	TreeUS float64
	// TotalUS is the modeled wall time of one iteration.
	TotalUS float64
	// Speedup is serial ComputeUS divided by TotalUS.
	Speedup float64
	// TreeDepth is the modeled reduction tree's depth.
	TreeDepth int
}

// TreeDepth returns the depth (root = 0) of the heap-numbered fan-out-f
// tree over n ranks — the number of sequential hops a gather or
// broadcast takes.
func TreeDepth(n, fanout int) int {
	if n <= 1 {
		return 0
	}
	if fanout < 1 {
		fanout = 1
	}
	depth, levelCap, total := 0, 1, 1
	for total < n {
		levelCap *= fanout
		total += levelCap
		depth++
	}
	return depth
}

// ClusterShape is the point of internal/dist's design space one
// prediction is for: how many replicas, the tree they reduce over, and
// the wire format their gradients travel in.
type ClusterShape struct {
	// Replicas is the group size k (values below 1 mean 1).
	Replicas int
	// Fanout is the reduction tree's fan-out (values below 1 mean 1).
	Fanout int
	// WireScale is the codec's bytes-on-wire ratio for encoded gradient
	// frames (1 for f32, also the zero value; ~0.5 for f16, ~0.26 for
	// int8) — callers measure it from transport.Codec.WireLen so the
	// model and the implementation cannot drift. It applies only to the
	// legs that carry encoded contributions; reduced gradients and
	// weights always cross as raw f32, exactly as in the implementation.
	WireScale float64
}

// Predict models one training iteration of the given shape.
func (m ClusterMachine) Predict(w ClusterWorkload, g ClusterShape) ClusterPrediction {
	replicas, fanout, wireScale := g.Replicas, g.Fanout, g.WireScale
	if replicas < 1 {
		replicas = 1
	}
	if fanout < 1 {
		fanout = 1
	}
	if wireScale <= 0 {
		wireScale = 1
	}
	k := float64(replicas)
	cores := m.Cores
	if cores < 1 {
		cores = 1
	}

	// Compute: the global batch splits k ways, but only Cores replicas
	// execute at once — ceil(k/Cores) serialized waves. On a host with
	// cores ≥ k this is the ideal ComputeUS/k; on one core it collapses
	// to ComputeUS, which is why single-host "distributed" runs cannot
	// beat the serial baseline and the model must say so.
	waves := math.Ceil(k / float64(cores))
	p := ClusterPrediction{ComputeUS: w.ComputeUS / k * waves, TreeDepth: TreeDepth(replicas, fanout)}

	if replicas == 1 {
		p.TotalUS = p.ComputeUS
		p.Speedup = w.ComputeUS / p.TotalUS
		return p
	}

	paramMB := 4 * float64(w.ParamElems) / 1e6
	msgs := float64(w.ParamTensors)
	d := float64(p.TreeDepth)

	// Reduce-scatter: every rank ships (k-1)/k of its (encoded) gradient
	// bytes and receives as much, in (k-1) per-tensor messages each way.
	// The links are full-duplex and distinct sender/receiver pairs run
	// concurrently, so one rank's send budget is the bound.
	p.ScatterUS = (k-1)*msgs*m.LatencyUS + paramMB*(k-1)/k*wireScale/m.LinkMBps*1e6
	// The layer hook ships slices while backward still runs; the hidden
	// share is capped by the backward window itself.
	p.HiddenUS = math.Min(m.OverlapFraction*p.ScatterUS, w.BackwardFrac*p.ComputeUS)

	// Tree gather + broadcast: each of the depth levels forwards the full
	// reduced vector (gather up, weights down), level by level. Depth is
	// what the fan-out buys: a flat star (fanout k-1) pays one huge
	// level, a binary tree log2(k) small ones.
	p.TreeUS = 2 * d * (msgs*m.LatencyUS + paramMB/m.LinkMBps*1e6)

	p.TotalUS = p.ComputeUS + (p.ScatterUS - p.HiddenUS) + p.TreeUS
	p.Speedup = w.ComputeUS / p.TotalUS
	return p
}

// RecoveryPrediction breaks one elastic fence (internal/dist.RunElastic
// losing a rank) into its modeled terms, all in microseconds: the pause
// a failure inserts between the last committed iteration and the first
// committed iteration of the survivor membership.
type RecoveryPrediction struct {
	// DetectUS is the heartbeat silence until the peer is declared dead
	// (the coordinator's PeerTimeout — policy, not physics, so the
	// caller supplies it).
	DetectUS float64
	// CheckpointUS is the fence checkpoint's write plus the reload into
	// the re-formed group's solver.
	CheckpointUS float64
	// SyncUS is the full weight re-broadcast down the survivor tree
	// (every level forwards every parameter byte).
	SyncUS float64
	// RedoUS is the abandoned iteration re-run at the survivor
	// membership — the commit rule never folds a partial iteration, so
	// the work between the fence point and the failure is repeated.
	RedoUS float64
	// TotalUS is the whole modeled pause.
	TotalUS float64
}

// PredictRecovery models the cost of losing one rank: replicas shrinks
// to survivors, detection takes detectUS (the configured peer timeout),
// and the fence checkpoint moves at diskMBps (<= 0 models a page-cached
// tmpfs at the link bandwidth). The result answers the capacity
// question ROBUSTNESS.md poses: how many iterations of progress one
// failure costs, which with Predict gives the break-even failure rate
// for a checkpoint interval.
func (m ClusterMachine) PredictRecovery(w ClusterWorkload, survivors, fanout int, detectUS, diskMBps float64) RecoveryPrediction {
	if survivors < 1 {
		survivors = 1
	}
	if diskMBps <= 0 {
		diskMBps = m.LinkMBps
	}
	paramMB := 4 * float64(w.ParamElems) / 1e6
	msgs := float64(w.ParamTensors)

	p := RecoveryPrediction{DetectUS: math.Max(detectUS, 0)}
	p.CheckpointUS = 2 * paramMB / diskMBps * 1e6 // write at the fence, read at the rebuild
	d := float64(TreeDepth(survivors, fanout))
	p.SyncUS = d * (msgs*m.LatencyUS + paramMB/m.LinkMBps*1e6)
	p.RedoUS = m.Predict(w, ClusterShape{Replicas: survivors, Fanout: fanout}).TotalUS
	p.TotalUS = p.DetectUS + p.CheckpointUS + p.SyncUS + p.RedoUS
	return p
}
