// Command dnncluster runs the distributed data-parallel trainer
// (internal/dist) in one process or several, over the transport
// abstraction of internal/transport (see DISTRIBUTED.md). This file is
// flag parsing only; the run itself is internal/cluster.
//
// Single process, k in-process replicas over the Local transport:
//
//	dnncluster -zoo lenet -replicas 4 -fanout 2 -iters 100
//
// Multi-process over TCP: start a coordinator (rank 0, owns the solver),
// then one worker per remaining rank. The coordinator publishes its
// rendezvous address via -addr-file:
//
//	dnncluster -role coordinator -replicas 2 -addr 127.0.0.1:0 \
//	           -addr-file /tmp/coord.addr -zoo lenet -iters 100 &
//	dnncluster -role worker -addr-file /tmp/coord.addr -zoo lenet -iters 100
//
// Every role builds the same seeded network over its shard of the global
// batch, on the coarse engine with -workers ranks (default 1, which is
// the sequential run bit for bit). The model flags are dnntrain's
// (zoo.Ref, default -zoo lenet), but -batch is the *global* batch, split
// across the replicas (default: the model file's batch_size), and
// -samples 0, the default, means 32 global batches. Gradients are
// reduced by one route: each slice owner folds the k contributions in
// rank order, and the reduction tree (-fanout) gathers the result to
// rank 0 and broadcasts the new weights. So a k-rank run — local or TCP, any -fanout, even
// with -flaky-* faults injected — produces the same snapshot bytes as
// the in-process ordered fold over k shards (the determinism contract
// tested in internal/dist and internal/cluster). -grad-wire f16|int8
// compresses the gradient contributions on the wire; each format is
// deterministic on its own. -snapshot writes the root's final solver
// state in the same format as dnntrain; -trace records PhaseComm spans
// next to compute spans (OBSERVABILITY.md).
//
// There is one run path. By default the group is rigid: every rank is
// needed, nothing watches them, and any rank's failure ends the run
// with that rank's error. Asking for something only a supervisor can
// give — -min-ranks below the group size (survive dead ranks), -rejoin,
// or -iter-deadline (evict stragglers) — makes the same run supervised:
// rank 0 heartbeats the others and fences the group to a new membership
// at a checkpoint in -fence-dir when one dies (ROBUSTNESS.md, "Cluster
// failures"). These flags must match on every rank:
//
//	dnncluster -replicas 3 -min-ranks 1 -fence-dir /tmp/fences \
//	           -chaos-mode crash -chaos-rank 2 -chaos-iter 2 -iters 6
//
// -predict runs the internal/simtime cluster model against a measured
// single-replica calibration and, for each k, compares the predicted
// iteration speedup with a measured in-process run (the EXPERIMENTS.md
// scaling study).
package main

import (
	"flag"
	"fmt"
	"os"

	"coarsegrain/internal/cluster"
	"coarsegrain/internal/zoo"
)

func main() {
	c := cluster.Config{Ref: zoo.Ref{Zoo: "lenet", Seed: 1}}
	c.BindFlags(flag.CommandLine, true, true)
	flag.StringVar(&c.Role, "role", "local", "local | coordinator | worker")
	flag.IntVar(&c.Replicas, "replicas", 2, "total rank count (local and coordinator roles)")
	flag.IntVar(&c.Fanout, "fanout", 2, "reduction tree fan-out")
	flag.StringVar(&c.GradWire, "grad-wire", "f32", "gradient wire format: f32 | f16 | int8 (lossy formats use error feedback)")
	flag.IntVar(&c.Iters, "iters", 100, "training iterations")
	flag.IntVar(&c.Display, "display", 20, "print loss every N iterations (root only)")
	flag.IntVar(&c.Workers, "workers", 1, "per-rank coarse engine worker count (1: each rank runs sequentially)")
	flag.StringVar(&c.Addr, "addr", "", "coordinator: listen address (default 127.0.0.1:0); worker: coordinator address")
	flag.StringVar(&c.AddrFile, "addr-file", "", "coordinator: write rendezvous address here; worker: read it from here")
	flag.StringVar(&c.Snapshot, "snapshot", "", "root: write the final solver snapshot here (dnntrain-compatible)")
	flag.StringVar(&c.Trace, "trace", "", "write a Chrome trace-event JSON of this rank's run here")
	flag.StringVar(&c.Resume, "resume", "", "resume from this solver snapshot (-iters is the absolute target iteration)")
	flag.IntVar(&c.MinRanks, "min-ranks", 0, "abort rather than shrink the group below this many ranks (default: the group size — a rigid run; lower it to run supervised and survive dead ranks)")
	flag.BoolVar(&c.Rejoin, "rejoin", false, "supervised: evicted ranks wait to rejoin instead of exiting")
	flag.DurationVar(&c.IterDeadline, "iter-deadline", 0, "supervised: evict the straggler when an iteration takes longer than this (0 disables)")
	flag.StringVar(&c.FenceDir, "fence-dir", "", "supervised: fence checkpoint directory (required on rank 0)")
	flag.DurationVar(&c.Heartbeat, "heartbeat", 0, "supervised: coordinator ping period (default 20ms)")
	flag.DurationVar(&c.PeerTimeout, "peer-timeout", 0, "supervised: silence after which a member is declared dead (default 10 heartbeats)")
	flag.StringVar(&c.ChaosMode, "chaos-mode", "none", "inject a cluster failure into a supervised run: none | crash | hang | partition | straggle")
	flag.IntVar(&c.ChaosRank, "chaos-rank", -1, "chaos victim rank (-1: seeded choice, never rank 0)")
	flag.IntVar(&c.ChaosIter, "chaos-iter", -1, "chaos trigger iteration (-1: seeded choice)")
	flag.DurationVar(&c.ChaosDelay, "chaos-delay", 0, "straggle: injected per-iteration delay (default 250ms)")
	flag.Uint64Var(&c.ChaosSeed, "chaos-seed", 1, "seed for the unset -chaos-* choices")
	flag.BoolVar(&c.NoOverlap, "no-overlap", false, "disable the backward-hook scatter overlap (values are identical)")
	flag.Float64Var(&c.FlakyDrop, "flaky-drop", 0, "inject send drops with this probability (deterministic per -flaky-seed)")
	flag.Float64Var(&c.FlakyDup, "flaky-dup", 0, "inject duplicate sends with this probability")
	flag.Float64Var(&c.FlakyDelay, "flaky-delay", 0, "inject send delays with this probability")
	flag.Uint64Var(&c.FlakySeed, "flaky-seed", 1, "fault-injection seed (offset by rank)")
	flag.BoolVar(&c.Predict, "predict", false, "run the simtime cluster model vs measured in-process scaling, then exit")
	flag.Parse()

	if err := cluster.Run(c, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "dnncluster:", err)
		os.Exit(1)
	}
}
