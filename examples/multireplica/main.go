// Multi-replica example: the paper's multi-GPU compatibility claim (§1),
// demonstrated with synchronous data-parallel replicas. A global batch is
// split across R "devices" (ranks of an in-process dist group, the same
// group dnncluster -role local runs), each of which additionally runs the
// coarse-grain batch-level parallelization internally; gradients combine
// in rank order, so the loss trace equals a single-device run over the
// same global batches — convergence invariance across devices.
//
//	go run ./examples/multireplica -replicas 4 -workers 2
package main

import (
	"flag"
	"fmt"
	"log"
	"math"
	"os"

	"coarsegrain/internal/cluster"
	"coarsegrain/internal/core"
	"coarsegrain/internal/net"
	"coarsegrain/internal/solver"
	"coarsegrain/internal/zoo"
)

func main() {
	var (
		replicas    = flag.Int("replicas", 4, "number of model replicas (devices)")
		workers     = flag.Int("workers", 2, "coarse-grain workers inside each replica")
		globalBatch = flag.Int("batch", 32, "global batch size")
		iters       = flag.Int("iters", 30, "training iterations")
	)
	flag.Parse()
	if *globalBatch%*replicas != 0 {
		log.Fatalf("global batch %d not divisible by %d replicas", *globalBatch, *replicas)
	}
	ref := zoo.Ref{Zoo: "lenet", Batch: *globalBatch, Samples: 8 * *globalBatch, Seed: 21}

	// Reference: one device over the full global batch.
	m, err := zoo.Load(ref)
	check(err)
	specs, err := m.Specs(m.Source, 0)
	check(err)
	eng := core.NewCoarse(*workers)
	single, err := net.New(specs, eng)
	check(err)
	sref, err := solver.New(m.Solver, single)
	check(err)
	fmt.Printf("single device, global batch %d ...\n", *globalBatch)
	want := sref.Step(*iters)
	eng.Close()

	// Replicated: R ranks, each over a shard, each with its own coarse
	// engine (batch-level parallelism composes with device parallelism).
	fmt.Printf("%d replicas x %d workers, local batch %d ...\n",
		*replicas, *workers, *globalBatch / *replicas)
	res, err := cluster.RunGroup(cluster.Config{
		Role: "local", Replicas: *replicas, Fanout: 2, GradWire: "f32",
		Iters: *iters, Ref: ref, Workers: *workers,
	}, os.Stdout)
	check(err)
	got := res.Report.Losses

	fmt.Printf("\n%-6s %14s %14s %12s\n", "iter", "single", "replicated", "rel dev")
	worst := 0.0
	for i := range want {
		rel := math.Abs(got[i]-want[i]) / math.Max(want[i], 1e-12)
		if rel > worst {
			worst = rel
		}
		if i%5 == 0 || i == len(want)-1 {
			fmt.Printf("%-6d %14.6f %14.6f %12.2e\n", i+1, want[i], got[i], rel)
		}
	}
	fmt.Printf("\nworst relative deviation: %.2e — the replicated loss trace is the\n", worst)
	fmt.Println("single-device trace: splitting the batch across devices with a")
	fmt.Println("synchronous ordered gradient combine changes no training parameter.")
}

func check(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
