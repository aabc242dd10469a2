// Multi-replica example: the paper's multi-GPU compatibility claim (§1),
// demonstrated with synchronous data-parallel replicas. A global batch is
// split across R "devices" (replicas), each of which additionally runs the
// coarse-grain batch-level parallelization internally; gradients combine
// in replica order, so the loss trace equals a single-device run over the
// same global batches — convergence invariance across devices.
//
//	go run ./examples/multireplica -replicas 4 -workers 2
package main

import (
	"flag"
	"fmt"
	"log"
	"math"

	"coarsegrain/internal/core"
	"coarsegrain/internal/data"
	"coarsegrain/internal/net"
	"coarsegrain/internal/replica"
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

	const seed = 21
	src := data.NewSyntheticMNIST(8**globalBatch, seed)
	cfg := solver.Config{Type: solver.SGD, BaseLR: 0.01, Momentum: 0.9}

	// Reference: one device over the full global batch.
	specs, err := zoo.LeNet(src, zoo.Options{BatchSize: *globalBatch, Seed: seed, LoweredConv: true})
	check(err)
	single, err := net.New(specs, nil)
	check(err)
	sref, err := solver.New(cfg, single)
	check(err)
	fmt.Printf("single device, global batch %d ...\n", *globalBatch)
	ref := sref.Step(*iters)

	// Replicated: R devices, each over a shard, each with its own coarse
	// engine (batch-level parallelism composes with device parallelism).
	nets := make([]*net.Net, *replicas)
	var engines []core.Engine
	for r := 0; r < *replicas; r++ {
		shard, err := data.NewShard(src, r, *replicas, *globalBatch)
		check(err)
		rspecs, err := zoo.LeNet(shard, zoo.Options{BatchSize: shard.LocalBatch(), Seed: seed, LoweredConv: true})
		check(err)
		eng := core.NewCoarse(*workers)
		engines = append(engines, eng)
		nets[r], err = net.New(rspecs, eng)
		check(err)
	}
	defer func() {
		for _, e := range engines {
			e.Close()
		}
	}()
	trainer, err := replica.New(nets, cfg)
	check(err)
	fmt.Printf("%d replicas x %d workers, local batch %d ...\n",
		*replicas, *workers, *globalBatch / *replicas)
	got := trainer.Step(*iters)

	fmt.Printf("\n%-6s %14s %14s %12s\n", "iter", "single", "replicated", "rel dev")
	worst := 0.0
	for i := range ref {
		rel := math.Abs(got[i]-ref[i]) / math.Max(ref[i], 1e-12)
		if rel > worst {
			worst = rel
		}
		if i%5 == 0 || i == len(ref)-1 {
			fmt.Printf("%-6d %14.6f %14.6f %12.2e\n", i+1, ref[i], got[i], rel)
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
