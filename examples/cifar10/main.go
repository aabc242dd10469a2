// CIFAR-10 example: trains the paper's 14-layer CIFAR-10-full network
// from its prototxt definition (configs/cifar10_full.prototxt) and prints
// the per-layer profile organized into the three network levels the paper
// analyses in §4.2.1.
//
//	go run ./examples/cifar10                 # synthetic CIFAR
//	go run ./examples/cifar10 -data ~/cifar   # real binary batches
package main

import (
	"flag"
	"fmt"
	"log"
	"runtime"
	"strings"
	"time"

	"coarsegrain/internal/core"
	"coarsegrain/internal/net"
	"coarsegrain/internal/solver"
	"coarsegrain/internal/trace"
	"coarsegrain/internal/zoo"
)

// levels is the paper's §4.2.1 decomposition of the CIFAR-10 network.
var levels = [][]string{
	{"cifar"},
	{"conv1", "pool1", "relu1", "norm1"},
	{"conv2", "relu2", "pool2", "norm2"},
	{"conv3", "relu3", "pool3"},
	{"ip1", "loss"},
}

func main() {
	var (
		iters   = flag.Int("iters", 40, "training iterations")
		batch   = flag.Int("batch", 32, "batch size (paper uses 100)")
		samples = flag.Int("samples", 512, "synthetic dataset size")
		workers = flag.Int("workers", runtime.GOMAXPROCS(0), "parallel workers")
		model   = flag.String("model", "configs/cifar10_full.prototxt", "network prototxt")
		dataDir = flag.String("data", "", "directory with real CIFAR-10 binary batches")
	)
	flag.Parse()

	// The loader every command goes through: the dataset follows the
	// file's name, the net is built on the lowered convolution, and the
	// solver is Caffe's cifar10_full_solver.
	m, err := zoo.Load(zoo.Ref{Model: *model, DataDir: *dataDir, Samples: *samples, Seed: 11, Batch: *batch})
	check(err)
	fmt.Printf("CIFAR-10 source: %s\n", m.DataString())
	specs, err := m.Specs(m.Source, 0)
	check(err)

	engine := core.NewCoarse(*workers)
	defer engine.Close()
	network, err := net.New(specs, engine)
	check(err)
	fmt.Printf("built %d-layer CIFAR-10-full from %s\n", len(specs), *model)

	s, err := solver.New(m.Solver, network)
	check(err)

	start := time.Now()
	for s.Iter() < *iters {
		losses := s.Step(min(10, *iters-s.Iter()))
		fmt.Printf("iter %4d  loss %.4f\n", s.Iter(), losses[len(losses)-1])
	}
	fmt.Printf("trained %d iterations in %v\n\n", *iters, time.Since(start).Round(time.Millisecond))

	// Per-level profile (the paper's three-level analysis).
	tr := trace.NewWithCapacity(engine.Workers(), trace.IterCapacity(1, len(specs)))
	network.SetTracer(tr)
	network.ZeroParamDiffs()
	network.ForwardBackward()
	network.SetTracer(nil)
	perLayer, err := trace.PerLayer(tr)
	check(err)
	total := float64(perLayer.Total().Microseconds())
	fmt.Println("per-level profile:")
	for li, names := range levels {
		var us float64
		for _, nm := range names {
			us += float64(perLayer.Cost(nm).Microseconds())
		}
		fmt.Printf("  level %d  %-28s %10.0f us (%4.1f%%)\n", li, strings.Join(names, "+"), us, us/total*100)
	}
	fmt.Printf("  iteration total %21s %10.0f us\n", "", total)
	fmt.Printf("\nprivatization scratch: %.1f KB over %d workers (network: %.1f MB)\n",
		float64(engine.ScratchBytes())/1024, engine.Workers(),
		float64(network.MemoryBytes())/(1<<20))
}

func check(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
