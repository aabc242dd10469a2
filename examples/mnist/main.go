// MNIST example: trains the paper's LeNet benchmark network and compares
// the three execution engines (sequential, coarse-grain batch-parallel,
// fine-grain layer-parallel) on identical weights, every one of them on
// the lowered im2col+GEMM convolution the loader builds — the workload of
// the paper's Figures 4-6.
//
//	go run ./examples/mnist              # synthetic MNIST
//	go run ./examples/mnist -data ~/mnist -iters 500
package main

import (
	"flag"
	"fmt"
	"log"
	"runtime"
	"time"

	"coarsegrain/internal/core"
	"coarsegrain/internal/net"
	"coarsegrain/internal/solver"
	"coarsegrain/internal/trace"
	"coarsegrain/internal/zoo"
)

func main() {
	var (
		iters   = flag.Int("iters", 100, "training iterations")
		batch   = flag.Int("batch", 64, "batch size")
		samples = flag.Int("samples", 1024, "synthetic dataset size")
		workers = flag.Int("workers", runtime.GOMAXPROCS(0), "parallel workers")
		dataDir = flag.String("data", "", "directory with real MNIST files")
	)
	flag.Parse()

	// The loader every command goes through: real MNIST under -data when
	// present, LeNet on the lowered convolution, the Caffe solver.
	m, err := zoo.Load(zoo.Ref{Zoo: "lenet", DataDir: *dataDir, Samples: *samples, Seed: 7, Batch: *batch})
	check(err)
	fmt.Printf("MNIST source: %s\n", m.DataString())

	// Train LeNet with the coarse-grain engine.
	engine := core.NewCoarse(*workers)
	defer engine.Close()
	specs, err := m.Specs(m.Source, 0)
	check(err)
	network, err := net.New(specs, engine)
	check(err)
	s, err := solver.New(m.Solver, network)
	check(err)

	fmt.Printf("training LeNet, batch %d, %d workers\n", *batch, *workers)
	start := time.Now()
	for s.Iter() < *iters {
		losses := s.Step(min(20, *iters-s.Iter()))
		acc, _ := network.Output("accuracy")
		fmt.Printf("iter %4d  loss %.4f  acc %.3f  lr %.5f\n",
			s.Iter(), losses[len(losses)-1], acc, s.LearningRate())
	}
	fmt.Printf("trained in %v\n\n", time.Since(start).Round(time.Millisecond))

	// Per-layer profile under the trained weights (Figure 4's view).
	tr := trace.NewWithCapacity(engine.Workers(), trace.IterCapacity(3, len(specs)))
	network.SetTracer(tr)
	for i := 0; i < 3; i++ {
		network.ZeroParamDiffs()
		network.ForwardBackward()
	}
	network.SetTracer(nil)
	perLayer, err := trace.PerLayer(tr)
	check(err)
	fmt.Println("per-layer profile (coarse engine):")
	fmt.Print(perLayer.Table())

	// Engine comparison on identical weights: every engine computes the
	// same loss bit for bit — the forward pass has no reduction, and the
	// fine split of each product keeps every element's operation order.
	fmt.Println("\nengine comparison (same weights, same batch):")
	for _, mk := range []func() core.Engine{
		func() core.Engine { return core.NewSequential() },
		func() core.Engine { return core.NewCoarse(*workers) },
		func() core.Engine { return core.NewFine(*workers) },
	} {
		e := mk()
		fresh, err := m.Specs(m.Source, 0)
		check(err)
		n2, err := net.New(fresh, e)
		check(err)
		check(n2.CopyParamsFrom(network))
		t0 := time.Now()
		loss := n2.ForwardBackward()
		fmt.Printf("  %-10s %8.3fms  loss %.6f\n", e.Name(), float64(time.Since(t0).Microseconds())/1000, loss)
		e.Close()
	}
}

func check(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
