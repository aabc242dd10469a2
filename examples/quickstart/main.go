// Quickstart: build a small convolutional network, train it with the
// coarse-grain (batch-level) parallel engine, and evaluate its accuracy —
// the minimal end-to-end use of the library's public surface.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"
	"runtime"

	"coarsegrain/internal/core"
	"coarsegrain/internal/data"
	"coarsegrain/internal/layers"
	"coarsegrain/internal/net"
	"coarsegrain/internal/rng"
	"coarsegrain/internal/solver"
)

func main() {
	// 1. A data source: 512 synthetic MNIST-like digits (the loader uses
	//    the real MNIST files automatically when they exist on disk —
	//    see data.LoadMNIST).
	src := data.NewSyntheticMNIST(512, 42)

	// 2. Layers, wired by blob name into a feed-forward net:
	//    data -> conv(8 maps, 5x5/2) -> ReLU -> fc(10) -> softmax loss.
	seed := rng.New(42, 0)
	dataL, err := layers.NewData("data", src, 32)
	check(err)
	conv, err := layers.NewConvolution("conv", layers.ConvConfig{
		NumOutput: 8, Kernel: 5, Stride: 2, Lowered: true,
		WeightFiller: layers.XavierFiller{}, RNG: seed.Split(1),
	})
	check(err)
	fc, err := layers.NewInnerProduct("fc", layers.IPConfig{
		NumOutput: 10, WeightFiller: layers.XavierFiller{}, RNG: seed.Split(2),
	})
	check(err)

	// 3. The execution engine is where the paper's contribution lives:
	//    core.NewCoarse(P) parallelizes every layer's batch loop over P
	//    workers with privatized, order-reduced gradients. Swapping it
	//    for core.NewSequential() changes nothing about the training
	//    trajectory — that is the convergence-invariance property.
	engine := core.NewCoarse(runtime.GOMAXPROCS(0))
	defer engine.Close()

	network, err := net.New([]net.LayerSpec{
		{Layer: dataL, Tops: []string{"data", "label"}},
		{Layer: conv, Bottoms: []string{"data"}, Tops: []string{"conv"}},
		{Layer: layers.NewReLU("relu", 0), Bottoms: []string{"conv"}, Tops: []string{"relu"}},
		{Layer: fc, Bottoms: []string{"relu"}, Tops: []string{"fc"}},
		{Layer: layers.NewSoftmaxWithLoss("loss"), Bottoms: []string{"fc", "label"}, Tops: []string{"loss"}},
		{Layer: layers.NewAccuracy("acc", 1), Bottoms: []string{"fc", "label"}, Tops: []string{"acc"}},
	}, engine)
	check(err)

	// 4. An SGD solver with momentum drives Algorithm 1.
	s, err := solver.New(solver.Config{
		Type: solver.SGD, BaseLR: 0.02, Momentum: 0.9,
	}, network)
	check(err)

	fmt.Printf("training on %d workers (%s engine)\n", engine.Workers(), engine.Name())
	for epoch := 0; epoch < 5; epoch++ {
		losses := s.Step(16)
		acc, err := network.Output("acc")
		check(err)
		fmt.Printf("after %3d iterations: loss %.4f, batch accuracy %.2f\n",
			s.Iter(), losses[len(losses)-1], acc)
	}
}

func check(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
