// Convergence-invariance demonstration: trains the same LeNet from the
// same initial weights under the sequential engine and under the
// coarse-grain engine at several worker counts, printing the loss traces
// side by side. The traces coincide (to float precision) because the
// batch-level parallelization changes no training parameter and merges
// gradients with a deterministic ordered reduction — the paper's central
// "convergence invariance" property (§1, §3.2.1).
//
//	go run ./examples/convergence
package main

import (
	"fmt"
	"log"
	"math"

	"coarsegrain/internal/core"
	"coarsegrain/internal/data"
	"coarsegrain/internal/net"
	"coarsegrain/internal/solver"
	"coarsegrain/internal/zoo"
)

const (
	iterations = 30
	batch      = 16
	seed       = 123
)

func trace(engine core.Engine) []float64 {
	src := data.NewSyntheticMNIST(256, seed)
	specs, err := zoo.LeNet(src, zoo.Options{BatchSize: batch, Seed: seed, LoweredConv: true})
	check(err)
	n, err := net.New(specs, engine)
	check(err)
	s, err := solver.New(zoo.LeNetSolver(), n)
	check(err)
	return s.Step(iterations)
}

func main() {
	workerCounts := []int{2, 4, 8}

	fmt.Println("training the same LeNet under different engines / worker counts")
	seq := trace(core.NewSequential())
	traces := [][]float64{seq}
	headers := []string{"sequential"}
	for _, w := range workerCounts {
		e := core.NewCoarse(w)
		traces = append(traces, trace(e))
		headers = append(headers, fmt.Sprintf("coarse/%d", w))
		e.Close()
	}

	fmt.Printf("\n%-6s", "iter")
	for _, h := range headers {
		fmt.Printf(" %12s", h)
	}
	fmt.Printf(" %12s\n", "max rel dev")
	worst := 0.0
	for i := 0; i < iterations; i++ {
		fmt.Printf("%-6d", i+1)
		var maxRel float64
		for _, tr := range traces {
			fmt.Printf(" %12.6f", tr[i])
			rel := math.Abs(tr[i]-seq[i]) / math.Max(seq[i], 1e-12)
			if rel > maxRel {
				maxRel = rel
			}
		}
		if maxRel > worst {
			worst = maxRel
		}
		fmt.Printf(" %12.2e\n", maxRel)
	}

	fmt.Printf("\nworst relative deviation from the sequential trace: %.2e\n", worst)
	fmt.Println("(identical hyperparameters at every worker count — the batch size,")
	fmt.Println(" learning rate and update order never change, so the convergence")
	fmt.Println(" behaviour is that of the sequential algorithm)")

	// Determinism at a fixed worker count is bitwise.
	e1 := core.NewCoarse(4)
	a := trace(e1)
	e1.Close()
	e2 := core.NewCoarse(4)
	b := trace(e2)
	e2.Close()
	bitwise := true
	for i := range a {
		if a[i] != b[i] {
			bitwise = false
		}
	}
	fmt.Printf("two coarse/4 runs bit-identical: %v\n", bitwise)
}

func check(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
