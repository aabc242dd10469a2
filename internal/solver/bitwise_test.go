package solver_test

import (
	"math"
	"testing"

	"coarsegrain/internal/core"
	"coarsegrain/internal/net"
	"coarsegrain/internal/solver"
	"coarsegrain/internal/zoo"
)

// TestCoarseOneWorkerBitwiseSequential: at 1 worker the coarse engine is
// the sequential engine bit for bit — every loss and, after the steps,
// every parameter. The inputs are the package's toy net and the
// zoo.Load-built nets every front end trains (lowered LeNet and
// CIFAR-10-full), which is what lets the commands drop the sequential
// engine and run NewCoarse(-workers) alone.
func TestCoarseOneWorkerBitwiseSequential(t *testing.T) {
	toy := func(eng core.Engine) (*net.Net, solver.Config) {
		return solver.BuildTestNet(t, 8, eng), solver.Config{Type: solver.SGD, BaseLR: 0.01, Momentum: 0.9}
	}
	loaded := func(name string) func(core.Engine) (*net.Net, solver.Config) {
		return func(eng core.Engine) (*net.Net, solver.Config) {
			m, err := zoo.Load(zoo.Ref{Zoo: name, Batch: 8, Samples: 16, Seed: 1})
			if err != nil {
				t.Fatal(err)
			}
			specs, err := m.Specs(m.Source, 0)
			if err != nil {
				t.Fatal(err)
			}
			n, err := net.New(specs, eng)
			if err != nil {
				t.Fatal(err)
			}
			return n, m.Solver
		}
	}
	for _, c := range []struct {
		name  string
		steps int
		build func(core.Engine) (*net.Net, solver.Config)
	}{
		{"toy", 20, toy},
		{"lenet", 6, loaded("lenet")},
		{"cifar10-full", 6, loaded("cifar10-full")},
	} {
		t.Run(c.name, func(t *testing.T) {
			train := func(eng core.Engine) (*net.Net, []float64) {
				n, cfg := c.build(eng)
				s, err := solver.New(cfg, n)
				if err != nil {
					t.Fatal(err)
				}
				return n, s.Step(c.steps)
			}
			ref, refLoss := train(core.NewSequential())
			e := core.NewCoarse(1)
			defer e.Close()
			got, gotLoss := train(e)
			for i := range refLoss {
				if refLoss[i] != gotLoss[i] {
					t.Fatalf("coarse(1) loss differs from sequential at iter %d: %v vs %v", i, gotLoss[i], refLoss[i])
				}
			}
			names := ref.ParamNames()
			for i, p := range ref.Params() {
				want, have := p.Data(), got.Params()[i].Data()
				for j := range want {
					if math.Float32bits(want[j]) != math.Float32bits(have[j]) {
						t.Fatalf("%s[%d] after %d steps: coarse(1) %v, sequential %v", names[i], j, c.steps, have[j], want[j])
					}
				}
			}
		})
	}
}
