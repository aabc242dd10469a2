//go:build !race

// The race detector's instrumentation allocates, so the allocation pins
// only run in normal test passes.

package zoo

import (
	"testing"

	"coarsegrain/internal/core"
	"coarsegrain/internal/data"
	"coarsegrain/internal/layers"
	"coarsegrain/internal/net"
	"coarsegrain/internal/solver"
	"coarsegrain/internal/trace"
)

// TestStepAllocations pins the heap allocations of one training step —
// solver.Step(1): forward, backward, ordered merge and update — of each
// lowered zoo net at the coarse engine's one- and two-worker teams, with
// and without a span tracer attached. It guards the allocation contract
// on the path every command trains: an allocation added anywhere under a
// step, however many calls below the loop that runs it, raises the count
// (core's TestWarmPassesAllocateNothing holds every layer and cut to the
// same contract one pass at a time). Each bound is the count measured
// when the pin was written: the one allocation is the loss slice Step
// returns. The engine's band bodies, the pool's region tasks and the
// solver's update body are bound once, the privatized pass reuses its
// per-rank slices, and a tracer records into rings sized when it is made,
// so no pass allocates at either team size, traced or not.
func TestStepAllocations(t *testing.T) {
	for _, c := range []struct {
		name    string
		src     layers.Source
		batch   int
		build   func(layers.Source, Options) ([]net.LayerSpec, error)
		cfg     solver.Config
		workers int
		traced  bool
		max     float64
	}{
		{"lenet", data.NewSyntheticMNIST(256, 1), 64, LeNet, LeNetSolver(), 1, false, 1},
		{"lenet", data.NewSyntheticMNIST(256, 1), 64, LeNet, LeNetSolver(), 2, false, 1},
		{"cifar10-full", data.NewSyntheticCIFAR(64, 1), 16, CIFARFull, CIFARFullSolver(), 1, false, 1},
		{"cifar10-full", data.NewSyntheticCIFAR(64, 1), 16, CIFARFull, CIFARFullSolver(), 2, false, 1},
		{"lenet", data.NewSyntheticMNIST(256, 1), 64, LeNet, LeNetSolver(), 1, true, 1},
		{"lenet", data.NewSyntheticMNIST(256, 1), 64, LeNet, LeNetSolver(), 2, true, 1},
		{"cifar10-full", data.NewSyntheticCIFAR(64, 1), 16, CIFARFull, CIFARFullSolver(), 1, true, 1},
		{"cifar10-full", data.NewSyntheticCIFAR(64, 1), 16, CIFARFull, CIFARFullSolver(), 2, true, 1},
	} {
		specs, err := c.build(c.src, Options{BatchSize: c.batch, Seed: 1, LoweredConv: true})
		if err != nil {
			t.Fatal(err)
		}
		e := core.NewCoarse(c.workers)
		n, err := net.New(specs, e)
		if err != nil {
			t.Fatal(err)
		}
		s, err := solver.New(c.cfg, n)
		if err != nil {
			t.Fatal(err)
		}
		name := c.name
		if c.traced {
			s.SetTracer(trace.New(c.workers))
			name += " traced"
		}
		got := testing.AllocsPerRun(10, func() { s.Step(1) })
		e.Close()
		if got > c.max {
			t.Errorf("%s at NewCoarse(%d): Step(1) allocates %v objects, want at most %v", name, c.workers, got, c.max)
		}
	}
}
