//go:build !race

// The race detector's instrumentation allocates, so the allocation pins
// only run in normal test passes.

package guard_test

import (
	"testing"

	"coarsegrain/internal/core"
	"coarsegrain/internal/guard"
)

// TestCheckAllocatesNothing pins the monitor's per-iteration cost: a
// health check scans every gradient and parameter on the engine's team
// from per-rank partials sized once, so a warm Check allocates nothing
// on one worker or two.
func TestCheckAllocatesNothing(t *testing.T) {
	for _, c := range []struct {
		name string
		eng  core.Engine
	}{{"sequential", core.NewSequential()}, {"coarse/2", core.NewCoarse(2)}} {
		s := tinySolverOn(t, 5, c.eng)
		mon, err := guard.New(guard.Config{Policy: guard.Halt}, s)
		if err != nil {
			t.Fatal(err)
		}
		loss := s.Step(1)[0]
		got := testing.AllocsPerRun(10, func() { mon.Check(1, loss) })
		c.eng.Close()
		if got != 0 {
			t.Errorf("%s: Monitor.Check allocates %v objects, want 0", c.name, got)
		}
		if mon.Stats().Checks == 0 || mon.Err() != nil {
			t.Errorf("%s: the check did not run on a healthy net (stats %+v, err %v)", c.name, mon.Stats(), mon.Err())
		}
	}
}
