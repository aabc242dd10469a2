package solver_test

import (
	"fmt"
	"math"
	"testing"

	"coarsegrain/internal/blob"
	"coarsegrain/internal/core"
	"coarsegrain/internal/net"
	"coarsegrain/internal/par"
	"coarsegrain/internal/solver"
	"coarsegrain/internal/trace"
	"coarsegrain/internal/zoo"
)

// serialUpdate is the update as a serial three-pass sweep per parameter
// (regularize, rule, data -= diff): the oracle the sliced sweep must
// match bit for bit. cfg must carry every hyperparameter explicitly (no
// solver defaults apply here).
func serialUpdate(cfg solver.Config, lr float32, iter int, params, hist, hist2 []*blob.Blob) {
	for i, p := range params {
		data, diff, h := p.Data(), p.Diff(), hist[i].Data()
		if wd := cfg.WeightDecay; wd != 0 {
			for j := range diff {
				diff[j] += wd * data[j]
			}
		}
		switch cfg.Type {
		case solver.SGD:
			mu := cfg.Momentum
			for j := range diff {
				h[j] = mu*h[j] + lr*diff[j]
				diff[j] = h[j]
			}
		case solver.Nesterov:
			mu := cfg.Momentum
			for j := range diff {
				hPrev := h[j]
				h[j] = mu*hPrev + lr*diff[j]
				diff[j] = (1+mu)*h[j] - mu*hPrev
			}
		case solver.AdaGrad:
			delta := cfg.Delta
			for j := range diff {
				g := diff[j]
				h[j] += g * g
				diff[j] = lr * g / (float32(math.Sqrt(float64(h[j]))) + delta)
			}
		case solver.RMSProp:
			decay, delta := cfg.RMSDecay, cfg.Delta
			for j := range diff {
				g := diff[j]
				h[j] = decay*h[j] + (1-decay)*g*g
				diff[j] = lr * g / (float32(math.Sqrt(float64(h[j]))) + delta)
			}
		case solver.Adam:
			b1, b2 := cfg.Momentum, cfg.Momentum2
			t := float64(iter + 1)
			correction := float32(math.Sqrt(1-math.Pow(float64(b2), t)) / (1 - math.Pow(float64(b1), t)))
			delta := cfg.Delta
			m2 := hist2[i].Data()
			for j := range diff {
				g := diff[j]
				h[j] = b1*h[j] + (1-b1)*g
				m2[j] = b2*m2[j] + (1-b2)*g*g
				diff[j] = lr * correction * h[j] / (float32(math.Sqrt(float64(m2[j]))) + delta)
			}
		}
		for j := range data {
			data[j] -= diff[j]
		}
	}
}

// updateRules is every rule with non-zero weight decay and every
// hyperparameter explicit, so serialUpdate sees the solver's values.
func updateRules() []solver.Config {
	base := solver.Config{BaseLR: 0.01, WeightDecay: 5e-4, Delta: 1e-8}
	var out []solver.Config
	for _, c := range []struct {
		typ                    solver.Type
		mom, mom2, decay, rate float32
	}{
		{solver.SGD, 0.9, 0, 0, 0.01},
		{solver.Nesterov, 0.9, 0, 0, 0.01},
		{solver.AdaGrad, 0, 0, 0, 0.01},
		{solver.RMSProp, 0, 0, 0.98, 0.001},
		{solver.Adam, 0.9, 0.999, 0, 0.001},
	} {
		cfg := base
		cfg.Type, cfg.Momentum, cfg.Momentum2, cfg.RMSDecay, cfg.BaseLR = c.typ, c.mom, c.mom2, c.decay, c.rate
		out = append(out, cfg)
	}
	return out
}

// flatBoundaries reports whether some chunk boundary of the update's
// flat element space at P workers falls strictly inside a parameter, and
// whether one falls on the seam between two parameters.
func flatBoundaries(params []*blob.Blob, workers int) (inside, seam bool) {
	seams := map[int]bool{}
	n := 0
	for _, p := range params {
		n += p.Count()
		seams[n] = true
	}
	for r := 1; r < workers; r++ {
		if b, _ := par.Chunk(n, workers, r); b > 0 && b < n {
			inside = inside || !seams[b]
			seam = seam || seams[b]
		}
	}
	return inside, seam
}

// TestSlicedUpdateMatchesSerialLoop: three steps of every rule at
// NewCoarse(P) leave weights, diffs and history bitwise equal to the
// same steps with the update run as the serial sweep. The worker counts
// put chunk boundaries inside parameters and, for the toy net at 15, on
// the seam between conv1's bias and ip1's weights.
func TestSlicedUpdateMatchesSerialLoop(t *testing.T) {
	lenet := func(eng core.Engine) *net.Net {
		m, err := zoo.Load(zoo.Ref{Zoo: "lenet", Batch: 8, Samples: 16, Seed: 1})
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
		return n
	}
	toy := func(eng core.Engine) *net.Net { return solver.BuildTestNet(t, 8, eng) }
	const steps = 3
	var inside, seam bool
	for _, c := range []struct {
		name    string
		build   func(core.Engine) *net.Net
		workers []int
	}{
		{"toy", toy, []int{1, 2, 3, 5, 15}},
		{"lenet", lenet, []int{1, 2, 3, 5}},
	} {
		for _, cfg := range updateRules() {
			for _, p := range c.workers {
				t.Run(fmt.Sprintf("%s/%s/P=%d", c.name, cfg.Type, p), func(t *testing.T) {
					eng := core.NewCoarse(p)
					defer eng.Close()
					got := c.build(eng)
					s, err := solver.New(cfg, got)
					if err != nil {
						t.Fatal(err)
					}
					s.Step(steps)

					refEng := core.NewCoarse(p)
					defer refEng.Close()
					ref := c.build(refEng)
					rs, err := solver.New(cfg, ref)
					if err != nil {
						t.Fatal(err)
					}
					for i := 0; i < steps; i++ {
						ref.ZeroParamDiffs()
						ref.ForwardBackward()
						serialUpdate(cfg, rs.LearningRate(), i, ref.Params(), rs.History(), rs.History2())
						rs.RestoreIter(i + 1)
					}

					in, on := flatBoundaries(got.Params(), p)
					inside, seam = inside || in, seam || on
					names := got.ParamNames()
					for i, p := range got.Params() {
						q := ref.Params()[i]
						sameBits(t, names[i]+" data", p.Data(), q.Data())
						sameBits(t, names[i]+" diff", p.Diff(), q.Diff())
						sameBits(t, names[i]+" history", s.History()[i].Data(), rs.History()[i].Data())
						if cfg.Type == solver.Adam {
							sameBits(t, names[i]+" history2", s.History2()[i].Data(), rs.History2()[i].Data())
						}
					}
				})
			}
		}
	}
	if !inside || !seam {
		t.Errorf("the worker counts put a chunk boundary inside a parameter: %v, on a seam: %v", inside, seam)
	}
}

func sameBits(t *testing.T, what string, got, want []float32) {
	t.Helper()
	for j := range want {
		if math.Float32bits(got[j]) != math.Float32bits(want[j]) {
			t.Fatalf("%s[%d]: sliced %v, serial %v", what, j, got[j], want[j])
		}
	}
}

// TestUpdateSpansCarryUpdateScope: with a tracer attached, every worker
// span inside a step's update span is the sweep's, labelled ("update",
// PhaseUpdate) rather than with the last backward layer's scope; the
// data layer's load bands carry its forward scope; trace.PerLayer
// charges each layer exactly one forward and one backward per step; and
// no worker span is charged to a layer or phase it did not run in.
func TestUpdateSpansCarryUpdateScope(t *testing.T) {
	m, err := zoo.Load(zoo.Ref{Zoo: "lenet", Batch: 8, Samples: 16, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	specs, err := m.Specs(m.Source, 0)
	if err != nil {
		t.Fatal(err)
	}
	eng := core.NewCoarse(2)
	defer eng.Close()
	n, err := net.New(specs, eng)
	if err != nil {
		t.Fatal(err)
	}
	s, err := solver.New(m.Solver, n)
	if err != nil {
		t.Fatal(err)
	}
	tr := trace.New(eng.Workers())
	s.SetTracer(tr)
	const steps = 2
	s.Step(steps)

	spans := tr.Snapshot()
	within := func(outer trace.Span, check func(w trace.Span)) int {
		k := 0
		for _, w := range spans {
			if w.Rank != trace.RankDriver && w.Start >= outer.Start && w.End() <= outer.End() {
				check(w)
				k++
			}
		}
		return k
	}
	dataName := n.Layers()[0].Name()
	updates, fills := 0, 0
	for _, d := range spans {
		switch {
		case d.Rank != trace.RankDriver:
		case d.Phase == trace.PhaseUpdate:
			updates++
			if within(d, func(w trace.Span) {
				if w.Name != "update" || w.Phase != trace.PhaseUpdate {
					t.Errorf("worker span %q/%v inside the update", w.Name, w.Phase)
				}
			}) != eng.Workers() {
				t.Errorf("update span holds no band per worker")
			}
		case d.Phase == trace.PhaseForward && d.Name == dataName:
			fills++
			if within(d, func(w trace.Span) {
				if w.Name != dataName || w.Phase != trace.PhaseForward {
					t.Errorf("worker span %q/%v inside the %s forward", w.Name, w.Phase, dataName)
				}
			}) == 0 {
				t.Errorf("the %s forward ran no band on the team", dataName)
			}
		}
	}
	if updates != steps || fills != steps {
		t.Fatalf("%d update and %d data forward spans over %d steps", updates, fills, steps)
	}

	lt, err := trace.PerLayer(tr)
	if err != nil {
		t.Fatal(err)
	}
	if len(lt.Names) != len(n.Layers()) {
		t.Fatalf("PerLayer names %v, net layers %d", lt.Names, len(n.Layers()))
	}
	for _, l := range n.Layers() {
		if c := lt.Fwd[l.Name()].Count; c != steps {
			t.Errorf("%s: %d forward spans over %d steps", l.Name(), c, steps)
		}
		if c, want := lt.Bwd[l.Name()].Count, steps; l.BackwardExtent() > 0 && c != want {
			t.Errorf("%s: %d backward spans over %d steps", l.Name(), c, want)
		}
	}
	// No band is charged to a layer or phase it did not run in: every
	// worker span lies inside a driver span of its own name and phase.
	for _, w := range spans {
		if w.Rank == trace.RankDriver {
			continue
		}
		owned := false
		for _, d := range spans {
			if d.Rank == trace.RankDriver && d.Name == w.Name && d.Phase == w.Phase && w.Start >= d.Start && w.End() <= d.End() {
				owned = true
				break
			}
		}
		if !owned {
			t.Errorf("worker span %q/%v [%v, %v] lies in no driver span of its label", w.Name, w.Phase, w.Start, w.End())
		}
	}
}
