package guard_test

import (
	"math"
	"strings"
	"testing"

	"coarsegrain/internal/blob"
	"coarsegrain/internal/core"
	"coarsegrain/internal/data"
	"coarsegrain/internal/guard"
	"coarsegrain/internal/layers"
	"coarsegrain/internal/net"
	"coarsegrain/internal/par"
	"coarsegrain/internal/rng"
	"coarsegrain/internal/snapshot"
	"coarsegrain/internal/solver"
	"coarsegrain/internal/trace"
	"coarsegrain/internal/zoo"
)

// microSource is a 4-sample, 2-class, 4-pixel dataset: one batch per epoch
// at batch size 4, so the data cursor is always at 0 when an iteration
// starts and a rollback's resumed trajectory is bit-identical.
type microSource struct{}

func (microSource) Len() int           { return 4 }
func (microSource) SampleShape() []int { return []int{1, 2, 2} }
func (microSource) Classes() int       { return 2 }
func (microSource) Read(i int, out []float32) int {
	for j := range out {
		out[j] = float32(i*len(out)+j) / 16
	}
	return i % 2
}

func tinySolver(t testing.TB, seed uint64) *solver.Solver {
	t.Helper()
	return tinySolverOn(t, seed, nil)
}

// tinySolverOn is tinySolver on the given engine (nil: sequential), whose
// team the monitor's scans then run on.
func tinySolverOn(t testing.TB, seed uint64, eng core.Engine) *solver.Solver {
	t.Helper()
	d, err := layers.NewData("data", microSource{}, 4)
	if err != nil {
		t.Fatal(err)
	}
	ip, err := layers.NewInnerProduct("ip", layers.IPConfig{NumOutput: 2, RNG: rng.New(seed, 0)})
	if err != nil {
		t.Fatal(err)
	}
	n, err := net.New([]net.LayerSpec{
		{Layer: d, Tops: []string{"data", "label"}},
		{Layer: ip, Bottoms: []string{"data"}, Tops: []string{"ip"}},
		{Layer: layers.NewSoftmaxWithLoss("loss"), Bottoms: []string{"ip", "label"}, Tops: []string{"loss"}},
	}, eng)
	if err != nil {
		t.Fatal(err)
	}
	s, err := solver.New(solver.Config{Type: solver.SGD, BaseLR: 0.1, Momentum: 0.9}, n)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// poisonDiff writes a NaN into the first parameter gradient.
func poisonDiff(s *solver.Solver) {
	s.Net().Params()[0].Diff()[0] = float32(math.NaN())
}

func TestHealthyRunIsUnperturbed(t *testing.T) {
	plain := tinySolver(t, 1)
	ref := plain.Step(8)

	guarded := tinySolver(t, 1)
	mon, err := guard.New(guard.Config{Policy: guard.Halt, MaxGradNorm: 1e9}, guarded)
	if err != nil {
		t.Fatal(err)
	}
	guarded.SetPreUpdate(mon.Check)
	got := guarded.Step(8)
	for i := range ref {
		if ref[i] != got[i] {
			t.Fatalf("guard changed the loss trajectory at %d: %v vs %v", i, got[i], ref[i])
		}
	}
	st := mon.Stats()
	if st.Checks != 8 || st.Faults != 0 {
		t.Fatalf("stats = %+v, want 8 clean checks", st)
	}
	if mon.Err() != nil {
		t.Fatalf("healthy run reported error: %v", mon.Err())
	}
}

func TestHaltOnNaNLoss(t *testing.T) {
	s := tinySolver(t, 2)
	mon, err := guard.New(guard.Config{Policy: guard.Halt}, s)
	if err != nil {
		t.Fatal(err)
	}
	if act := mon.Check(0, math.NaN()); act != solver.ActHalt {
		t.Fatalf("NaN loss produced action %v, want halt", act)
	}
	if mon.Err() == nil || !strings.Contains(mon.Err().Error(), "non-finite loss") {
		t.Fatalf("Err = %v", mon.Err())
	}
	// A halted monitor stays halted.
	if act := mon.Check(1, 0.5); act != solver.ActHalt {
		t.Fatal("monitor forgot it halted")
	}
}

func TestHaltOnPoisonedGradient(t *testing.T) {
	eng := core.NewCoarse(4)
	defer eng.Close()
	s := tinySolverOn(t, 3, eng)
	mon, err := guard.New(guard.Config{Policy: guard.Halt}, s)
	if err != nil {
		t.Fatal(err)
	}
	s.SetPreUpdate(func(iter int, loss float64) solver.PreUpdateAction {
		if iter == 2 {
			poisonDiff(s)
		}
		return mon.Check(iter, loss)
	})
	losses := s.Step(10)
	if len(losses) != 3 {
		t.Fatalf("training ran %d iterations past the poison, want halt at 3", len(losses))
	}
	if s.Iter() != 2 {
		t.Fatalf("iter = %d: the poisoned update must not be applied", s.Iter())
	}
	if mon.Err() == nil || !strings.Contains(mon.Err().Error(), "non-finite gradient") {
		t.Fatalf("Err = %v", mon.Err())
	}
	st := mon.Stats()
	if st.Faults != 1 || st.Halts != 1 || st.LastVerdict.BadGrads == 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestHaltOnNonFiniteParameter(t *testing.T) {
	s := tinySolver(t, 4)
	mon, err := guard.New(guard.Config{Policy: guard.Halt}, s)
	if err != nil {
		t.Fatal(err)
	}
	s.Net().Params()[0].Data()[1] = float32(math.Inf(1))
	if act := mon.Check(0, 0.7); act != solver.ActHalt {
		t.Fatalf("action = %v", act)
	}
	if !strings.Contains(mon.Err().Error(), "non-finite parameter") {
		t.Fatalf("Err = %v", mon.Err())
	}
}

func TestHaltOnGradientNormExplosion(t *testing.T) {
	s := tinySolver(t, 5)
	mon, err := guard.New(guard.Config{Policy: guard.Halt, MaxGradNorm: 1e-9}, s)
	if err != nil {
		t.Fatal(err)
	}
	for i := range s.Net().Params()[0].Diff() {
		s.Net().Params()[0].Diff()[i] = 1
	}
	if act := mon.Check(0, 0.7); act != solver.ActHalt {
		t.Fatalf("action = %v", act)
	}
	if !strings.Contains(mon.Err().Error(), "gradient norm explosion") {
		t.Fatalf("Err = %v", mon.Err())
	}
	if v := mon.Stats().LastVerdict; v.GradNorm <= 0 {
		t.Fatalf("verdict did not record the norm: %+v", v)
	}
}

func TestSkipBatchDiscardsUpdateAndContinues(t *testing.T) {
	s := tinySolver(t, 6)
	mon, err := guard.New(guard.Config{Policy: guard.SkipBatch}, s)
	if err != nil {
		t.Fatal(err)
	}
	s.SetPreUpdate(func(iter int, loss float64) solver.PreUpdateAction {
		if iter == 3 {
			poisonDiff(s)
		}
		return mon.Check(iter, loss)
	})
	losses := s.Step(8)
	if len(losses) != 8 {
		t.Fatalf("skip policy stopped training: %d iterations", len(losses))
	}
	if s.Iter() != 8 {
		t.Fatalf("iter = %d, want 8 (skipped batches still advance)", s.Iter())
	}
	if st := mon.Stats(); st.Skips != 1 || st.Faults != 1 {
		t.Fatalf("stats = %+v", st)
	}
	if mon.Err() != nil {
		t.Fatalf("skip policy set Err: %v", mon.Err())
	}
	// The skipped update really was discarded: parameters stay finite.
	for _, p := range s.Net().Params() {
		for _, x := range p.Data() {
			if x != x {
				t.Fatal("NaN leaked into parameters through a skipped batch")
			}
		}
	}
}

func TestRollbackRestoresCheckpointAndBacksOffLR(t *testing.T) {
	dir := t.TempDir()
	s := tinySolver(t, 7)
	s.Step(2)
	if _, err := snapshot.SaveCheckpoint(dir, s, 0); err != nil {
		t.Fatal(err)
	}
	mon, err := guard.New(guard.Config{Policy: guard.Rollback, LRBackoff: 0.5}, s)
	if err != nil {
		t.Fatal(err)
	}
	mon.SetRestore(func(sv *solver.Solver) (string, error) {
		path, _, err := snapshot.LoadLatestValid(dir, sv)
		return path, err
	})
	s.SetPreUpdate(func(iter int, loss float64) solver.PreUpdateAction {
		if iter == 4 {
			poisonDiff(s)
		}
		return mon.Check(iter, loss)
	})
	lr0 := s.LearningRate()
	// Passes from iter 2: 2,3,4(rollback->2),3,4(rollback->2) = 6 passes.
	losses := s.Step(6)
	if len(losses) != 6 {
		t.Fatalf("rollback policy stopped training: %d passes", len(losses))
	}
	st := mon.Stats()
	if st.Rollbacks != 2 {
		t.Fatalf("stats = %+v, want 2 rollbacks (poison refires at iter 4)", st)
	}
	if st.LastRollback != snapshot.CheckpointPath(dir, 2) {
		t.Fatalf("LastRollback = %q", st.LastRollback)
	}
	if s.Iter() != 2 {
		t.Fatalf("iter = %d, want 2 (restored by the second rollback)", s.Iter())
	}
	if got, want := s.LearningRate(), lr0*0.25; got != want {
		t.Fatalf("LR = %g after two rollbacks, want %g", got, want)
	}
	if mon.Err() != nil {
		t.Fatalf("rollback set Err: %v", mon.Err())
	}
}

func TestRollbackWithoutRestoreDegradesToHalt(t *testing.T) {
	s := tinySolver(t, 8)
	mon, err := guard.New(guard.Config{Policy: guard.Rollback}, s)
	if err != nil {
		t.Fatal(err)
	}
	poisonDiff(s)
	if act := mon.Check(0, 0.7); act != solver.ActHalt {
		t.Fatalf("action = %v", act)
	}
	if mon.Err() == nil || !strings.Contains(mon.Err().Error(), "no rollback target") {
		t.Fatalf("Err = %v", mon.Err())
	}
}

func TestCheckEveryGatesScans(t *testing.T) {
	s := tinySolver(t, 9)
	mon, err := guard.New(guard.Config{Policy: guard.Halt, CheckEvery: 3}, s)
	if err != nil {
		t.Fatal(err)
	}
	s.SetPreUpdate(mon.Check)
	s.Step(6) // iters 0..5: checks at 0 and 3
	if st := mon.Stats(); st.Checks != 2 {
		t.Fatalf("CheckEvery=3 over 6 iterations ran %d checks, want 2", st.Checks)
	}
}

func TestParsePolicy(t *testing.T) {
	for in, want := range map[string]guard.Policy{
		"halt": guard.Halt, "skip": guard.SkipBatch,
		"skip-batch": guard.SkipBatch, "rollback": guard.Rollback,
	} {
		got, err := guard.ParsePolicy(in)
		if err != nil || got != want {
			t.Errorf("ParsePolicy(%q) = %v, %v", in, got, err)
		}
	}
	if _, err := guard.ParsePolicy("retry"); err == nil {
		t.Error("unknown policy accepted")
	}
}

func TestConfigValidation(t *testing.T) {
	s := tinySolver(t, 10)
	if _, err := guard.New(guard.Config{LRBackoff: 1.5}, s); err == nil {
		t.Error("LRBackoff > 1 accepted")
	}
	if _, err := guard.New(guard.Config{MaxGradNorm: math.NaN()}, s); err == nil {
		t.Error("NaN MaxGradNorm accepted")
	}
	if _, err := guard.New(guard.Config{}, nil); err == nil {
		t.Error("nil solver accepted")
	}
}

// lenetSolver builds the benchmark workload: LeNet on synthetic MNIST,
// matching the acceptance criterion's "guard overhead <= 2% on a LeNet
// iteration".
func lenetSolver(b testing.TB, eng core.Engine) *solver.Solver {
	b.Helper()
	src := data.NewSyntheticMNIST(64, 11)
	specs, err := zoo.LeNet(src, zoo.Options{BatchSize: 16, Seed: 11})
	if err != nil {
		b.Fatal(err)
	}
	n, err := net.New(specs, eng)
	if err != nil {
		b.Fatal(err)
	}
	s, err := solver.New(zoo.LeNetSolver(), n)
	if err != nil {
		b.Fatal(err)
	}
	return s
}

func BenchmarkLeNetIteration(b *testing.B) {
	s := lenetSolver(b, nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Step(1)
	}
}

func BenchmarkLeNetIterationGuarded(b *testing.B) {
	eng := core.NewCoarse(4)
	defer eng.Close()
	s := lenetSolver(b, eng)
	mon, err := guard.New(guard.Config{Policy: guard.Halt, MaxGradNorm: 1e12}, s)
	if err != nil {
		b.Fatal(err)
	}
	s.SetPreUpdate(mon.Check)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Step(1)
	}
	if mon.Err() != nil {
		b.Fatal(mon.Err())
	}
}

// BenchmarkGuardCheck isolates the scan itself (no training pass), the
// number the <= 2% overhead budget is spent on.
func BenchmarkGuardCheck(b *testing.B) {
	eng := core.NewCoarse(4)
	defer eng.Close()
	s := lenetSolver(b, eng)
	s.Step(1) // populate gradients
	mon, err := guard.New(guard.Config{Policy: guard.Halt, MaxGradNorm: 1e12}, s)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if act := mon.Check(0, 0.5); act != solver.ActProceed {
			b.Fatal("healthy check vetoed")
		}
	}
}

// perRankNorm is the scan's arithmetic written out: every diff blob is
// cut into par.Chunk bands, each rank adds its band's float64 sum of
// squares to its partial, and the partials are summed in rank order.
func perRankNorm(params []*blob.Blob, workers int) float64 {
	partial := make([]float64, workers)
	for _, b := range params {
		xs := b.Diff()
		for r := range partial {
			lo, hi := par.Chunk(len(xs), workers, r)
			var ss float64
			for _, x := range xs[lo:hi] {
				ss += float64(x) * float64(x)
			}
			partial[r] += ss
		}
	}
	var sum float64
	for _, ss := range partial {
		sum += ss
	}
	return math.Sqrt(sum)
}

// TestGradNormIsThePerRankScan: the scan runs on the net's team, and its
// norm is the rank-ordered sum of per-rank partials at that team's size —
// bit for bit, also after Net.SetEngine swaps in a larger or a smaller
// team. LeNet's 431k gradient elements make the float64 sum's rounding
// depend on how the elements are split and in which order the partials
// are added.
func TestGradNormIsThePerRankScan(t *testing.T) {
	s := lenetSolver(t, nil)
	s.Step(1) // populate gradients
	// A vanishing norm bound faults every check, so each verdict is kept.
	mon, err := guard.New(guard.Config{Policy: guard.SkipBatch, MaxGradNorm: 1e-30}, s)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []int{1, 3, 4, 2} {
		eng := core.NewCoarse(p)
		s.Net().SetEngine(eng)
		if act := mon.Check(0, 0.5); act != solver.ActSkip {
			t.Fatalf("P=%d: action %v, want skip", p, act)
		}
		eng.Close()
		got, want := mon.Stats().LastVerdict.GradNorm, perRankNorm(s.Net().Params(), p)
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("P=%d: GradNorm %v, want %v", p, got, want)
		}
	}
}

// TestScanSpansCarryGuardScope: the scans' worker spans are labelled
// ("guard", PhaseGuard), not with the scope of the backward layer that
// ran last.
func TestScanSpansCarryGuardScope(t *testing.T) {
	eng := core.NewCoarse(2)
	defer eng.Close()
	s := tinySolverOn(t, 13, eng)
	tr := trace.New(eng.Workers())
	s.SetTracer(tr)
	mon, err := guard.New(guard.Config{Policy: guard.Halt}, s)
	if err != nil {
		t.Fatal(err)
	}
	mon.SetTracer(tr)
	s.SetPreUpdate(mon.Check)
	s.Step(2)
	spans := tr.Snapshot()
	inside := 0
	for _, g := range spans {
		if g.Rank != trace.RankDriver || g.Phase != trace.PhaseGuard {
			continue
		}
		for _, w := range spans {
			if w.Rank == trace.RankDriver || w.Start < g.Start || w.End() > g.End() {
				continue
			}
			inside++
			if w.Name != "guard" || w.Phase != trace.PhaseGuard {
				t.Errorf("worker span %q/%v inside the guard's check", w.Name, w.Phase)
			}
		}
	}
	if inside == 0 {
		t.Fatal("no worker span inside a guard check: the scans did not run on the team")
	}
}
