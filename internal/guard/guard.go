// Package guard is the training health monitor: the runtime leg of the
// repository's robustness story (ROBUSTNESS.md). The paper's Algorithm 1
// guarantees that parallel training converges exactly like the sequential
// run — but nothing in the algorithm protects a run from *numerical*
// failure: a poisoned batch, an exploding gradient, a NaN that silently
// propagates into every coefficient. The guard hooks into the solver's
// pre-update point (after forward/backward, before updateCoefficients)
// and, every CheckEvery iterations, scans the loss, all parameter
// gradients and all parameters for NaN/Inf and the gradient's global L2
// norm — in parallel, on the net's own worker team (core.Engine.For),
// with zero per-iteration allocation (pinned by TestCheckAllocatesNothing).
//
// When a check fails, the configured Policy decides the recovery:
//
//   - Halt stops training immediately (Err reports why);
//   - SkipBatch discards the poisoned gradient and moves on — the update
//     is vetoed, the batch skipped;
//   - Rollback restores the newest valid checkpoint (via the Restore
//     callback, typically snapshot.LoadLatestValid), scales the learning
//     rate down by LRBackoff, and re-trains from there.
//
// Every decision is emitted as a PhaseGuard trace span, so recoveries are
// visible on the same Chrome-trace timeline as the compute they protect.
package guard

import (
	"fmt"
	"math"
	"time"

	"coarsegrain/internal/blob"
	"coarsegrain/internal/solver"
	"coarsegrain/internal/trace"
)

// Policy selects the reaction to a failed health check.
type Policy int

const (
	// Halt stops training at the first fault.
	Halt Policy = iota
	// SkipBatch discards the faulty gradient and advances to the next
	// batch without updating parameters.
	SkipBatch
	// Rollback restores the last valid checkpoint and backs the learning
	// rate off before continuing.
	Rollback
)

// String implements fmt.Stringer.
func (p Policy) String() string {
	switch p {
	case SkipBatch:
		return "skip"
	case Rollback:
		return "rollback"
	default:
		return "halt"
	}
}

// ParsePolicy converts a -guard-policy flag value to a Policy.
func ParsePolicy(s string) (Policy, error) {
	switch s {
	case "halt":
		return Halt, nil
	case "skip", "skip-batch":
		return SkipBatch, nil
	case "rollback":
		return Rollback, nil
	}
	return Halt, fmt.Errorf("guard: unknown policy %q (halt|skip|rollback)", s)
}

// Config tunes the monitor.
type Config struct {
	// Policy is the reaction to a fault (default Halt).
	Policy Policy
	// MaxGradNorm faults the iteration when the global L2 norm of the
	// gradient exceeds it. 0 disables the norm check; NaN/Inf scanning is
	// always on.
	MaxGradNorm float64
	// LRBackoff scales the learning rate after each rollback (default
	// 0.5; must be in (0, 1]).
	LRBackoff float32
	// CheckEvery runs the scan every N iterations (default 1).
	CheckEvery int
}

// Verdict is the outcome of one health check.
type Verdict struct {
	Iter      int
	Loss      float64
	GradNorm  float64
	BadGrads  int // non-finite gradient values
	BadParams int // non-finite parameter values
	LossBad   bool
	// Reason is empty when the iteration is healthy.
	Reason string
}

// Stats counts the monitor's activity.
type Stats struct {
	Checks    int
	Faults    int
	Skips     int
	Rollbacks int
	Halts     int
	// LastRollback is the checkpoint path of the most recent rollback.
	LastRollback string
	// LastVerdict is the most recent faulty verdict.
	LastVerdict Verdict
}

// RestoreFunc rolls the solver back to the last durable good state,
// returning a description of what was restored (a checkpoint path).
type RestoreFunc func(*solver.Solver) (string, error)

// Monitor is a solver pre-update hook performing the health checks.
// Not safe for concurrent use; it runs on the driver goroutine.
type Monitor struct {
	cfg     Config
	s       *solver.Solver
	tracer  *trace.Tracer
	restore RestoreFunc

	// cur is the slice being scanned; scanBody is allocated once so the
	// per-iteration scan closes over nothing new.
	cur      []float32
	scanBody func(lo, hi, rank int)
	// sumsq and bad are per-rank partials; writes are rank-indexed, so
	// the parallel scan is race-free by the privatization contract. They
	// are sized to the team at scan time: Net.SetEngine can swap it.
	sumsq []float64
	bad   []int64

	stats Stats
	err   error
}

// New creates a monitor for the solver. Its scans run on the worker team
// of the solver's net, so a guarded run keeps one team.
func New(cfg Config, s *solver.Solver) (*Monitor, error) {
	if s == nil {
		return nil, fmt.Errorf("guard: nil solver")
	}
	if cfg.CheckEvery <= 0 {
		cfg.CheckEvery = 1
	}
	if cfg.LRBackoff == 0 {
		cfg.LRBackoff = 0.5
	}
	if cfg.LRBackoff < 0 || cfg.LRBackoff > 1 {
		return nil, fmt.Errorf("guard: LRBackoff must be in (0,1], got %g", cfg.LRBackoff)
	}
	if cfg.MaxGradNorm < 0 || math.IsNaN(cfg.MaxGradNorm) {
		return nil, fmt.Errorf("guard: MaxGradNorm must be >= 0, got %g", cfg.MaxGradNorm)
	}
	m := &Monitor{cfg: cfg, s: s}
	m.scanBody = func(lo, hi, rank int) {
		xs := m.cur
		var ss float64
		var nb int64
		for j := lo; j < hi; j++ {
			x := xs[j]
			// x != x catches NaN; the range checks catch ±Inf (which
			// compare outside every finite float32).
			if x != x || x > math.MaxFloat32 || x < -math.MaxFloat32 {
				nb++
				continue
			}
			ss += float64(x) * float64(x)
		}
		m.sumsq[rank] += ss
		m.bad[rank] += nb
	}
	return m, nil
}

// SetTracer attaches a span tracer; each check's scan+decision is
// recorded as one PhaseGuard span on the driver rank.
func (m *Monitor) SetTracer(t *trace.Tracer) { m.tracer = t }

// SetRestore installs the rollback target (required for the Rollback
// policy; a Rollback fault without one degrades to Halt).
func (m *Monitor) SetRestore(f RestoreFunc) { m.restore = f }

// Stats returns the activity counters so far.
func (m *Monitor) Stats() Stats { return m.stats }

// Err reports why the monitor halted training, or nil.
func (m *Monitor) Err() error { return m.err }

// Check is the solver pre-update hook: it scans the just-computed state
// and returns the action the configured policy dictates. Healthy
// iterations return ActProceed.
func (m *Monitor) Check(iter int, loss float64) solver.PreUpdateAction {
	if m.err != nil {
		return solver.ActHalt
	}
	if iter%m.cfg.CheckEvery != 0 {
		return solver.ActProceed
	}
	tr := m.tracer
	var start time.Time
	if tr.Enabled() {
		start = time.Now()
	}
	m.stats.Checks++
	v := m.verdict(iter, loss)
	act := solver.ActProceed
	name := "guard"
	if v.Reason != "" {
		m.stats.Faults++
		m.stats.LastVerdict = v
		act, name = m.react(&v)
	}
	if tr.Enabled() {
		tr.Record(trace.Span{
			Name: name, Phase: trace.PhaseGuard, Rank: trace.RankDriver, Band: -1,
			Lo: iter, Hi: iter + 1,
			Start: tr.Stamp(start), Dur: time.Since(start),
		})
	}
	return act
}

// verdict runs the scans and classifies the iteration.
func (m *Monitor) verdict(iter int, loss float64) Verdict {
	v := Verdict{Iter: iter, Loss: loss}
	v.LossBad = math.IsNaN(loss) || math.IsInf(loss, 0)
	// Label the scans' worker spans, which would otherwise carry the
	// scope of the last backward layer.
	m.s.Net().Tracer().SetScope("guard", trace.PhaseGuard)
	params := m.s.Net().Params()
	sumsq, badG := m.scanParams(params, true)
	v.GradNorm = math.Sqrt(sumsq)
	v.BadGrads = badG
	_, badP := m.scanParams(params, false)
	v.BadParams = badP
	switch {
	case v.LossBad:
		v.Reason = "non-finite loss"
	case v.BadGrads > 0:
		v.Reason = "non-finite gradient"
	case v.BadParams > 0:
		v.Reason = "non-finite parameter"
	case m.cfg.MaxGradNorm > 0 && v.GradNorm > m.cfg.MaxGradNorm:
		v.Reason = "gradient norm explosion"
	}
	return v
}

// scanParams scans every blob's diff (diff=true) or data slice, returning
// the float64 sum of squares of the finite values and the count of
// non-finite ones. The per-rank partials are merged in rank order, so the
// result is deterministic for a fixed team size.
func (m *Monitor) scanParams(blobs []*blob.Blob, diff bool) (sumsq float64, bad int) {
	e := m.s.Net().Engine()
	p := e.Workers()
	if len(m.sumsq) < p {
		m.growPartials(p)
	}
	for r := 0; r < p; r++ {
		m.sumsq[r] = 0
		m.bad[r] = 0
	}
	for _, b := range blobs {
		if diff {
			m.cur = b.Diff()
		} else {
			m.cur = b.Data()
		}
		e.For(len(m.cur), m.scanBody)
	}
	m.cur = nil
	for r := 0; r < p; r++ {
		sumsq += m.sumsq[r]
		bad += int(m.bad[r])
	}
	return sumsq, bad
}

// growPartials sizes the per-rank partials for a team of p workers: once
// per monitor, and again only if a larger engine is swapped in.
func (m *Monitor) growPartials(p int) {
	m.sumsq = make([]float64, p)
	m.bad = make([]int64, p)
}

// react applies the policy to a faulty verdict, returning the solver
// action and the trace-span name recording the decision.
func (m *Monitor) react(v *Verdict) (solver.PreUpdateAction, string) {
	switch m.cfg.Policy {
	case SkipBatch:
		m.stats.Skips++
		return solver.ActSkip, "guard:skip"
	case Rollback:
		if m.restore != nil {
			path, err := m.restore(m.s)
			if err == nil {
				m.stats.Rollbacks++
				m.stats.LastRollback = path
				m.s.ScaleLR(m.cfg.LRBackoff)
				return solver.ActRollback, "guard:rollback"
			}
			m.err = fmt.Errorf("guard: %s at iteration %d and rollback failed: %w", v.Reason, v.Iter, err)
			m.stats.Halts++
			return solver.ActHalt, "guard:halt"
		}
		m.err = fmt.Errorf("guard: %s at iteration %d and no rollback target configured", v.Reason, v.Iter)
		m.stats.Halts++
		return solver.ActHalt, "guard:halt"
	}
	m.stats.Halts++
	m.err = fmt.Errorf("guard: halting: %s at iteration %d (loss %g, grad norm %g, %d bad gradient / %d bad parameter values)",
		v.Reason, v.Iter, v.Loss, v.GradNorm, v.BadGrads, v.BadParams)
	return solver.ActHalt, "guard:halt"
}
