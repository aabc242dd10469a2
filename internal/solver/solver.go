// Package solver implements the gradient-descent training algorithms the
// paper's Caffe setup supports (§2.1): plain SGD with momentum, AdaGrad
// and Nesterov accelerated gradient, plus Caffe's learning-rate policies.
//
// The solver is engine-agnostic: the parallelization strategy lives
// entirely inside the net's execution engine, which is exactly the paper's
// convergence-invariance argument — no training parameter changes when the
// worker count changes.
package solver

import (
	"fmt"
	"math"
	"time"

	"coarsegrain/internal/blob"
	"coarsegrain/internal/net"
	"coarsegrain/internal/trace"
)

// Type selects the update rule.
type Type string

const (
	// SGD is stochastic gradient descent with momentum [Bottou].
	SGD Type = "SGD"
	// AdaGrad is the adaptive subgradient method [Duchi et al.].
	AdaGrad Type = "AdaGrad"
	// Nesterov is Nesterov's accelerated gradient [Nesterov 1983].
	Nesterov Type = "Nesterov"
)

// Config mirrors the fields of a Caffe solver prototxt.
type Config struct {
	Type   Type
	BaseLR float32
	// Momentum is SGD's and Nesterov's momentum, and Adam's first-moment
	// decay β1 (default 0.9 for Adam), as in Caffe.
	Momentum    float32
	WeightDecay float32
	// LRPolicy is one of "fixed", "step", "exp", "inv".
	LRPolicy string
	Gamma    float32
	Power    float32
	StepSize int
	// Delta is the numerical-stability constant of the adaptive solvers
	// (AdaGrad, RMSProp, Adam; default 1e-8).
	Delta float32
	// Momentum2 is Adam's second-moment decay β2 (Caffe's momentum2,
	// default 0.999).
	Momentum2 float32
	// RMSDecay is RMSProp's running-average factor (Caffe's rms_decay,
	// default 0.99).
	RMSDecay float32
}

func (c *Config) normalize() error {
	if c.Type == "" {
		c.Type = SGD
	}
	switch c.Type {
	case SGD, AdaGrad, Nesterov, RMSProp, Adam:
	default:
		return fmt.Errorf("solver: unknown type %q", c.Type)
	}
	if c.BaseLR <= 0 {
		return fmt.Errorf("solver: BaseLR must be positive, got %g", c.BaseLR)
	}
	if c.LRPolicy == "" {
		c.LRPolicy = "fixed"
	}
	switch c.LRPolicy {
	case "fixed", "step", "exp", "inv":
	default:
		return fmt.Errorf("solver: unknown lr_policy %q", c.LRPolicy)
	}
	if c.LRPolicy == "step" && c.StepSize <= 0 {
		return fmt.Errorf("solver: step policy needs positive StepSize")
	}
	if c.Delta == 0 {
		c.Delta = 1e-8
	}
	if c.Momentum < 0 || c.Momentum >= 1 {
		return fmt.Errorf("solver: momentum must be in [0,1), got %g", c.Momentum)
	}
	if c.Type == AdaGrad && c.Momentum != 0 {
		return fmt.Errorf("solver: AdaGrad does not use momentum")
	}
	return c.normalizeExtra()
}

// Solver drives the training loop of Algorithm 1: forward, backward,
// updateCoefficients.
type Solver struct {
	cfg     Config
	network *net.Net
	iter    int
	// history holds per-parameter state: momentum buffers (SGD/Nesterov),
	// accumulated squared gradients (AdaGrad), running averages (RMSProp)
	// or first moments (Adam), in the data field.
	history []*blob.Blob
	// history2 holds Adam's second-moment buffers (nil otherwise).
	history2 []*blob.Blob
	// tracer, when attached, wraps every Step iteration in an iteration
	// span and the update rule in an update span.
	tracer *trace.Tracer
	// preUpdate, when set, is consulted after every forward/backward pass
	// and before the parameter update — the hook the training health
	// monitor (internal/guard) uses to veto an update computed from a
	// poisoned gradient. Nil means always proceed.
	preUpdate PreUpdateHook

	// offsets[i] is where parameter i starts in the flat element space
	// the update sweeps; its last entry is the space's size.
	offsets []int
	// updateBody is updateRange, bound once so that a step hands the
	// engine no new closure.
	updateBody func(lo, hi, rank int)
	// lr and correction are the current sweep's constants: the learning
	// rate and Adam's bias correction.
	lr, correction float32
}

// PreUpdateAction is a pre-update hook's verdict on the just-computed
// gradient.
type PreUpdateAction int

const (
	// ActProceed applies the update normally.
	ActProceed PreUpdateAction = iota
	// ActSkip discards this batch's gradient: no parameter update is
	// applied, but the iteration counter still advances (the batch is
	// skipped, not retried).
	ActSkip
	// ActRollback signals that the hook has already restored the solver
	// to an earlier state (parameters, history and iteration counter, as
	// a snapshot restore does): the update is discarded and the iteration
	// counter is left exactly as the hook set it.
	ActRollback
	// ActHalt stops Step immediately; the losses collected so far are
	// returned.
	ActHalt
)

// PreUpdateHook inspects the state after forward/backward at iteration
// iter (loss is the batch loss) and decides whether the update proceeds.
type PreUpdateHook func(iter int, loss float64) PreUpdateAction

// SetPreUpdate installs the pre-update hook (nil removes it). The hook
// runs on the driver goroutine between parallel regions, so it may touch
// parameters, gradients and solver state freely.
func (s *Solver) SetPreUpdate(h PreUpdateHook) { s.preUpdate = h }

// ScaleLR multiplies the base learning rate by f — the guard's rollback
// backoff uses this to re-approach a divergence point more conservatively.
func (s *Solver) ScaleLR(f float32) { s.cfg.BaseLR *= f }

// New creates a solver for the given network.
func New(cfg Config, n *net.Net) (*Solver, error) {
	if err := cfg.normalize(); err != nil {
		return nil, err
	}
	if n == nil {
		return nil, fmt.Errorf("solver: nil net")
	}
	s := &Solver{cfg: cfg, network: n, offsets: []int{0}}
	for _, p := range n.Params() {
		s.history = append(s.history, blob.New(p.Shape()...))
		if cfg.Type == Adam {
			s.history2 = append(s.history2, blob.New(p.Shape()...))
		}
		s.offsets = append(s.offsets, s.offsets[len(s.offsets)-1]+p.Count())
	}
	s.updateBody = s.updateRange
	return s, nil
}

// Net returns the network being trained.
func (s *Solver) Net() *net.Net { return s.network }

// SetTracer attaches a span tracer to the whole training stack: the
// solver records iteration and update spans, and the tracer is handed
// down to the net (and through it to the engine and its worker pool).
// One call instruments everything; nil detaches everywhere.
func (s *Solver) SetTracer(t *trace.Tracer) {
	s.tracer = t
	s.network.SetTracer(t)
}

// Iter returns the number of completed iterations.
func (s *Solver) Iter() int { return s.iter }

// RestoreIter overwrites the iteration counter — used when resuming from a
// snapshot (the learning-rate policy depends on it).
func (s *Solver) RestoreIter(i int) { s.iter = i }

// History exposes the per-parameter update state (momentum buffers for
// SGD/Nesterov, accumulated squared gradients for AdaGrad), parallel to
// Net().Params(). Used by snapshotting; treat as read/write state, not as
// something to resize.
func (s *Solver) History() []*blob.Blob { return s.history }

// History2 exposes Adam's second-moment buffers (nil for other solvers).
func (s *Solver) History2() []*blob.Blob { return s.history2 }

// LearningRate returns the rate for the current iteration under the
// configured policy.
func (s *Solver) LearningRate() float32 {
	c := &s.cfg
	switch c.LRPolicy {
	case "step":
		return c.BaseLR * float32(math.Pow(float64(c.Gamma), float64(s.iter/c.StepSize)))
	case "exp":
		return c.BaseLR * float32(math.Pow(float64(c.Gamma), float64(s.iter)))
	case "inv":
		return c.BaseLR * float32(math.Pow(1+float64(c.Gamma)*float64(s.iter), -float64(c.Power)))
	default: // fixed
		return c.BaseLR
	}
}

// Step runs iters training iterations and returns the loss of each — the
// trace a developer watches to monitor convergence (§3.2.1's argument for
// the deterministic ordered reduction).
func (s *Solver) Step(iters int) []float64 {
	losses := make([]float64, 0, iters)
	tr := s.tracer
	for i := 0; i < iters; i++ {
		var iterStart time.Time
		if tr.Enabled() {
			iterStart = time.Now()
		}
		s.network.ZeroParamDiffs()
		loss := s.network.ForwardBackward()
		act := ActProceed
		if s.preUpdate != nil {
			act = s.preUpdate(s.iter, loss)
		}
		iterBefore := s.iter
		switch act {
		case ActProceed:
			var updStart time.Time
			if tr.Enabled() {
				updStart = time.Now()
			}
			s.applyUpdate()
			if tr.Enabled() {
				tr.Record(trace.Span{
					Name: "update", Phase: trace.PhaseUpdate, Rank: trace.RankDriver, Band: -1,
					Start: tr.Stamp(updStart), Dur: time.Since(updStart),
				})
			}
			s.iter++
		case ActSkip:
			s.iter++
		case ActRollback:
			// The hook restored an earlier solver state, including the
			// iteration counter; leave everything as it set it.
		}
		if tr.Enabled() {
			tr.Record(trace.Span{
				Name: "iteration", Phase: trace.PhaseIteration, Rank: trace.RankDriver, Band: -1,
				Lo: iterBefore, Hi: iterBefore + 1,
				Start: tr.Stamp(iterStart), Dur: time.Since(iterStart),
			})
		}
		losses = append(losses, loss)
		if act == ActHalt {
			return losses
		}
	}
	return losses
}

// UpdateFromGradients applies one update step using gradients already
// accumulated in the network's parameter diffs (without running any
// passes), then advances the iteration counter. Used by the replica
// trainer, which computes the global-batch gradient across devices before
// handing it to the solver.
func (s *Solver) UpdateFromGradients() {
	s.applyUpdate()
	s.iter++
}

// applyUpdate implements updateCoefficients (Algorithm 1 line 11) as one
// sweep over the parameters' flat element space on the net's worker team
// (the view the engine's gradient merge takes): each element is regularized,
// stepped by the solver's rule and applied in one pass. Every element is
// independent and its arithmetic is the serial sweep's, so the weights
// are bit-identical at every worker count; a one-worker engine runs the
// sweep inline.
func (s *Solver) applyUpdate() {
	s.lr = s.LearningRate()
	if s.cfg.Type == Adam {
		s.correction = s.adamCorrection()
	}
	// Label the worker spans of the sweep, which would otherwise carry
	// the scope of the last backward layer.
	s.network.Tracer().SetScope("update", trace.PhaseUpdate)
	s.network.Engine().For(s.offsets[len(s.offsets)-1], s.updateBody)
}

// updateRange updates elements [lo, hi) of the flat element space: the
// part of each parameter that falls inside it.
func (s *Solver) updateRange(lo, hi, _ int) {
	for i, p := range s.network.Params() {
		off := s.offsets[i]
		if off >= hi {
			return
		}
		plo, phi := max(lo-off, 0), min(hi-off, p.Count())
		if plo >= phi {
			continue
		}
		var m2 []float32
		if s.history2 != nil {
			m2 = s.history2[i].Data()[plo:phi]
		}
		s.updateSlice(p.Data()[plo:phi], p.Diff()[plo:phi], s.history[i].Data()[plo:phi], m2)
	}
}

// updateSlice runs the update over one slice of a parameter, element by
// element: L2 regularization (g += wd * w), the rule's step, stored in
// the diff as Caffe stores it, and the step's application (w -= step).
// hist and m2 are the parameter's history slices (m2 is Adam's only).
func (s *Solver) updateSlice(data, diff, hist, m2 []float32) {
	lr, wd := s.lr, s.cfg.WeightDecay
	data, hist = data[:len(diff)], hist[:len(diff)]
	switch s.cfg.Type {
	case SGD:
		mu := s.cfg.Momentum
		for j := range diff {
			if wd != 0 {
				diff[j] += wd * data[j]
			}
			hist[j] = mu*hist[j] + lr*diff[j]
			diff[j] = hist[j]
			data[j] -= diff[j]
		}
	case Nesterov:
		mu := s.cfg.Momentum
		for j := range diff {
			if wd != 0 {
				diff[j] += wd * data[j]
			}
			hPrev := hist[j]
			hist[j] = mu*hPrev + lr*diff[j]
			diff[j] = (1+mu)*hist[j] - mu*hPrev
			data[j] -= diff[j]
		}
	case AdaGrad:
		delta := s.cfg.Delta
		for j := range diff {
			if wd != 0 {
				diff[j] += wd * data[j]
			}
			g := diff[j]
			hist[j] += g * g
			diff[j] = lr * g / (float32(math.Sqrt(float64(hist[j]))) + delta)
			data[j] -= diff[j]
		}
	case RMSProp, Adam:
		s.updateSliceExtra(data, diff, hist, m2)
	}
}
