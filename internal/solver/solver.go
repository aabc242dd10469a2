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
	s := &Solver{cfg: cfg, network: n}
	for _, p := range n.Params() {
		s.history = append(s.history, blob.New(p.Shape()...))
		if cfg.Type == Adam {
			s.history2 = append(s.history2, blob.New(p.Shape()...))
		}
	}
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

// applyUpdate implements updateCoefficients (Algorithm 1 line 11): it
// regularizes the gradient, computes the per-parameter step according to
// the solver type, stores it in the parameter's diff and applies it.
func (s *Solver) applyUpdate() {
	lr := s.LearningRate()
	for i, p := range s.network.Params() {
		data := p.Data()
		diff := p.Diff()
		hist := s.history[i].Data()
		// L2 regularization: g += wd * w.
		if wd := s.cfg.WeightDecay; wd != 0 {
			for j := range diff {
				diff[j] += wd * data[j]
			}
		}
		switch s.cfg.Type {
		case SGD:
			mu := s.cfg.Momentum
			for j := range diff {
				hist[j] = mu*hist[j] + lr*diff[j]
				diff[j] = hist[j]
			}
		case Nesterov:
			mu := s.cfg.Momentum
			for j := range diff {
				hPrev := hist[j]
				hist[j] = mu*hPrev + lr*diff[j]
				diff[j] = (1+mu)*hist[j] - mu*hPrev
			}
		case AdaGrad:
			delta := s.cfg.Delta
			for j := range diff {
				g := diff[j]
				hist[j] += g * g
				diff[j] = lr * g / (float32(math.Sqrt(float64(hist[j]))) + delta)
			}
		case RMSProp, Adam:
			var m2 []float32
			if s.history2 != nil {
				m2 = s.history2[i].Data()
			}
			s.applyUpdateExtra(lr, data, diff, hist, m2)
		}
		p.Update()
	}
}
