package solver

import (
	"fmt"
	"math"

	"coarsegrain/internal/net"
)

// The paper's Caffe supported SGD, AdaGrad and Nesterov (§2.1). Later
// Caffe releases added RMSProp and Adam; they are provided here as
// extensions — the coarse-grain parallelization is solver-agnostic (the
// engine never sees the update rule), so any solver inherits the same
// convergence-invariance argument.

const (
	// RMSProp is Tieleman & Hinton's running-average method.
	RMSProp Type = "RMSProp"
	// Adam is Kingma & Ba's adaptive moment estimation.
	Adam Type = "Adam"
)

// normalizeExtra applies Caffe's defaults to the extension solvers'
// hyperparameters: RMSProp's decay 0.99, Adam's β1 (Momentum) 0.9 and β2
// (Momentum2) 0.999.
func (c *Config) normalizeExtra() error {
	switch c.Type {
	case RMSProp:
		if c.Momentum != 0 {
			return fmt.Errorf("solver: RMSProp does not use momentum")
		}
		if c.RMSDecay == 0 {
			c.RMSDecay = 0.99
		}
		if c.RMSDecay <= 0 || c.RMSDecay >= 1 {
			return fmt.Errorf("solver: RMSDecay must be in (0,1), got %g", c.RMSDecay)
		}
	case Adam:
		if c.Momentum == 0 {
			c.Momentum = 0.9
		}
		if c.Momentum2 == 0 {
			c.Momentum2 = 0.999
		}
		if c.Momentum2 <= 0 || c.Momentum2 >= 1 {
			return fmt.Errorf("solver: Momentum2 must be in (0,1), got %g", c.Momentum2)
		}
	}
	return nil
}

// updateSliceExtra is updateSlice for the extension rules. m1/m2 are the
// two history slices (Adam needs both; RMSProp uses m1 only).
func (s *Solver) updateSliceExtra(data, diff, m1, m2 []float32) {
	lr, wd, delta := s.lr, s.cfg.WeightDecay, s.cfg.Delta
	switch s.cfg.Type {
	case RMSProp:
		decay := s.cfg.RMSDecay
		for j := range diff {
			if wd != 0 {
				diff[j] += wd * data[j]
			}
			g := diff[j]
			m1[j] = decay*m1[j] + (1-decay)*g*g
			diff[j] = lr * g / (float32(math.Sqrt(float64(m1[j]))) + delta)
			data[j] -= diff[j]
		}
	case Adam:
		b1, b2 := s.cfg.Momentum, s.cfg.Momentum2
		correction := s.correction
		m2 = m2[:len(diff)]
		for j := range diff {
			if wd != 0 {
				diff[j] += wd * data[j]
			}
			g := diff[j]
			m1[j] = b1*m1[j] + (1-b1)*g
			m2[j] = b2*m2[j] + (1-b2)*g*g
			diff[j] = lr * correction * m1[j] / (float32(math.Sqrt(float64(m2[j]))) + delta)
			data[j] -= diff[j]
		}
	}
}

// adamCorrection is Adam's bias correction at the current iteration,
// sqrt(1-β2^t) / (1-β1^t) with t = iter+1.
func (s *Solver) adamCorrection() float32 {
	b1, b2 := s.cfg.Momentum, s.cfg.Momentum2
	t := float64(s.iter + 1)
	return float32(math.Sqrt(1-math.Pow(float64(b2), t)) / (1 - math.Pow(float64(b1), t)))
}

// Evaluate runs the network in test mode for iters forward passes and
// returns the mean of each requested scalar output (losses, accuracies) —
// the test phase of a Caffe solver. The network's train mode is restored
// afterwards.
func Evaluate(n *net.Net, outputs []string, iters int) (map[string]float64, error) {
	if iters <= 0 {
		return nil, fmt.Errorf("solver: Evaluate needs positive iters")
	}
	n.SetTrain(false)
	defer n.SetTrain(true)
	sums := make(map[string]float64, len(outputs))
	for i := 0; i < iters; i++ {
		n.Forward()
		for _, name := range outputs {
			v, err := n.Output(name)
			if err != nil {
				return nil, err
			}
			sums[name] += float64(v)
		}
	}
	for name := range sums {
		sums[name] /= float64(iters)
	}
	return sums, nil
}
