package layers

import (
	"fmt"

	"coarsegrain/internal/blob"
)

// EuclideanLoss computes 0.5/S * Σ_s ||a_s − b_s||², the regression loss.
// Bottoms are the prediction and the target (same shape); the top is a
// 1-element blob. Like SoftmaxWithLoss, per-sample terms are stored by
// index and summed serially for worker-count independence.
type EuclideanLoss struct {
	base
	num, dim   int
	perSample  []float32
	lossWeight float32
}

// NewEuclideanLoss creates the loss layer with loss weight 1.
func NewEuclideanLoss(name string) *EuclideanLoss {
	return &EuclideanLoss{
		base:       base{name: name, typ: "EuclideanLoss"},
		lossWeight: 1,
	}
}

// LossWeight implements LossWeighter.
func (l *EuclideanLoss) LossWeight() float32 { return l.lossWeight }

// SetUp implements Layer.
func (l *EuclideanLoss) SetUp(bottom, top []*blob.Blob) error {
	if err := checkBottomTop(l, bottom, top, 2, 1); err != nil {
		return err
	}
	if bottom[0].Count() != bottom[1].Count() {
		return fmt.Errorf("layer %s: bottom counts differ: %d vs %d", l.name, bottom[0].Count(), bottom[1].Count())
	}
	l.Reshape(bottom, top)
	return nil
}

// Reshape implements Layer.
func (l *EuclideanLoss) Reshape(bottom, top []*blob.Blob) {
	l.num = bottom[0].Dim(0)
	l.dim = bottom[0].CountFrom(1)
	if cap(l.perSample) < l.num {
		l.perSample = make([]float32, l.num)
	}
	l.perSample = l.perSample[:l.num]
	top[0].Reshape(1)
}

// ForwardExtent implements Layer.
func (l *EuclideanLoss) ForwardExtent() int { return l.num }

// ForwardRange implements Layer.
func (l *EuclideanLoss) ForwardRange(lo, hi int, bottom, top []*blob.Blob) {
	a := bottom[0].Data()
	b := bottom[1].Data()
	for s := lo; s < hi; s++ {
		var sum float64
		for i := s * l.dim; i < (s+1)*l.dim; i++ {
			d := float64(a[i]) - float64(b[i])
			sum += d * d
		}
		l.perSample[s] = float32(sum / 2)
	}
}

// ForwardFinish implements ForwardFinisher.
func (l *EuclideanLoss) ForwardFinish(bottom, top []*blob.Blob) {
	var sum float64
	for _, v := range l.perSample {
		sum += float64(v)
	}
	top[0].Data()[0] = float32(sum / float64(l.num))
}

// BackwardExtent implements Layer.
func (l *EuclideanLoss) BackwardExtent() int { return l.num }

// BackwardRange implements Layer: d a = (a−b) w/S, d b = −(a−b) w/S.
func (l *EuclideanLoss) BackwardRange(lo, hi int, bottom, top []*blob.Blob, _ []*blob.Blob) {
	a := bottom[0].Data()
	b := bottom[1].Data()
	seed := top[0].Diff()[0] / float32(l.num)
	da, db := l.propagates(0), l.propagates(1)
	for s := lo; s < hi; s++ {
		for i := s * l.dim; i < (s+1)*l.dim; i++ {
			d := (a[i] - b[i]) * seed
			if da {
				bottom[0].Diff()[i] = d
			}
			if db {
				bottom[1].Diff()[i] = -d
			}
		}
	}
}
