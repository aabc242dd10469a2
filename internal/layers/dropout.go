package layers

import (
	"fmt"

	"coarsegrain/internal/blob"
	"coarsegrain/internal/rng"
)

// Dropout implements inverted dropout: during training each element is
// zeroed with probability Ratio and survivors are scaled by 1/(1-Ratio);
// at test time the layer is the identity.
//
// The mask is drawn *serially* in ForwardPrepare from the layer's private
// RNG stream — this keeps the training trajectory bit-identical for any
// worker count (convergence invariance): the random sequence consumed per
// iteration does not depend on how the parallel region was scheduled.
type Dropout struct {
	base
	ratio float32
	rng   *rng.RNG

	mask          []float32
	train         bool
	extent, plane int
}

// NewDropout creates a dropout layer with the given drop ratio in [0, 1).
func NewDropout(name string, ratio float32, r *rng.RNG) (*Dropout, error) {
	if ratio < 0 || ratio >= 1 {
		return nil, fmt.Errorf("layer %s: dropout ratio must be in [0,1), got %g", name, ratio)
	}
	if r == nil {
		r = rng.New(7, 7)
	}
	return &Dropout{
		base:  base{name: name, typ: "Dropout"},
		ratio: ratio,
		rng:   r,
		train: true,
	}, nil
}

// SetTrain switches between training (mask applied) and testing (identity).
func (l *Dropout) SetTrain(train bool) { l.train = train }

// CanRunInPlace implements InPlacer: the backward needs only the mask.
func (l *Dropout) CanRunInPlace() bool { return true }

// SetUp implements Layer.
func (l *Dropout) SetUp(bottom, top []*blob.Blob) error {
	if err := checkBottomTop(l, bottom, top, 1, 1); err != nil {
		return err
	}
	l.Reshape(bottom, top)
	return nil
}

// Reshape implements Layer.
func (l *Dropout) Reshape(bottom, top []*blob.Blob) {
	top[0].ReshapeLike(bottom[0])
	n := bottom[0].Count()
	if cap(l.mask) < n {
		l.mask = make([]float32, n)
	}
	l.mask = l.mask[:n]
	l.extent = planeExtent(bottom[0])
	l.plane = planeSize(bottom[0])
}

// ForwardPrepare implements ForwardPreparer: serial mask generation.
func (l *Dropout) ForwardPrepare(bottom, top []*blob.Blob) {
	if !l.train {
		return
	}
	scale := 1 / (1 - l.ratio)
	for i := range l.mask {
		if l.rng.Bernoulli(l.ratio) {
			l.mask[i] = 0
		} else {
			l.mask[i] = scale
		}
	}
}

// ForwardExtent implements Layer.
func (l *Dropout) ForwardExtent() int { return l.extent }

// ForwardRange implements Layer.
func (l *Dropout) ForwardRange(lo, hi int, bottom, top []*blob.Blob) {
	in := bottom[0].Data()
	out := top[0].Data()
	if !l.train {
		copy(out[lo*l.plane:hi*l.plane], in[lo*l.plane:hi*l.plane])
		return
	}
	for i := lo * l.plane; i < hi*l.plane; i++ {
		out[i] = in[i] * l.mask[i]
	}
}

// BackwardExtent implements Layer.
func (l *Dropout) BackwardExtent() int { return l.extent }

// BackwardRange implements Layer.
func (l *Dropout) BackwardRange(lo, hi int, bottom, top []*blob.Blob, _ []*blob.Blob) {
	inDiff := bottom[0].Diff()
	outDiff := top[0].Diff()
	if !l.train {
		copy(inDiff[lo*l.plane:hi*l.plane], outDiff[lo*l.plane:hi*l.plane])
		return
	}
	for i := lo * l.plane; i < hi*l.plane; i++ {
		inDiff[i] = outDiff[i] * l.mask[i]
	}
}
