package layers

import (
	"fmt"
	"math"

	"coarsegrain/internal/blob"
)

// softmaxSample computes the softmax of in into out (both length c) with
// the usual max-subtraction for numerical stability.
func softmaxSample(in, out []float32) {
	maxV := in[0]
	for _, v := range in[1:] {
		if v > maxV {
			maxV = v
		}
	}
	var sum float64
	for i, v := range in {
		e := math.Exp(float64(v - maxV))
		out[i] = float32(e)
		sum += e
	}
	inv := float32(1 / sum)
	for i := range out {
		out[i] *= inv
	}
}

// Softmax normalizes scores into a probability distribution per sample
// (over axis 1, flattening trailing axes).
type Softmax struct {
	base
	num, classes int
}

// NewSoftmax creates a softmax layer.
func NewSoftmax(name string) *Softmax {
	return &Softmax{base: base{name: name, typ: "Softmax"}}
}

// SetUp implements Layer.
func (l *Softmax) SetUp(bottom, top []*blob.Blob) error {
	if err := checkBottomTop(l, bottom, top, 1, 1); err != nil {
		return err
	}
	if bottom[0].AxisCount() < 2 {
		return fmt.Errorf("layer %s: softmax needs >= 2 axes, got %v", l.name, bottom[0].Shape())
	}
	l.Reshape(bottom, top)
	return nil
}

// Reshape implements Layer.
func (l *Softmax) Reshape(bottom, top []*blob.Blob) {
	l.num = bottom[0].Dim(0)
	l.classes = bottom[0].CountFrom(1)
	top[0].ReshapeLike(bottom[0])
}

// ForwardExtent implements Layer.
func (l *Softmax) ForwardExtent() int { return l.num }

// ForwardRange implements Layer.
func (l *Softmax) ForwardRange(lo, hi int, bottom, top []*blob.Blob) {
	for s := lo; s < hi; s++ {
		softmaxSample(bottom[0].Data()[s*l.classes:(s+1)*l.classes], top[0].Data()[s*l.classes:(s+1)*l.classes])
	}
}

// BackwardExtent implements Layer.
func (l *Softmax) BackwardExtent() int { return l.num }

// BackwardRange implements Layer: dx = (dy − <dy, y>) ⊙ y per sample.
func (l *Softmax) BackwardRange(lo, hi int, bottom, top []*blob.Blob, _ []*blob.Blob) {
	for s := lo; s < hi; s++ {
		y := top[0].Data()[s*l.classes : (s+1)*l.classes]
		dy := top[0].Diff()[s*l.classes : (s+1)*l.classes]
		dx := bottom[0].Diff()[s*l.classes : (s+1)*l.classes]
		var dot float64
		for i := range y {
			dot += float64(dy[i]) * float64(y[i])
		}
		for i := range y {
			dx[i] = (dy[i] - float32(dot)) * y[i]
		}
	}
}

// SoftmaxWithLoss fuses softmax and multinomial logistic loss, the "loss"
// layer of both benchmark networks. Bottom 0 carries scores (S x C),
// bottom 1 carries integer labels stored as float32 (S). The top is a
// 1-element blob holding the mean negative log-likelihood.
//
// Per-sample losses are written by sample index during the parallel region
// and summed serially in ForwardFinish, so the reported loss is independent
// of the worker count — part of the convergence-invariance property.
type SoftmaxWithLoss struct {
	base
	num, classes int

	// prob caches softmax probabilities for the backward pass.
	prob *blob.Blob
	// perSample holds each sample's -log p(label).
	perSample  []float32
	lossWeight float32
}

// NewSoftmaxWithLoss creates the fused loss layer with loss weight 1.
func NewSoftmaxWithLoss(name string) *SoftmaxWithLoss {
	return &SoftmaxWithLoss{
		base:       base{name: name, typ: "SoftmaxWithLoss"},
		prob:       blob.New(),
		lossWeight: 1,
	}
}

// LossWeight implements LossWeighter.
func (l *SoftmaxWithLoss) LossWeight() float32 { return l.lossWeight }

// SetUp implements Layer.
func (l *SoftmaxWithLoss) SetUp(bottom, top []*blob.Blob) error {
	if err := checkBottomTop(l, bottom, top, 2, 1); err != nil {
		return err
	}
	if bottom[0].AxisCount() < 2 {
		return fmt.Errorf("layer %s: scores need >= 2 axes, got %v", l.name, bottom[0].Shape())
	}
	if bottom[1].Dim(0) != bottom[0].Dim(0) {
		return fmt.Errorf("layer %s: label batch %d != score batch %d", l.name, bottom[1].Dim(0), bottom[0].Dim(0))
	}
	l.Reshape(bottom, top)
	return nil
}

// Reshape implements Layer.
func (l *SoftmaxWithLoss) Reshape(bottom, top []*blob.Blob) {
	l.num = bottom[0].Dim(0)
	l.classes = bottom[0].CountFrom(1)
	l.prob.ReshapeLike(bottom[0])
	if cap(l.perSample) < l.num {
		l.perSample = make([]float32, l.num)
	}
	l.perSample = l.perSample[:l.num]
	top[0].Reshape(1)
}

// ForwardExtent implements Layer.
func (l *SoftmaxWithLoss) ForwardExtent() int { return l.num }

// ForwardRange implements Layer.
func (l *SoftmaxWithLoss) ForwardRange(lo, hi int, bottom, top []*blob.Blob) {
	labels := bottom[1].Data()
	for s := lo; s < hi; s++ {
		p := l.prob.Data()[s*l.classes : (s+1)*l.classes]
		softmaxSample(bottom[0].Data()[s*l.classes:(s+1)*l.classes], p)
		lab := int(labels[s])
		if lab < 0 || lab >= l.classes {
			panic(fmt.Sprintf("layer %s: label %d out of range [0,%d)", l.name, lab, l.classes))
		}
		pv := float64(p[lab])
		if pv < 1e-20 {
			pv = 1e-20
		}
		l.perSample[s] = float32(-math.Log(pv))
	}
}

// ForwardFinish implements ForwardFinisher: deterministic serial loss sum.
func (l *SoftmaxWithLoss) ForwardFinish(bottom, top []*blob.Blob) {
	var sum float64
	for _, v := range l.perSample {
		sum += float64(v)
	}
	top[0].Data()[0] = float32(sum / float64(l.num))
}

// BackwardExtent implements Layer.
func (l *SoftmaxWithLoss) BackwardExtent() int { return l.num }

// BackwardRange implements Layer: d score = (prob − onehot(label)) * w / S
// where w is the seed gradient stored in the top blob's diff by the net.
func (l *SoftmaxWithLoss) BackwardRange(lo, hi int, bottom, top []*blob.Blob, _ []*blob.Blob) {
	labels := bottom[1].Data()
	seed := top[0].Diff()[0] / float32(l.num)
	for s := lo; s < hi; s++ {
		p := l.prob.Data()[s*l.classes : (s+1)*l.classes]
		dx := bottom[0].Diff()[s*l.classes : (s+1)*l.classes]
		for i := range dx {
			dx[i] = p[i] * seed
		}
		dx[int(labels[s])] -= seed
	}
}
