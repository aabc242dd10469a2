package layers

import (
	"fmt"

	"coarsegrain/internal/blob"
)

// Concat concatenates N bottoms along the channel axis (axis 1), the
// inception-style branch merge. All bottoms must agree on every other
// dimension. Both passes coalesce over samples: each sample's output
// segment is assembled from the corresponding segments of every bottom.
type Concat struct {
	base
	num    int
	chunks []int // per-bottom elements per sample (CountFrom(1))
	total  int   // sum of chunks
}

// NewConcat creates a channel concatenation layer.
func NewConcat(name string) *Concat {
	return &Concat{base: base{name: name, typ: "Concat"}}
}

// SetUp implements Layer.
func (l *Concat) SetUp(bottom, top []*blob.Blob) error {
	if len(bottom) < 1 {
		return fmt.Errorf("layer %s: concat needs >= 1 bottom", l.name)
	}
	if len(top) != 1 {
		return fmt.Errorf("layer %s: concat needs 1 top, got %d", l.name, len(top))
	}
	first := bottom[0]
	if first.AxisCount() < 2 {
		return fmt.Errorf("layer %s: concat needs >= 2 axes, got %v", l.name, first.Shape())
	}
	for i, b := range bottom[1:] {
		if b.AxisCount() != first.AxisCount() || b.Dim(0) != first.Dim(0) || b.CountFrom(2) != first.CountFrom(2) {
			return fmt.Errorf("layer %s: bottom %d shape %v incompatible with %v",
				l.name, i+1, b.Shape(), first.Shape())
		}
	}
	l.Reshape(bottom, top)
	return nil
}

// Reshape implements Layer.
func (l *Concat) Reshape(bottom, top []*blob.Blob) {
	l.num = bottom[0].Dim(0)
	l.chunks = l.chunks[:0]
	l.total = 0
	channels := 0
	for _, b := range bottom {
		c := b.CountFrom(1)
		l.chunks = append(l.chunks, c)
		l.total += c
		channels += b.Dim(1)
	}
	shape := append([]int{l.num, channels}, bottom[0].Shape()[2:]...)
	top[0].Reshape(shape...)
}

// ForwardExtent implements Layer.
func (l *Concat) ForwardExtent() int { return l.num }

// ForwardRange implements Layer.
func (l *Concat) ForwardRange(lo, hi int, bottom, top []*blob.Blob) {
	out := top[0].Data()
	for s := lo; s < hi; s++ {
		off := s * l.total
		for bi, b := range bottom {
			c := l.chunks[bi]
			copy(out[off:off+c], b.Data()[s*c:(s+1)*c])
			off += c
		}
	}
}

// BackwardExtent implements Layer.
func (l *Concat) BackwardExtent() int { return l.num }

// BackwardRange implements Layer.
func (l *Concat) BackwardRange(lo, hi int, bottom, top []*blob.Blob, _ []*blob.Blob) {
	outDiff := top[0].Diff()
	for s := lo; s < hi; s++ {
		off := s * l.total
		for bi, b := range bottom {
			c := l.chunks[bi]
			if l.propagates(bi) {
				copy(b.Diff()[s*c:(s+1)*c], outDiff[off:off+c])
			}
			off += c
		}
	}
}

// Flatten reshapes (S, d1, d2, ...) into (S, d1*d2*...), preserving
// values. It is a pure copy layer (this implementation does not alias
// buffers), coalesced over samples.
type Flatten struct {
	base
	num, dim int
}

// NewFlatten creates a flatten layer.
func NewFlatten(name string) *Flatten {
	return &Flatten{base: base{name: name, typ: "Flatten"}}
}

// SetUp implements Layer.
func (l *Flatten) SetUp(bottom, top []*blob.Blob) error {
	if err := checkBottomTop(l, bottom, top, 1, 1); err != nil {
		return err
	}
	if bottom[0].AxisCount() < 1 {
		return fmt.Errorf("layer %s: flatten needs at least 1 axis", l.name)
	}
	l.Reshape(bottom, top)
	return nil
}

// Reshape implements Layer.
func (l *Flatten) Reshape(bottom, top []*blob.Blob) {
	l.num = bottom[0].Dim(0)
	l.dim = bottom[0].CountFrom(1)
	top[0].Reshape(l.num, l.dim)
}

// ForwardExtent implements Layer.
func (l *Flatten) ForwardExtent() int { return l.num }

// ForwardRange implements Layer.
func (l *Flatten) ForwardRange(lo, hi int, bottom, top []*blob.Blob) {
	copy(top[0].Data()[lo*l.dim:hi*l.dim], bottom[0].Data()[lo*l.dim:hi*l.dim])
}

// BackwardExtent implements Layer.
func (l *Flatten) BackwardExtent() int { return l.num }

// BackwardRange implements Layer.
func (l *Flatten) BackwardRange(lo, hi int, bottom, top []*blob.Blob, _ []*blob.Blob) {
	copy(bottom[0].Diff()[lo*l.dim:hi*l.dim], top[0].Diff()[lo*l.dim:hi*l.dim])
}
