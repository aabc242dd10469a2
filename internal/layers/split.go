package layers

import (
	"fmt"

	"coarsegrain/internal/blob"
)

// Split fans one bottom out to N tops, the layer Caffe inserts wherever a
// blob feeds multiple gradient-producing consumers: bottom-diff contracts
// OVERWRITE (they do not accumulate), so each consumer writes its own top
// copy and Split's backward SUMS the top diffs into the bottom diff.
// Forward copies values; both passes coalesce over (sample, channel)
// planes.
type Split struct {
	base
	extent, plane int
}

// NewSplit creates a split layer.
func NewSplit(name string) *Split {
	return &Split{base: base{name: name, typ: "Split"}}
}

// SetUp implements Layer.
func (l *Split) SetUp(bottom, top []*blob.Blob) error {
	if len(bottom) != 1 {
		return fmt.Errorf("layer %s: split needs 1 bottom, got %d", l.name, len(bottom))
	}
	if len(top) < 1 {
		return fmt.Errorf("layer %s: split needs >= 1 top", l.name)
	}
	l.Reshape(bottom, top)
	return nil
}

// Reshape implements Layer.
func (l *Split) Reshape(bottom, top []*blob.Blob) {
	for _, t := range top {
		t.ReshapeLike(bottom[0])
	}
	l.extent = planeExtent(bottom[0])
	l.plane = planeSize(bottom[0])
}

// ForwardExtent implements Layer.
func (l *Split) ForwardExtent() int { return l.extent }

// ForwardRange implements Layer.
func (l *Split) ForwardRange(lo, hi int, bottom, top []*blob.Blob) {
	src := bottom[0].Data()[lo*l.plane : hi*l.plane]
	for _, t := range top {
		copy(t.Data()[lo*l.plane:hi*l.plane], src)
	}
}

// BackwardExtent implements Layer.
func (l *Split) BackwardExtent() int { return l.extent }

// BackwardRange implements Layer: bottom diff = Σ top diffs.
func (l *Split) BackwardRange(lo, hi int, bottom, top []*blob.Blob, _ []*blob.Blob) {
	dst := bottom[0].Diff()
	start, end := lo*l.plane, hi*l.plane
	copy(dst[start:end], top[0].Diff()[start:end])
	for _, t := range top[1:] {
		td := t.Diff()
		for i := start; i < end; i++ {
			dst[i] += td[i]
		}
	}
}
