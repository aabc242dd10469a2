package layers

import (
	"fmt"
	"math"

	"coarsegrain/internal/blob"
)

// EltwiseOp selects the elementwise combination.
type EltwiseOp int

const (
	// EltwiseSum computes a coefficient-weighted sum (Caffe SUM).
	EltwiseSum EltwiseOp = iota
	// EltwiseProd computes the elementwise product (Caffe PROD).
	EltwiseProd
	// EltwiseMax computes the elementwise maximum (Caffe MAX).
	EltwiseMax
)

// String implements fmt.Stringer.
func (o EltwiseOp) String() string {
	switch o {
	case EltwiseProd:
		return "PROD"
	case EltwiseMax:
		return "MAX"
	default:
		return "SUM"
	}
}

// Eltwise combines N same-shaped bottoms elementwise — the layer behind
// residual-style connections. It exists here mainly to exercise the
// network-agnostic claim on non-linear network graphs: the coarse engine
// parallelizes it through the same generic interface as every other
// layer, with no engine changes.
type Eltwise struct {
	base
	op     EltwiseOp
	coeffs []float32 // SUM coefficients, one per bottom (default 1)

	// argmax records, for MAX, which bottom supplied each element.
	argmax []int32

	extent, plane int
}

// NewEltwise creates an elementwise combination layer. For EltwiseSum,
// coeffs optionally weights each bottom (nil = all ones); other ops ignore
// coeffs.
func NewEltwise(name string, op EltwiseOp, coeffs []float32) *Eltwise {
	return &Eltwise{
		base:   base{name: name, typ: "Eltwise"},
		op:     op,
		coeffs: append([]float32(nil), coeffs...),
	}
}

// SetUp implements Layer.
func (l *Eltwise) SetUp(bottom, top []*blob.Blob) error {
	if len(bottom) < 2 {
		return fmt.Errorf("layer %s: eltwise needs >= 2 bottoms, got %d", l.name, len(bottom))
	}
	if len(top) != 1 {
		return fmt.Errorf("layer %s: eltwise needs 1 top, got %d", l.name, len(top))
	}
	for i, b := range bottom[1:] {
		if !b.SameShape(bottom[0]) {
			return fmt.Errorf("layer %s: bottom %d shape %v != bottom 0 shape %v",
				l.name, i+1, b.Shape(), bottom[0].Shape())
		}
	}
	if l.op == EltwiseSum && len(l.coeffs) != 0 && len(l.coeffs) != len(bottom) {
		return fmt.Errorf("layer %s: %d coefficients for %d bottoms", l.name, len(l.coeffs), len(bottom))
	}
	if l.op == EltwiseSum && len(l.coeffs) == 0 {
		l.coeffs = make([]float32, len(bottom))
		for i := range l.coeffs {
			l.coeffs[i] = 1
		}
	}
	l.Reshape(bottom, top)
	return nil
}

// Reshape implements Layer.
func (l *Eltwise) Reshape(bottom, top []*blob.Blob) {
	top[0].ReshapeLike(bottom[0])
	l.extent = planeExtent(bottom[0])
	l.plane = planeSize(bottom[0])
	if l.op == EltwiseMax {
		n := bottom[0].Count()
		if cap(l.argmax) < n {
			l.argmax = make([]int32, n)
		}
		l.argmax = l.argmax[:n]
	}
}

// ForwardExtent implements Layer.
func (l *Eltwise) ForwardExtent() int { return l.extent }

// ForwardRange implements Layer.
func (l *Eltwise) ForwardRange(lo, hi int, bottom, top []*blob.Blob) {
	out := top[0].Data()
	start, end := lo*l.plane, hi*l.plane
	switch l.op {
	case EltwiseSum:
		for i := start; i < end; i++ {
			var acc float32
			for bi, b := range bottom {
				acc += l.coeffs[bi] * b.Data()[i]
			}
			out[i] = acc
		}
	case EltwiseProd:
		for i := start; i < end; i++ {
			acc := float32(1)
			for _, b := range bottom {
				acc *= b.Data()[i]
			}
			out[i] = acc
		}
	case EltwiseMax:
		for i := start; i < end; i++ {
			best := float32(math.Inf(-1))
			var arg int32
			for bi, b := range bottom {
				if v := b.Data()[i]; v > best {
					best = v
					arg = int32(bi)
				}
			}
			out[i] = best
			l.argmax[i] = arg
		}
	}
}

// BackwardExtent implements Layer.
func (l *Eltwise) BackwardExtent() int { return l.extent }

// BackwardRange implements Layer.
func (l *Eltwise) BackwardRange(lo, hi int, bottom, top []*blob.Blob, _ []*blob.Blob) {
	outDiff := top[0].Diff()
	start, end := lo*l.plane, hi*l.plane
	for bi, b := range bottom {
		if !l.propagates(bi) {
			continue
		}
		inDiff := b.Diff()
		switch l.op {
		case EltwiseSum:
			c := l.coeffs[bi]
			for i := start; i < end; i++ {
				inDiff[i] = c * outDiff[i]
			}
		case EltwiseProd:
			for i := start; i < end; i++ {
				// d bottom_bi = dy * prod of the other bottoms.
				p := float32(1)
				for bj, ob := range bottom {
					if bj != bi {
						p *= ob.Data()[i]
					}
				}
				inDiff[i] = outDiff[i] * p
			}
		case EltwiseMax:
			for i := start; i < end; i++ {
				if l.argmax[i] == int32(bi) {
					inDiff[i] = outDiff[i]
				} else {
					inDiff[i] = 0
				}
			}
		}
	}
}
