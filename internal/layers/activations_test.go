package layers

import (
	"fmt"
	"math"
	"testing"

	"coarsegrain/internal/blob"
	"coarsegrain/internal/rng"
)

// activationRef is one activation written per element, as the layers
// computed it before the range kernels: the reference they must equal bit
// for bit.
type activationRef struct {
	name string
	l    *elementwise
	fwd  func(x float32) float32
	bwd  func(x, y, dy float32) float32
}

func activationRefs() []activationRef {
	relu := func(slope float32) activationRef {
		return activationRef{
			name: fmt.Sprintf("ReLU(%g)", slope),
			l:    NewReLU("r", slope),
			fwd: func(x float32) float32 {
				if x > 0 {
					return x
				}
				return slope * x
			},
			bwd: func(x, _, dy float32) float32 {
				if x > 0 {
					return dy
				}
				return slope * dy
			},
		}
	}
	return []activationRef{
		relu(0),
		relu(0.1),
		{
			name: "Sigmoid",
			l:    NewSigmoid("s"),
			fwd:  func(x float32) float32 { return float32(1 / (1 + math.Exp(-float64(x)))) },
			bwd:  func(_, y, dy float32) float32 { return dy * y * (1 - y) },
		},
		{
			name: "TanH",
			l:    NewTanH("t"),
			fwd:  func(x float32) float32 { return float32(math.Tanh(float64(x))) },
			bwd:  func(_, y, dy float32) float32 { return dy * (1 - y*y) },
		},
	}
}

// specialFloats are the inputs whose bits a branch-free kernel could get
// wrong: signed zeros, infinities, NaN, subnormals, the extremes.
func specialFloats() []float32 {
	return []float32{
		0, float32(math.Copysign(0, -1)), 1, -1,
		float32(math.Inf(1)), float32(math.Inf(-1)), float32(math.NaN()),
		math.SmallestNonzeroFloat32, -math.SmallestNonzeroFloat32,
		math.Float32frombits(0x007fffff), math.Float32frombits(0x807fffff), // largest subnormals
		math.MaxFloat32, -math.MaxFloat32, 1e-30, -1e-30,
	}
}

// TestActivationKernelsMatchPerElement runs every activation's range
// kernels — through ForwardRange/BackwardRange over ragged plane bands —
// on random values mixed with the special ones, and requires every output
// and input-gradient bit to equal the per-element reference.
func TestActivationKernelsMatchPerElement(t *testing.T) {
	r := rng.New(31, 1)
	specials := specialFloats()
	for _, a := range activationRefs() {
		bottom := blob.New(3, 5, 7, 3)
		top := setup(t, a.l, []*blob.Blob{bottom})[0]
		x, dy := bottom.Data(), top.Diff()
		for i := range x {
			x[i], dy[i] = r.Range(-4, 4), r.Range(-2, 2)
		}
		// Every special value meets every other as an (x, dy) pair.
		for i, v := range specials {
			for j, g := range specials {
				k := (i*len(specials) + j) % len(x)
				x[k], dy[k] = v, g
			}
		}
		for lo := 0; lo < a.l.ForwardExtent(); lo += 4 {
			a.l.ForwardRange(lo, min(lo+4, a.l.ForwardExtent()), []*blob.Blob{bottom}, []*blob.Blob{top})
		}
		for lo := 0; lo < a.l.BackwardExtent(); lo += 3 {
			a.l.BackwardRange(lo, min(lo+3, a.l.BackwardExtent()), []*blob.Blob{bottom}, []*blob.Blob{top}, nil)
		}
		y, dx := top.Data(), bottom.Diff()
		for i := range x {
			if want := a.fwd(x[i]); math.Float32bits(y[i]) != math.Float32bits(want) {
				t.Fatalf("%s forward(%v) = %v (%#x), per element %v (%#x)", a.name, x[i], y[i],
					math.Float32bits(y[i]), want, math.Float32bits(want))
			}
			if want := a.bwd(x[i], y[i], dy[i]); math.Float32bits(dx[i]) != math.Float32bits(want) {
				t.Fatalf("%s backward(x=%v, y=%v, dy=%v) = %v (%#x), per element %v (%#x)", a.name,
					x[i], y[i], dy[i], dx[i], math.Float32bits(dx[i]), want, math.Float32bits(want))
			}
		}
	}
}

// TestLRNAndReLUPassesAllocateNothing: both passes of LRN and ReLU at
// CIFAR-10-full's norm1 / relu1 shape make no heap allocation.
func TestLRNAndReLUPassesAllocateNothing(t *testing.T) {
	r := rng.New(32, 1)
	lrn, err := NewLRN("norm1", LRNConfig{LocalSize: 3, Alpha: 5e-5, Beta: 0.75})
	if err != nil {
		t.Fatal(err)
	}
	for _, l := range []Layer{lrn, NewReLU("relu1", 0)} {
		bottoms := []*blob.Blob{randomBlob(r, -1, 1, 100, 32, 16, 16)}
		tops := setup(t, l, bottoms)
		if n := testing.AllocsPerRun(1, func() {
			l.ForwardRange(0, l.ForwardExtent(), bottoms, tops)
			l.BackwardRange(0, l.BackwardExtent(), bottoms, tops, nil)
		}); n != 0 {
			t.Fatalf("%s: %v allocations per forward+backward", l.Type(), n)
		}
	}
}

// BenchmarkReLU times one batch of CIFAR-10-full's relu1 (100 x 32 x 16 x
// 16) through the layer's range kernels ("now") and through the
// per-element function the layer used to call ("per-element").
func BenchmarkReLU(b *testing.B) {
	r := rng.New(33, 1)
	l := NewReLU("relu1", 0)
	bottom, top := randomBlob(r, -1, 1, 100, 32, 16, 16), blob.New()
	if err := l.SetUp([]*blob.Blob{bottom}, []*blob.Blob{top}); err != nil {
		b.Fatal(err)
	}
	for i := range top.Diff() {
		top.Diff()[i] = r.Range(-1, 1)
	}
	bottoms, tops := []*blob.Blob{bottom}, []*blob.Blob{top}
	ref := activationRefs()[0]
	b.Run("forward/now", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			l.ForwardRange(0, l.ForwardExtent(), bottoms, tops)
		}
	})
	b.Run("forward/per-element", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for j, x := range bottom.Data() {
				top.Data()[j] = ref.fwd(x)
			}
		}
	})
	b.Run("backward/now", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			l.BackwardRange(0, l.BackwardExtent(), bottoms, tops, nil)
		}
	})
	b.Run("backward/per-element", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			x, y, dy, dx := bottom.Data(), top.Data(), top.Diff(), bottom.Diff()
			for j := range dx {
				dx[j] = ref.bwd(x[j], y[j], dy[j])
			}
		}
	})
}
