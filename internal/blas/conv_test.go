package blas

import (
	"fmt"
	"testing"

	"coarsegrain/internal/rng"
)

// im2colNaive and col2imNaive are the pre-fast-path lowering, one bounds
// test per entry: the oracle the run-clipping Im2col/Col2im (and through
// them the implicit GEMM's panel packers) are compared against.
func im2colNaive(im []float32, g ConvGeom, col []float32) {
	outH, outW := g.OutH(), g.OutW()
	idx := 0
	for c := 0; c < g.Channels; c++ {
		for kh := 0; kh < g.KernelH; kh++ {
			for kw := 0; kw < g.KernelW; kw++ {
				for oh := 0; oh < outH; oh++ {
					for ow := 0; ow < outW; ow++ {
						ih, iw := oh*g.StrideH-g.PadH+kh, ow*g.StrideW-g.PadW+kw
						col[idx] = 0
						if ih >= 0 && ih < g.Height && iw >= 0 && iw < g.Width {
							col[idx] = im[(c*g.Height+ih)*g.Width+iw]
						}
						idx++
					}
				}
			}
		}
	}
}

func col2imNaive(col []float32, g ConvGeom, im []float32) {
	outH, outW := g.OutH(), g.OutW()
	idx := 0
	for c := 0; c < g.Channels; c++ {
		for kh := 0; kh < g.KernelH; kh++ {
			for kw := 0; kw < g.KernelW; kw++ {
				for oh := 0; oh < outH; oh++ {
					for ow := 0; ow < outW; ow++ {
						ih, iw := oh*g.StrideH-g.PadH+kh, ow*g.StrideW-g.PadW+kw
						if ih >= 0 && ih < g.Height && iw >= 0 && iw < g.Width {
							im[(c*g.Height+ih)*g.Width+iw] += col[idx]
						}
						idx++
					}
				}
			}
		}
	}
}

// oddGeoms covers what the panel packers and the run clipping branch on:
// pad 0/1/2 (and a pad wider than the kernel reach, so whole runs are
// zero), stride 1/2/3 and mixed, non-square kernels and images, 1x1,
// outW above, below and not a multiple of either micro-tile width, and
// ckk > gemmKC so the depth loop takes two KC blocks.
var oddGeoms = []ConvGeom{
	{1, 28, 28, 5, 5, 0, 0, 1, 1},  // LeNet conv1
	{20, 12, 12, 5, 5, 0, 0, 1, 1}, // LeNet conv2: ckk=500, two KC blocks
	{3, 32, 32, 5, 5, 2, 2, 1, 1},  // CIFAR conv1: outW=32
	{32, 8, 8, 5, 5, 2, 2, 1, 1},   // CIFAR conv3: ckk=800, four KC blocks
	{2, 7, 9, 3, 3, 1, 1, 1, 1},    // outW=9: panels straddle output rows
	{3, 11, 6, 3, 2, 0, 1, 2, 1},   // non-square everything, strideH only
	{2, 9, 13, 2, 4, 1, 2, 1, 2},   // strideW 2 with pad
	{4, 10, 10, 3, 3, 2, 2, 2, 2},  // pad 2, stride 2
	{5, 6, 6, 1, 1, 0, 0, 1, 1},    // 1x1
	{3, 5, 5, 1, 1, 1, 1, 2, 2},    // 1x1 with pad and stride
	{1, 4, 4, 3, 3, 3, 3, 1, 1},    // pad beyond the kernel: all-zero runs
	{2, 8, 19, 3, 5, 1, 0, 1, 3},   // stride 3, outW=5
	{30, 6, 5, 3, 3, 1, 1, 1, 1},   // ckk=270 just past one KC block, outW=5
}

func geomName(g ConvGeom) string {
	return fmt.Sprintf("c%d_%dx%d_k%dx%d_p%dx%d_s%dx%d", g.Channels, g.Height, g.Width,
		g.KernelH, g.KernelW, g.PadH, g.PadW, g.StrideH, g.StrideW)
}

func im2col(im []float32, g ConvGeom, col []float32) {
	Im2col(im, g.Channels, g.Height, g.Width, g.KernelH, g.KernelW, g.PadH, g.PadW, g.StrideH, g.StrideW, col)
}

func bitEqual(t *testing.T, what string, got, want []float32) {
	t.Helper()
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s differs at %d: %v vs %v", what, i, got[i], want[i])
		}
	}
}

// TestIm2colCol2imMatchNaive pins the run-clipping lowering (contiguous
// copy / accumulate at stride 1, strided runs otherwise) bitwise to the
// per-entry bounds-tested loops it replaced.
func TestIm2colCol2imMatchNaive(t *testing.T) {
	r := rng.New(31, 31)
	for _, g := range oddGeoms {
		im := randomSlice(r, g.Channels*g.Height*g.Width)
		got := randomSlice(r, g.Rows()*g.Cols()) // garbage: every entry must be written
		want := make([]float32, len(got))
		im2col(im, g, got)
		im2colNaive(im, g, want)
		bitEqual(t, geomName(g)+" Im2col", got, want)

		col := randomSlice(r, g.Rows()*g.Cols())
		gotIm := append([]float32(nil), im...) // Col2im accumulates into what is there
		wantIm := append([]float32(nil), im...)
		Col2im(col, g.Channels, g.Height, g.Width, g.KernelH, g.KernelW, g.PadH, g.PadW, g.StrideH, g.StrideW, gotIm)
		col2imNaive(col, g, wantIm)
		bitEqual(t, geomName(g)+" Col2im", gotIm, wantIm)
	}
}

// withScalarKernel runs f with the portable 4x4 micro-kernel (and its
// nr=4 panels) swapped in, which on an AVX2 host nothing else exercises.
// Not safe beside parallel tests; none in this package are.
func withScalarKernel(f func()) {
	nr, k := gemmNR, gemmMicroKernel
	gemmNR, gemmMicroKernel = 4, microKernelScalar4x4
	defer func() { gemmNR, gemmMicroKernel = nr, k }()
	f()
}

// TestConvMatchesIm2colGemm is the implicit GEMM's contract: forward, dW
// and dcol are bitwise Im2col followed by the blocked Gemm (plus a
// separate bias pass), on every odd geometry, with and without bias, on
// both micro-kernels.
func TestConvMatchesIm2colGemm(t *testing.T) {
	check := func(t *testing.T) {
		r := rng.New(32, 32)
		for _, g := range oddGeoms {
			for _, o := range []int{1, 6, 67} { // below, across and past one MC block
				g := g
				ckk, ohw := g.Rows(), g.Cols()
				im := randomSlice(r, g.Channels*g.Height*g.Width)
				w := randomSlice(r, o*ckk)
				bias := randomSlice(r, o)
				dTop := randomSlice(r, o*ohw)
				col := make([]float32, ckk*ohw)
				im2col(im, g, col)
				s := &GemmScratch{}
				name := fmt.Sprintf("%s_o%d", geomName(g), o)

				for _, b := range [][]float32{nil, bias} {
					want := randomSlice(r, o*ohw)
					got := append([]float32(nil), want...)
					GemmBlocked(NoTrans, NoTrans, o, ohw, ckk, 1, w, ckk, col, ohw, 0, want, ohw)
					if b != nil {
						for oc := 0; oc < o; oc++ {
							AddScalar(want[oc*ohw:(oc+1)*ohw], b[oc])
						}
					}
					s.PackA(NoTrans, o, ckk, w, ckk)
					ConvForward(s, &g, o, im, b, got)
					bitEqual(t, fmt.Sprintf("%s forward (bias %v)", name, b != nil), got, want)
				}

				wantW := randomSlice(r, o*ckk)
				gotW := append([]float32(nil), wantW...)
				GemmBlocked(NoTrans, Trans, o, ckk, ohw, 1, dTop, ohw, col, ohw, 1, wantW, ckk)
				ConvBackwardWeights(s, &g, o, dTop, im, gotW)
				bitEqual(t, name+" dW", gotW, wantW)

				wantCol := make([]float32, ckk*ohw)
				gotCol := randomSlice(r, ckk*ohw)
				GemmBlocked(Trans, NoTrans, ckk, ohw, o, 1, w, ckk, dTop, ohw, 0, wantCol, ohw)
				s.PackA(Trans, ckk, o, w, ckk)
				ConvBackwardCol(s, &g, o, dTop, gotCol)
				bitEqual(t, name+" dcol", gotCol, wantCol)
			}
		}
	}
	t.Run("active-kernel", check)
	t.Run("scalar-4x4", func(t *testing.T) { withScalarKernel(func() { check(t) }) })
}

// TestConvPackedAMismatchPanics: a scratch whose packed A is not the
// weights the call needs must be refused, not multiplied.
func TestConvPackedAMismatchPanics(t *testing.T) {
	g := ConvGeom{2, 6, 6, 3, 3, 0, 0, 1, 1}
	s := &GemmScratch{}
	s.PackA(NoTrans, 4, g.Rows(), make([]float32, 4*g.Rows()), g.Rows())
	defer func() {
		if recover() == nil {
			t.Fatal("ConvBackwardCol accepted a scratch packed for the forward pass")
		}
	}()
	ConvBackwardCol(s, &g, 4, make([]float32, 4*g.Cols()), make([]float32, g.Rows()*g.Cols()))
}

// BenchmarkConvLowered times one sample's three conv products on the zoo
// nets' layers: the implicit GEMM with weights packed once ("implicit")
// against the sequence it replaced, with today's packers ("col":
// materialise col with Im2col, dense blocked Gemm packing both operands
// per call, separate bias pass). bwdX includes the Col2im both share.
// PERFORMANCE.md §10 records a run.
func BenchmarkConvLowered(b *testing.B) {
	r := rng.New(33, 33)
	for _, l := range []struct {
		name string
		g    ConvGeom
		o    int
	}{
		{"lenet-conv1", ConvGeom{1, 28, 28, 5, 5, 0, 0, 1, 1}, 20},
		{"lenet-conv2", ConvGeom{20, 12, 12, 5, 5, 0, 0, 1, 1}, 50},
		{"cifar-conv1", ConvGeom{3, 32, 32, 5, 5, 2, 2, 1, 1}, 32},
		{"cifar-conv2", ConvGeom{32, 16, 16, 5, 5, 2, 2, 1, 1}, 32},
		{"cifar-conv3", ConvGeom{32, 8, 8, 5, 5, 2, 2, 1, 1}, 64},
	} {
		g, o := l.g, l.o
		ckk, ohw := g.Rows(), g.Cols()
		im := randomSlice(r, g.Channels*g.Height*g.Width)
		w := randomSlice(r, o*ckk)
		bias := randomSlice(r, o)
		dTop := randomSlice(r, o*ohw)
		out := make([]float32, o*ohw)
		wGrad := make([]float32, o*ckk)
		col := make([]float32, ckk*ohw)
		dcol := make([]float32, ckk*ohw)
		inDiff := make([]float32, len(im))
		s := &GemmScratch{}
		col2im := func() {
			Col2im(dcol, g.Channels, g.Height, g.Width, g.KernelH, g.KernelW, g.PadH, g.PadW, g.StrideH, g.StrideW, inDiff)
		}
		for _, bm := range []struct {
			name string
			prep func()
			f    func()
		}{
			{"fwd/col", func() {}, func() {
				im2col(im, g, col)
				gemmDense(s, NoTrans, NoTrans, ohw, ckk, 1, w, ckk, col, ohw, 0, out, ohw, 0, o)
				for oc := 0; oc < o; oc++ {
					AddScalar(out[oc*ohw:(oc+1)*ohw], bias[oc])
				}
			}},
			{"fwd/implicit", func() { s.PackA(NoTrans, o, ckk, w, ckk) }, func() { ConvForward(s, &g, o, im, bias, out) }},
			{"bwdW/col", func() {}, func() {
				im2col(im, g, col)
				gemmDense(s, NoTrans, Trans, ckk, ohw, 1, dTop, ohw, col, ohw, 1, wGrad, ckk, 0, o)
			}},
			{"bwdW/implicit", func() {}, func() { ConvBackwardWeights(s, &g, o, dTop, im, wGrad) }},
			{"bwdX/col", func() {}, func() {
				gemmDense(s, Trans, NoTrans, ohw, o, 1, w, ckk, dTop, ohw, 0, dcol, ohw, 0, ckk)
				col2im()
			}},
			{"bwdX/implicit", func() { s.PackA(Trans, ckk, o, w, ckk) }, func() {
				ConvBackwardCol(s, &g, o, dTop, dcol)
				col2im()
			}},
		} {
			b.Run(l.name+"/"+bm.name, func(b *testing.B) {
				bm.prep()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					bm.f()
				}
			})
		}
	}
}
