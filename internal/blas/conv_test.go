package blas

import (
	"fmt"
	"math"
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
	check := func(t *testing.T) {
		r := rng.New(31, 31)
		for _, g := range append(sweepGeoms(), oddGeoms...) {
			im := randomSlice(r, g.Channels*g.Height*g.Width)
			got := randomSlice(r, g.Rows()*g.Cols()) // garbage: every entry must be written
			want := make([]float32, len(got))
			im2col(im, g, got)
			im2colNaive(im, g, want)
			bitEqual(t, geomName(g)+" Im2col", got, want)

			col := randomSlice(r, g.Rows()*g.Cols())
			gotIm := append([]float32(nil), im...) // Col2im accumulates into what is there
			wantIm := append([]float32(nil), im...)
			col2im(col, g, gotIm)
			col2imNaive(col, g, wantIm)
			bitEqual(t, geomName(g)+" Col2im", gotIm, wantIm)
		}
	}
	t.Run("active-kernel", check)
	t.Run("scalar", func(t *testing.T) { withScalarKernel(func() { check(t) }) })
}

// withScalarKernel runs f with the portable kernels — the 4x4
// micro-kernels with their nr=4 panels and lane groups, the Go run adder —
// swapped in, which on an AVX2 host nothing else exercises. Not safe
// beside parallel tests; none in this package are.
func withScalarKernel(f func()) {
	nr, gw, k, gk, ar := gemmNR, gemmGW, gemmMicroKernel, gemmGatherKernel, addRuns
	gemmNR, gemmGW, gemmMicroKernel, gemmGatherKernel, addRuns = 4, 4, microKernelScalar4x4, gatherKernelScalar4x4, addRunsGo
	defer func() { gemmNR, gemmGW, gemmMicroKernel, gemmGatherKernel, addRuns = nr, gw, k, gk, ar }()
	f()
}

// sweepGeoms is what the gather path branches on, at stride 1 unless
// said: output rows of 5, 8, 12, 24, 28 and 32 pixels (below, at and
// across both lane-group widths, ragged and not) under pad 0-3 (less where
// the image would vanish), kernels of 1, 3, 5 and 7 columns and two
// non-square ones, one or three channels, three to five output rows.
func sweepGeoms() []ConvGeom {
	kernels := [][2]int{{1, 1}, {3, 3}, {5, 5}, {7, 7}, {3, 5}, {4, 2}}
	outWs := []int{5, 8, 12, 24, 28, 32}
	out := make([]ConvGeom, 8*len(outWs), 8*len(outWs)+3)
	for i := range out {
		outW, pad, k := outWs[i/8], i/2%4, kernels[i%len(kernels)]
		padH, padW := min(pad, (k[0]+1)/2), min(pad, (outW+k[1]-2)/2)
		out[i] = ConvGeom{1 + 2*(i%2), 2 + i%3 + k[0] - 2*padH, outW + k[1] - 1 - 2*padW, k[0], k[1], padH, padW, 1, 1}
	}
	return append(out,
		ConvGeom{2, 9, 30, 5, 7, 2, 3, 2, 1},  // strideH only: forward still gathers
		ConvGeom{3, 17, 17, 5, 5, 2, 2, 2, 2}, // stride 2: forward packs, dW gathers through its pixel table
		ConvGeom{2, 13, 40, 3, 9, 0, 1, 1, 3}, // a kernel row wider than a lane group, stride 3
	)
}

// poisonedScratch returns a scratch whose bordered-image buffer is big
// enough never to be regrown and holds NaN throughout: the border must be
// rewritten on every call, and a slack lane that leaks into C shows up.
func poisonedScratch() *GemmScratch {
	s := &GemmScratch{img: make([]float32, 1<<16)}
	nan := float32(math.NaN())
	for i := range s.img {
		s.img[i] = nan
	}
	return s
}

// convCase is one convolution's operands and what the three lowered
// products must give for them, bit for bit: lower (Im2col or the naive
// loop) -> blocked Gemm (+ a separate bias pass) -> scatter (Col2im or the
// naive loop), on the micro-kernel active when the case is built.
type convCase struct {
	g                                 ConvGeom
	o                                 int
	im, w, bias, dTop, w0             []float32
	wantOut, wantBiased, wantW, wantX []float32
}

func newConvCase(r *rng.RNG, g ConvGeom, o int, lower, scatter func([]float32, ConvGeom, []float32)) *convCase {
	ckk, ohw := g.Rows(), g.Cols()
	c := &convCase{g: g, o: o,
		im: randomSlice(r, g.Channels*g.Height*g.Width), w: randomSlice(r, o*ckk), bias: randomSlice(r, o),
		dTop: randomSlice(r, o*ohw), w0: randomSlice(r, o*ckk)}
	col := make([]float32, ckk*ohw)
	lower(c.im, g, col)
	c.wantOut = make([]float32, o*ohw)
	GemmBlocked(NoTrans, NoTrans, o, ohw, ckk, 1, c.w, ckk, col, ohw, 0, c.wantOut, ohw)
	c.wantBiased = append([]float32(nil), c.wantOut...)
	for oc := 0; oc < o; oc++ {
		AddScalar(c.wantBiased[oc*ohw:(oc+1)*ohw], c.bias[oc])
	}
	c.wantW = append([]float32(nil), c.w0...) // dW accumulates into what is there
	GemmBlocked(NoTrans, Trans, o, ckk, ohw, 1, c.dTop, ohw, col, ohw, 1, c.wantW, ckk)
	dcol := make([]float32, ckk*ohw)
	GemmBlocked(Trans, NoTrans, ckk, ohw, o, 1, c.w, ckk, c.dTop, ohw, 0, dcol, ohw)
	c.wantX = make([]float32, len(c.im))
	scatter(dcol, g, c.wantX)
	return c
}

// check runs the case on plan p. The scratch's bordered image is
// NaN-poisoned, so a border left unwritten or a slack lane that reaches C
// fails the comparison; the outputs start as garbage, so must be written.
func (c *convCase) check(t *testing.T, r *rng.RNG, name string, p *ConvPlan) {
	t.Helper()
	o, ckk, ohw := c.o, c.g.Rows(), c.g.Cols()
	name = fmt.Sprintf("%s_o%d %s", geomName(c.g), o, name)
	s := poisonedScratch()
	s.PackA(NoTrans, o, ckk, c.w, ckk)
	got := randomSlice(r, o*ohw)
	ConvForward(s, p, o, c.im, nil, got)
	bitEqual(t, name+" forward", got, c.wantOut)
	ConvForward(s, p, o, c.im, c.bias, got)
	bitEqual(t, name+" forward+bias", got, c.wantBiased)

	gotW := append([]float32(nil), c.w0...)
	ConvBackwardWeights(s, p, o, c.dTop, c.im, gotW)
	bitEqual(t, name+" dW", gotW, c.wantW)

	gotX := randomSlice(r, len(c.im))
	s.PackA(Trans, ckk, o, c.w, ckk)
	ConvBackwardData(s, p, o, c.dTop, gotX, 0, c.g.Channels)
	bitEqual(t, name+" dX", gotX, c.wantX)
}

// convRoutes returns g's plan on the route ConvGathers picks and on both
// routes forced.
func convRoutes(t *testing.T, g ConvGeom) map[string]*ConvPlan {
	t.Helper()
	gather, packed := NewConvPlanForced(g, true), NewConvPlanForced(g, false)
	if (gather.fwd != nil) != (g.StrideW == 1) || gather.dw == nil {
		t.Fatalf("%s: forced gather plan gathers fwd=%v dW=%v", geomName(g), gather.fwd != nil, gather.dw != nil)
	}
	if packed.fwd != nil || packed.dw != nil {
		t.Fatalf("%s: forced packed plan gathers", geomName(g))
	}
	return map[string]*ConvPlan{"dispatch": NewConvPlan(g), "gather": gather, "packed": packed}
}

func col2im(col []float32, g ConvGeom, im []float32) {
	Col2im(col, g.Channels, g.Height, g.Width, g.KernelH, g.KernelW, g.PadH, g.PadW, g.StrideH, g.StrideW, im)
}

// TestConvMatchesIm2colGemm is the lowered convolution's contract:
// forward, dW and dX are bitwise Im2col followed by the blocked Gemm (plus
// a separate bias pass, plus Col2im of the whole dcol), on every odd and
// swept geometry, with and without bias, on both micro-kernels, and on
// both routes to the B operand — gathered and packed, each forced, beside
// the one ConvGathers picks.
func TestConvMatchesIm2colGemm(t *testing.T) {
	check := func(t *testing.T) {
		r := rng.New(32, 32)
		for _, g := range append(sweepGeoms(), oddGeoms...) {
			for _, o := range []int{1, 6, 67} { // below, across and past one MC block
				c := newConvCase(r, g, o, im2col, col2im)
				for route, p := range convRoutes(t, g) {
					c.check(t, r, route, p)
				}
			}
		}
	}
	t.Run("active-kernel", check)
	t.Run("scalar-4x4", func(t *testing.T) { withScalarKernel(func() { check(t) }) })
}

// TestConvGatherTablesStayInsideBorder: every float the gather kernel can
// touch — group base + step + a full lane group — lies inside the bordered
// copy plus its one group of slack, on both lane widths.
func TestConvGatherTablesStayInsideBorder(t *testing.T) {
	check := func() {
		for _, g := range append(sweepGeoms(), oddGeoms...) {
			p := NewConvPlanForced(g, true)
			limit := g.Channels*p.hp*p.wp + p.gw
			for what, gb := range map[string]*gatherB{"fwd": p.fwd, "dW": p.dw} {
				if gb == nil {
					continue
				}
				var maxStep, maxBase int32
				for _, v := range gb.steps {
					maxStep = max(maxStep, v)
				}
				cols := 0
				for _, lg := range gb.groups {
					maxBase = max(maxBase, lg.base)
					if int(lg.col) != cols || lg.n < 1 || int(lg.n) > p.gw {
						t.Fatalf("%s %s: group %+v does not continue the columns at %d", geomName(g), what, lg, cols)
					}
					cols += int(lg.n)
				}
				if reach := int(maxBase+maxStep) + p.gw; reach > limit {
					t.Errorf("%s %s: kernel reads up to %d, bordered copy + slack is %d", geomName(g), what, reach, limit)
				}
			}
		}
	}
	check()
	withScalarKernel(check)
}

// TestConvBackwardDataStripInvariant: dX does not depend on where the
// strips are cut. gemmMC is a constant, so the cut is moved by growing the
// product instead: a convolution over C channels scatters channel c from
// rows [c*kk, (c+1)*kk) of dcol only, so its dX on a channel must equal the
// dX of the single-channel convolution with that channel's weights, whose
// strips start at row 0 rather than wherever c*kk falls in a 64-row strip —
// and both must equal the full dcol of the blocked Gemm, scattered by
// Col2im.
func TestConvBackwardDataStripInvariant(t *testing.T) {
	check := func(t *testing.T) {
		r := rng.New(34, 34)
		g := ConvGeom{7, 9, 10, 5, 5, 2, 2, 1, 1} // kk = 25: channels start at rows 0, 25, ..., 150 of three strips
		o := 13
		kk, ckk, ohw, hw := 25, g.Rows(), g.Cols(), g.Height*g.Width
		w := randomSlice(r, o*ckk)
		dTop := randomSlice(r, o*ohw)
		s := &GemmScratch{}
		s.PackA(Trans, ckk, o, w, ckk)
		dX := randomSlice(r, g.Channels*hw)
		ConvBackwardData(s, NewConvPlan(g), o, dTop, dX, 0, g.Channels)

		dcol := make([]float32, ckk*ohw)
		GemmBlocked(Trans, NoTrans, ckk, ohw, o, 1, w, ckk, dTop, ohw, 0, dcol, ohw)
		want := make([]float32, g.Channels*hw)
		col2im(dcol, g, want)
		bitEqual(t, "dX vs full dcol + Col2im", dX, want)

		g1 := g
		g1.Channels = 1
		for c := 0; c < g.Channels; c++ {
			wc := make([]float32, o*kk)
			for oc := 0; oc < o; oc++ {
				copy(wc[oc*kk:(oc+1)*kk], w[oc*ckk+c*kk:])
			}
			s.PackA(Trans, kk, o, wc, kk)
			one := make([]float32, hw)
			ConvBackwardData(s, NewConvPlan(g1), o, dTop, one, 0, 1)
			bitEqual(t, fmt.Sprintf("channel %d alone", c), dX[c*hw:(c+1)*hw], one)
		}

		// A channel range of the full convolution (what a Fine band computes)
		// writes those channels' bits and leaves every other channel alone.
		for _, cr := range [][2]int{{0, 1}, {0, 3}, {2, 5}, {3, 7}, {6, 7}} {
			c0, c1 := cr[0], cr[1]
			s.PackA(Trans, (c1-c0)*kk, o, w[c0*kk:], ckk)
			got := randomSlice(r, g.Channels*hw)
			before := append([]float32(nil), got...)
			ConvBackwardData(s, NewConvPlan(g), o, dTop, got, c0, c1)
			bitEqual(t, fmt.Sprintf("channels [%d,%d)", c0, c1), got[c0*hw:c1*hw], dX[c0*hw:c1*hw])
			bitEqual(t, fmt.Sprintf("channels before %d", c0), got[:c0*hw], before[:c0*hw])
			bitEqual(t, fmt.Sprintf("channels from %d", c1), got[c1*hw:], before[c1*hw:])
		}
	}
	t.Run("active-kernel", check)
	t.Run("scalar-4x4", func(t *testing.T) { withScalarKernel(func() { check(t) }) })
}

// FuzzConv runs random convolution geometries through every route on both
// micro-kernels, with the naive per-entry lowering and scatter as the
// oracle's ends.
func FuzzConv(f *testing.F) {
	for _, g := range append(sweepGeoms()[:12], oddGeoms...) {
		f.Add(uint8(g.Channels), uint8(g.Height), uint8(g.Width), uint8(g.KernelH), uint8(g.KernelW),
			uint8(g.PadH), uint8(g.PadW), uint8(g.StrideH), uint8(g.StrideW), uint8(6), uint64(17))
	}
	f.Fuzz(func(t *testing.T, c, h, w, kh, kw, ph, pw, sh, sw, o8 uint8, seed uint64) {
		g := ConvGeom{1 + int(c%12), 1 + int(h%20), 1 + int(w%36), 1 + int(kh%7), 1 + int(kw%9),
			int(ph % 4), int(pw % 4), 1 + int(sh%3), 1 + int(sw%3)}
		if g.Height+2*g.PadH < g.KernelH || g.Width+2*g.PadW < g.KernelW {
			t.Skip("window larger than the padded image")
		}
		o := 1 + int(o8%70)
		check := func(kernel string) {
			r := rng.New(seed, 43)
			c := newConvCase(r, g, o, im2colNaive, col2imNaive)
			for route, p := range convRoutes(t, g) {
				c.check(t, r, kernel+" "+route, p)
			}
		}
		check("active")
		withScalarKernel(func() { check("scalar") })
	})
}

// TestConvPackedAMismatchPanics: a scratch whose packed A is not the
// weights the call needs must be refused, not multiplied.
func TestConvPackedAMismatchPanics(t *testing.T) {
	g := ConvGeom{2, 6, 6, 3, 3, 0, 0, 1, 1}
	s := &GemmScratch{}
	s.PackA(NoTrans, 4, g.Rows(), make([]float32, 4*g.Rows()), g.Rows())
	defer func() {
		if recover() == nil {
			t.Fatal("ConvBackwardData accepted a scratch packed for the forward pass")
		}
	}()
	ConvBackwardData(s, NewConvPlan(g), 4, make([]float32, 4*g.Cols()), make([]float32, 2*6*6), 0, 2)
}

// BenchmarkConvLowered times one sample's three conv products on the zoo
// nets' layers: the implicit GEMM with weights packed once ("implicit")
// against the sequence it replaced, with today's packers ("col":
// materialise col with Im2col, dense blocked Gemm packing both operands
// per call, separate bias pass, the whole dcol then Col2im). PERFORMANCE.md
// §10 and §11 record runs.
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
		plan := NewConvPlan(g)
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
			{"fwd/implicit", func() { s.PackA(NoTrans, o, ckk, w, ckk) }, func() { ConvForward(s, plan, o, im, bias, out) }},
			{"bwdW/col", func() {}, func() {
				im2col(im, g, col)
				gemmDense(s, NoTrans, Trans, ckk, ohw, 1, dTop, ohw, col, ohw, 1, wGrad, ckk, 0, o)
			}},
			{"bwdW/implicit", func() {}, func() { ConvBackwardWeights(s, plan, o, dTop, im, wGrad) }},
			{"bwdX/col", func() {}, func() {
				gemmDense(s, Trans, NoTrans, ohw, o, 1, w, ckk, dTop, ohw, 0, dcol, ohw, 0, ckk)
				col2im(dcol, g, inDiff)
			}},
			{"bwdX/implicit", func() { s.PackA(Trans, ckk, o, w, ckk) }, func() { ConvBackwardData(s, plan, o, dTop, inDiff, 0, g.Channels) }},
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
