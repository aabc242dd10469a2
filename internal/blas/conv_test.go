package blas

import (
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"
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

// TestIm2colCol2imMatchNaive pins the run-clipping lowering (contiguous
// copy / accumulate at stride 1, strided runs otherwise) bitwise to the
// per-entry bounds-tested loops it replaced.
func TestIm2colCol2imMatchNaive(t *testing.T) {
	check := func(t *testing.T) {
		r := newPCG(31, 31)
		for _, g := range append(sweepGeoms(), oddGeoms...) {
			im := randomSlice(r, g.Channels*g.Height*g.Width)
			got := randomSlice(r, g.Rows()*g.Cols()) // garbage: every entry must be written
			want := make([]float32, len(got))
			im2col(im, g, got)
			im2colNaive(im, g, want)
			sameBits(t, geomName(g)+" Im2col", got, want)

			col := randomSlice(r, g.Rows()*g.Cols())
			gotIm := append([]float32(nil), im...) // Col2im accumulates into what is there
			wantIm := append([]float32(nil), im...)
			col2im(col, g, gotIm)
			col2imNaive(col, g, wantIm)
			sameBits(t, geomName(g)+" Col2im", gotIm, wantIm)
		}
	}
	forEachSet(t, check)
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
		ConvGeom{3, 17, 17, 5, 5, 2, 2, 2, 2}, // stride 2: forward packs, dW reads col through its pixel table
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
// naive loop), on the micro-kernels of the set active when the case is
// built but with the Go data movement (goMovement), so a check under that
// set holds its vector data movement to the Go loops too.
type convCase struct {
	g                                 ConvGeom
	o                                 int
	im, w, bias, dTop, w0             []float32
	wantOut, wantBiased, wantW, wantX []float32
}

func newConvCase(r *pcg, g ConvGeom, o int, lower, scatter func([]float32, ConvGeom, []float32)) *convCase {
	ckk, ohw := g.Rows(), g.Cols()
	c := &convCase{g: g, o: o,
		im: randomSlice(r, g.Channels*g.Height*g.Width), w: randomSlice(r, o*ckk), bias: randomSlice(r, o),
		dTop: randomSlice(r, o*ohw), w0: randomSlice(r, o*ckk)}
	col := make([]float32, ckk*ohw)
	lower(c.im, g, col)
	c.wantOut = make([]float32, o*ohw)
	c.wantW = append([]float32(nil), c.w0...) // dW accumulates into what is there
	dcol := make([]float32, ckk*ohw)
	withKernels(goMovement(active), func() {
		Gemm(NoTrans, NoTrans, o, ohw, ckk, 1, c.w, ckk, col, ohw, 0, c.wantOut, ohw)
		Gemm(NoTrans, Trans, o, ckk, ohw, 1, c.dTop, ohw, col, ohw, 1, c.wantW, ckk)
		Gemm(Trans, NoTrans, ckk, ohw, o, 1, c.w, ckk, c.dTop, ohw, 0, dcol, ohw)
	})
	c.wantBiased = append([]float32(nil), c.wantOut...)
	for oc := 0; oc < o; oc++ {
		AddScalar(c.wantBiased[oc*ohw:(oc+1)*ohw], c.bias[oc])
	}
	c.wantX = make([]float32, len(c.im))
	scatter(dcol, g, c.wantX)
	return c
}

// check runs the case on plan p. The scratch's bordered image is
// NaN-poisoned, so a border left unwritten or a slack lane that reaches C
// fails the comparison; the outputs start as garbage, so must be written.
func (c *convCase) check(t *testing.T, r *pcg, name string, p *ConvPlan) {
	t.Helper()
	o, ckk, ohw := c.o, c.g.Rows(), c.g.Cols()
	name = fmt.Sprintf("%s_o%d %s", geomName(c.g), o, name)
	s := poisonedScratch()
	s.PackA(NoTrans, o, ckk, c.w, ckk)
	got := randomSlice(r, o*ohw)
	ConvForward(s, p, o, c.im, nil, got)
	sameBits(t, name+" forward", got, c.wantOut)
	ConvForward(s, p, o, c.im, c.bias, got)
	sameBits(t, name+" forward+bias", got, c.wantBiased)

	gotW := append([]float32(nil), c.w0...)
	ConvBackwardWeights(s, p, o, c.dTop, c.im, gotW)
	sameBits(t, name+" dW", gotW, c.wantW)
	// A band of output channels [olo, ohi) is a band of the transposed
	// product's columns, cut off a 16-lane boundary: the full product's
	// rows, and nothing else written.
	if olo, ohi := o/3, o-o/4; olo < ohi && (olo%16 != 0 || ohi%16 != 0) {
		band := append([]float32(nil), c.w0...)
		ConvBackwardWeights(s, p, ohi-olo, c.dTop[olo*ohw:], c.im, band[olo*ckk:ohi*ckk])
		sameBits(t, fmt.Sprintf("%s dW channels [%d,%d)", name, olo, ohi), band[olo*ckk:ohi*ckk], c.wantW[olo*ckk:ohi*ckk])
		sameBits(t, name+" dW outside the band", band[:olo*ckk], c.w0[:olo*ckk])
		sameBits(t, name+" dW outside the band", band[ohi*ckk:], c.w0[ohi*ckk:])
	}

	// dX borders dTop into a freshly poisoned scratch: what the forward
	// and dW left in the buffer must not stand in for a border.
	s = poisonedScratch()
	gotX := randomSlice(r, len(c.im))
	s.PackBackwardData(p, o, c.w, 0, c.g.Channels)
	ConvBackwardData(s, p, o, c.dTop, gotX, 0, c.g.Channels)
	sameBits(t, name+" dX", gotX, c.wantX)
}

// convRoutes returns g's plan on the routes ConvGathers and
// ConvDataGathers pick, and with every product's route forced each way:
// "gather" gathers the forward and dX wherever they can, "packed" packs
// the forward's panels and runs dX in strips. dW takes its one route
// under each.
func convRoutes(t *testing.T, g ConvGeom) map[string]*ConvPlan {
	t.Helper()
	gather := NewConvPlanForced(g, ConvRoute{FwdGather: true, DXGather: true})
	packed := NewConvPlanForced(g, ConvRoute{})
	if (gather.fwd != nil) != (g.StrideW == 1) {
		t.Fatalf("%s: forced gather plan gathers fwd=%v", geomName(g), gather.fwd != nil)
	}
	// dX gathers at stride 1 with a non-negative dTop border, never past it.
	if dxLegal := g.StrideH == 1 && g.StrideW == 1 && g.PadH < g.KernelH && g.PadW < g.KernelW; (gather.dx != nil) != dxLegal {
		t.Fatalf("%s: forced gather plan gathers dX=%v", geomName(g), gather.dx != nil)
	}
	if packed.fwd != nil || packed.dx != nil {
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
// swept geometry, with and without bias, on every kernel set, and on
// both routes of each product that has two — the forward's B operand
// gathered and packed, dX gathered and in strips, each forced, beside the
// ones ConvGathers and ConvDataGathers pick. dW, the transposed product
// dWᵀ = col·dTopᵀ, must equal the untransposed dense Gemm dTop·colᵀ, and
// a band of its output channels the full product's rows. At O > gemmKC
// dX's chains span two K blocks, so it stays in strips on every plan.
func TestConvMatchesIm2colGemm(t *testing.T) {
	check := func(t *testing.T) {
		r := newPCG(32, 32)
		for _, g := range append(sweepGeoms(), oddGeoms...) {
			for _, o := range []int{1, 6, 20, 67} { // below, across and past one 16-lane panel and one MC block
				c := newConvCase(r, g, o, im2col, col2im)
				for route, p := range convRoutes(t, g) {
					c.check(t, r, route, p)
				}
			}
		}
		g, o := ConvGeom{2, 6, 6, 3, 3, 1, 1, 1, 1}, gemmKC+4
		c := newConvCase(r, g, o, im2col, col2im)
		for route, p := range convRoutes(t, g) {
			if p.dataGathers(o) || ConvDataGathers(g, o) {
				t.Fatalf("%s %s: dX gathers at O = %d > gemmKC", geomName(g), route, o)
			}
			c.check(t, r, route, p)
		}
	}
	forEachSet(t, check)
}

// TestConvGatherTablesStayInsideBorder: every float the forward gather
// kernel can touch — group base + step + a full lane group — lies inside
// the bordered copy plus its one group of slack, on every set's lane
// width; every float the dW gather-A kernel touches — row base + pixel
// step, a single float — inside the bordered copy itself; and every float
// the dX gather-sum kernel touches — group base + position shift + dTop
// channel step + a full lane group — inside the bordered dTop plus its
// slack, at every O up to gemmKC, while its groups cover each dX row.
func TestConvGatherTablesStayInsideBorder(t *testing.T) {
	forEachSet(t, func(t *testing.T) {
		for _, g := range append(sweepGeoms(), oddGeoms...) {
			p := NewConvPlanForced(g, ConvRoute{FwdGather: true, DXGather: true})
			if p.dx != nil {
				if len(p.shifts) != g.KernelH*g.KernelW || len(p.dx.steps) != gemmKC {
					t.Fatalf("%s dX: %d shifts, %d steps", geomName(g), len(p.shifts), len(p.dx.steps))
				}
				checkGroups(t, geomName(g)+" dX", p.dx.groups, g.Height*g.Width, p.gw)
				hdwd := (g.Height + g.KernelH - 1) * (g.Width + g.KernelW - 1)
				if p.dcs < hdwd || int(p.dx.steps[1]) != p.dcs {
					t.Fatalf("%s dX: channel stride %d (steps %d) under a %d-float bordered channel", geomName(g), p.dcs, p.dx.steps[1], hdwd)
				}
				reach := int(maxGroupBase(p.dx.groups)+slices.Max(p.shifts)) + p.gw
				for _, o := range []int{1, 2, 67, gemmKC} {
					if r, size := reach+int(p.dx.steps[o-1]), (o-1)*p.dcs+hdwd; r > size+p.gw {
						t.Errorf("%s dX o=%d: kernel reads up to %d, bordered dTop + slack is %d", geomName(g), o, r, size+p.gw)
					}
				}
			}
			size := g.Channels * p.hp * p.wp
			if len(p.lowered.rows) != g.Rows() || len(p.lowered.steps) != g.Cols() {
				t.Fatalf("%s dW: %d row bases and %d steps for a %dx%d col", geomName(g), len(p.lowered.rows), len(p.lowered.steps), g.Rows(), g.Cols())
			}
			if reach := int(slices.Max(p.lowered.rows) + slices.Max(p.lowered.steps)); reach >= size {
				t.Errorf("%s dW: gather-A kernel reads float %d, bordered copy is %d", geomName(g), reach, size)
			}
			if p.fwd == nil {
				continue
			}
			checkGroups(t, geomName(g)+" fwd", p.fwd.groups, g.Cols(), p.gw)
			if reach := int(maxGroupBase(p.fwd.groups)+slices.Max(p.fwd.steps)) + p.gw; reach > size+p.gw {
				t.Errorf("%s fwd: kernel reads up to %d, bordered copy + slack is %d", geomName(g), reach, size+p.gw)
			}
		}
	})
}

// checkGroups fails unless groups cover columns [0, cols) in order, each
// 1 to gw lanes.
func checkGroups(t *testing.T, what string, groups []laneGroup, cols, gw int) {
	t.Helper()
	n := 0
	for _, lg := range groups {
		if int(lg.col) != n || lg.n < 1 || int(lg.n) > gw {
			t.Fatalf("%s: group %+v does not continue the columns at %d", what, lg, n)
		}
		n += int(lg.n)
	}
	if n != cols {
		t.Fatalf("%s: groups cover %d columns of %d", what, n, cols)
	}
}

func maxGroupBase(groups []laneGroup) int32 {
	var m int32
	for _, lg := range groups {
		m = max(m, lg.base)
	}
	return m
}

// TestConvBackwardDataStripInvariant: dX does not depend on where the
// strips are cut, nor on which channels a call computes. gemmMC is a
// constant, so the cut is moved by growing the product instead: a
// convolution over C channels scatters channel c from rows [c*kk,
// (c+1)*kk) of dcol only, so its dX on a channel must equal the dX of the
// single-channel convolution with that channel's weights, whose strips
// start at row 0 rather than wherever c*kk falls in a 64-row strip — and
// both must equal the full dcol of the blocked Gemm, scattered by Col2im.
// The same holds on the gathered route, where a range's tiles of four
// channels start at c0 rather than at a multiple of four; and a channel
// range of either route writes those channels' bits and nothing else.
func TestConvBackwardDataStripInvariant(t *testing.T) {
	check := func(t *testing.T) {
		r := newPCG(34, 34)
		g := ConvGeom{7, 9, 10, 5, 5, 2, 2, 1, 1} // kk = 25: channels start at rows 0, 25, ..., 150 of three strips
		o := 13
		kk, ckk, ohw, hw := 25, g.Rows(), g.Cols(), g.Height*g.Width
		w := randomSlice(r, o*ckk)
		dTop := randomSlice(r, o*ohw)
		dcol := make([]float32, ckk*ohw)
		Gemm(Trans, NoTrans, ckk, ohw, o, 1, w, ckk, dTop, ohw, 0, dcol, ohw)
		want := make([]float32, g.Channels*hw)
		col2im(dcol, g, want)

		g1 := g
		g1.Channels = 1
		for _, route := range []ConvRoute{{}, {DXGather: true}} {
			p, p1 := NewConvPlanForced(g, route), NewConvPlanForced(g1, route)
			name := map[bool]string{false: "strips", true: "gather"}[route.DXGather]
			if p.dataGathers(o) != route.DXGather {
				t.Fatalf("%s: dX gathers = %v", name, p.dataGathers(o))
			}
			s := poisonedScratch()
			s.PackBackwardData(p, o, w, 0, g.Channels)
			dX := randomSlice(r, g.Channels*hw)
			ConvBackwardData(s, p, o, dTop, dX, 0, g.Channels)
			sameBits(t, name+" dX vs full dcol + Col2im", dX, want)

			for c := 0; c < g.Channels; c++ {
				wc := make([]float32, o*kk)
				for oc := 0; oc < o; oc++ {
					copy(wc[oc*kk:(oc+1)*kk], w[oc*ckk+c*kk:])
				}
				s.PackBackwardData(p1, o, wc, 0, 1)
				one := randomSlice(r, hw)
				ConvBackwardData(s, p1, o, dTop, one, 0, 1)
				sameBits(t, fmt.Sprintf("%s channel %d alone", name, c), dX[c*hw:(c+1)*hw], one)
			}

			// A channel range of the full convolution (what a Fine band
			// computes) writes those channels' bits and leaves every other
			// channel alone.
			for _, cr := range [][2]int{{0, 1}, {0, 3}, {2, 5}, {3, 7}, {6, 7}, {1, 6}} {
				c0, c1 := cr[0], cr[1]
				s.PackBackwardData(p, o, w, c0, c1)
				got := randomSlice(r, g.Channels*hw)
				before := append([]float32(nil), got...)
				ConvBackwardData(s, p, o, dTop, got, c0, c1)
				sameBits(t, fmt.Sprintf("%s channels [%d,%d)", name, c0, c1), got[c0*hw:c1*hw], dX[c0*hw:c1*hw])
				sameBits(t, fmt.Sprintf("%s channels before %d", name, c0), got[:c0*hw], before[:c0*hw])
				sameBits(t, fmt.Sprintf("%s channels from %d", name, c1), got[c1*hw:], before[c1*hw:])
			}
		}
	}
	forEachSet(t, check)
}

// FuzzConv runs random convolution geometries through every route on
// every kernel set — the forward gathered and packed, dW as the transposed
// product col·dTopᵀ with col gathered on its A side, whole and in a band
// of output channels, dX gathered (wherever the geometry allows it) and in
// strips — with the naive per-entry lowering and scatter as the oracle's
// ends and the set's micro-kernels with the Go data movement between them,
// so a set's vector data movement (packers and both writebacks, the
// transposed one included) must agree with the Go loops bit for bit.
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
		for _, ks := range kernelSets() {
			withKernels(ks, func() {
				r := newPCG(seed, 43)
				c := newConvCase(r, g, o, im2colNaive, col2imNaive)
				for route, p := range convRoutes(t, g) {
					c.check(t, r, ks.name+" "+route, p)
				}
			})
		}
	})
}

// TestConvPackedAMismatchPanics: a scratch whose packed weights are not
// the ones the call needs must be refused, not multiplied: weights packed
// for the forward pass, and weights packed for one dX route run on the
// other — strips on a gathering plan and the reverse.
func TestConvPackedAMismatchPanics(t *testing.T) {
	g, o := ConvGeom{2, 6, 6, 3, 3, 1, 1, 1, 1}, 4
	w, dTop, dX := make([]float32, o*g.Rows()), make([]float32, o*g.Cols()), make([]float32, 2*6*6)
	gather, strips := NewConvPlanForced(g, ConvRoute{DXGather: true}), NewConvPlanForced(g, ConvRoute{})
	for _, c := range []struct {
		name        string
		packed, ran *ConvPlan
	}{{"strips on a gathering plan", strips, gather}, {"gathered on a strips plan", gather, strips}} {
		s := &GemmScratch{}
		s.PackBackwardData(c.packed, o, w, 0, 2)
		if msg := panicMessage(func() { ConvBackwardData(s, c.ran, o, dTop, dX, 0, 2) }); !strings.Contains(msg, "pack first") {
			t.Errorf("ConvBackwardData accepted weights packed %s (recovered %q)", c.name, msg)
		}
	}
	s := &GemmScratch{}
	s.PackA(NoTrans, o, g.Rows(), w, g.Rows())
	if msg := panicMessage(func() { ConvBackwardData(s, strips, o, dTop, dX, 0, 2) }); !strings.Contains(msg, "pack first") {
		t.Errorf("ConvBackwardData accepted a scratch packed for the forward pass (recovered %q)", msg)
	}
}

// zooConvs are the zoo nets' convolutions: per-sample geometry and output
// channels.
var zooConvs = []struct {
	name string
	g    ConvGeom
	o    int
}{
	{"lenet-conv1", ConvGeom{1, 28, 28, 5, 5, 0, 0, 1, 1}, 20},
	{"lenet-conv2", ConvGeom{20, 12, 12, 5, 5, 0, 0, 1, 1}, 50},
	{"cifar-conv1", ConvGeom{3, 32, 32, 5, 5, 2, 2, 1, 1}, 32},
	{"cifar-conv2", ConvGeom{32, 16, 16, 5, 5, 2, 2, 1, 1}, 32},
	{"cifar-conv3", ConvGeom{32, 8, 8, 5, 5, 2, 2, 1, 1}, 64},
}

// BenchmarkConvLowered times one sample's three conv products on the zoo
// nets' layers: the implicit GEMM with weights packed once ("implicit";
// dX's two routes forced, "strips" and "gather") against the sequence it
// replaced, with today's packers ("col": materialise col with Im2col,
// dense blocked Gemm packing both operands per call, separate bias pass,
// the whole dcol then Col2im). The implicit rows run on every kernel set
// the host has (set=NAME). Each row reports GFLOP/s of the product's
// 2·O·ckk·ohw flops. PERFORMANCE.md §10, §11, §15, §16 and §19 record
// runs.
func BenchmarkConvLowered(b *testing.B) {
	r := newPCG(33, 33)
	for _, l := range zooConvs {
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
		var plan, strips, gather *ConvPlan // built under the set a row runs on: their lane groups are its
		flops := float64(2 * o * ckk * ohw)
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
			{"bwdX/strips", func() { s.PackBackwardData(strips, o, w, 0, g.Channels) }, func() { ConvBackwardData(s, strips, o, dTop, inDiff, 0, g.Channels) }},
			{"bwdX/gather", func() { s.PackBackwardData(gather, o, w, 0, g.Channels) }, func() { ConvBackwardData(s, gather, o, dTop, inDiff, 0, g.Channels) }},
		} {
			col, sets := strings.HasSuffix(bm.name, "/col"), hostSets()
			if col {
				sets = []kernels{active}
			}
			for _, ks := range sets {
				name := l.name + "/" + bm.name
				if !col {
					name += "/set=" + ks.name
				}
				b.Run(name, func(b *testing.B) {
					withKernels(ks, func() {
						plan = NewConvPlan(g)
						strips, gather = NewConvPlanForced(g, ConvRoute{FwdGather: true}), NewConvPlanForced(g, ConvRoute{FwdGather: true, DXGather: true})
						bm.prep()
						b.ResetTimer()
						for i := 0; i < b.N; i++ {
							bm.f()
						}
						b.ReportMetric(flops*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFLOP/s")
					})
				})
			}
		}
	}
}
