package blas

import (
	"fmt"
	"math"
	"strings"
	"testing"
)

// TestActiveKernelSet: init makes the best set the host runs active —
// avx512 iff it runs AVX-512F, else avx2 iff it runs AVX2+FMA — and
// KernelSet names it; every set's nr, gw and mb are the tiles its
// micro-kernels compute, the gather-sum kernel's sum over two shifts
// included, the backward kernels' tiles mb rows tall; and a ConvPlan,
// whose lane groups are the active set's gw wide, is refused under a set
// of another width.
func TestActiveKernelSet(t *testing.T) {
	want := portable.name
	switch {
	case hasAVX512F():
		want = avx512.name
	case hasAVX2FMA():
		want = avx2.name
	}
	if active.name != want || KernelSet() != want {
		t.Fatalf("active set is %s (KernelSet %q), host runs AVX2+FMA: %v, AVX-512F: %v", active.name, KernelSet(), hasAVX2FMA(), hasAVX512F())
	}
	if !hasAVX512F() {
		t.Log("host lacks AVX-512F (or the OS does not enable ZMM state): avx512 cases skipped")
	}
	// One rank-1 step of A rows a(i) times B: lane (i, j) is a(i) times
	// column j, at acc[i*nr+j]. ap holds rows 1, 10, 100, 1000 of the
	// forward kernels' tile; the gather-A kernel reads a(i) = p[rows[i]],
	// the gather-sum kernel quad q's rows from q quads of panels on. A
	// gathered B tile takes lane j from group j/gw, based at 0 or b1.
	ap, p := []float32{1, 10, 100, 1000}, make([]float32, 1000)
	for i := range p {
		p[i] = float32(i + 1)
	}
	rows := [gemmMBMax]int32{0, 9, 99, 999, 1, 19, 199, 998}
	const b1 = 32
	var acc [gemmMBMax * gemmNRMax]float32
	for _, ks := range kernelSets() {
		tile := func(kernel string, mr int, a func(i int) float32, col func(j int) float32) {
			for i := range mr {
				for j := range ks.nr {
					if want := a(i) * col(j); acc[i*ks.nr+j] != want {
						t.Fatalf("%s %s: lane (%d, %d) = %v, want %v: its tile is not %d x nr = %d, gw = %d", ks.name, kernel, i, j, acc[i*ks.nr+j], want, mr, ks.nr, ks.gw)
					}
				}
			}
			acc = [gemmMBMax * gemmNRMax]float32{}
		}
		fwdA := func(i int) float32 { return ap[i] }
		ks.microKernel(ap, p, 1, &acc)
		tile("microKernel", gemmMR, fwdA, func(j int) float32 { return p[j] })
		ks.gatherKernel(ap, p, 0, b1, []int32{0}, &acc)
		tile("gatherKernel", gemmMR, fwdA, func(j int) float32 { return p[j/ks.gw*b1+j%ks.gw] })
		ks.gatherAKernel(p, rows, []int32{0}, p, &acc)
		tile("gatherAKernel", ks.mb, func(i int) float32 { return p[rows[i]] }, func(j int) float32 { return p[j] })
		// Two kernel positions, one step each: quad q's first position's
		// panel is 10^(4q)·ap at shift 0, its second's three times that at
		// shift 200, so lane (i, j) is a(i) * (p[b+j] + 3*p[b+200+j]), b
		// the lane's group base — exact in float32, whichever order the sum
		// runs in. acc starts as NaN: the sum must start at +0, not from acc.
		var panels []float32
		for q := range ks.mb / gemmMR {
			for _, f := range []float32{1, 3} {
				for _, v := range ap {
					panels = append(panels, f*v*float32(math.Pow10(4*q)))
				}
			}
		}
		for i := range acc {
			acc[i] = float32(math.NaN())
		}
		ks.gatherSumKernel(panels, p, 0, b1, []int32{0}, []int32{0, 200}, &acc)
		tile("gatherSumKernel", ks.mb, func(i int) float32 { return panels[i/gemmMR*2*gemmMR+i%gemmMR] }, func(j int) float32 {
			b := j/ks.gw*b1 + j%ks.gw
			return p[b] + 3*p[b+200]
		})
	}

	if active.gw == portable.gw {
		t.Skip("no avx2 kernel set on this host: one lane width, no plan to mismatch")
	}
	var plan *ConvPlan
	withKernels(portable, func() { plan = NewConvPlan(ConvGeom{2, 6, 6, 3, 3, 0, 0, 1, 1}) })
	msg := panicMessage(func() {
		ConvBackwardWeights(&GemmScratch{}, plan, 1, make([]float32, plan.Cols()), make([]float32, 2*6*6), make([]float32, plan.Rows()))
	})
	if !strings.Contains(msg, "lane groups") {
		t.Errorf("a ConvPlan built under portable ran under %s (recovered %q)", active.name, msg)
	}
}

// TestAVX512MatchesAVX2 holds the avx512 set to avx2's bits on the two
// products whose kernels it replaces: ConvBackwardWeights (the gather-A
// kernel) and ConvBackwardData on both routes (the gathered one on the
// gather-sum kernel, the strips on the shared micro-kernel), whole and on
// channel ranges that start and end off a multiple of eight. The table
// crosses O ∈ {1, 15, 20, 33, 50, 64} with channel counts that are not a
// multiple of eight, output images past gemmKC pixels (dW's K in two or
// more blocks), and operands in which every third float is ±0, a
// subnormal, ±Inf or a NaN with a payload, so that an FMA or add with
// its operands in another order shows.
func TestAVX512MatchesAVX2(t *testing.T) {
	if !hasAVX512F() {
		t.Skip("host lacks AVX-512F (or the OS does not enable ZMM state): the avx512 set cannot run here")
	}
	r := newPCG(57, 57)
	geoms := []ConvGeom{
		{3, 32, 32, 5, 5, 2, 2, 1, 1},  // CIFAR conv1: C = 3, ohw = 1024
		{13, 16, 16, 5, 5, 2, 2, 1, 1}, // ohw = 256: exactly one KC block
		{20, 12, 12, 5, 5, 0, 0, 1, 1}, // LeNet conv2: ckk = 500, dX in strips by rule
		{7, 9, 10, 5, 5, 2, 2, 1, 1},   // C = 7: one quad and a ragged one
		{5, 17, 17, 3, 3, 1, 1, 1, 1},  // ohw = 289: K just past a block
		{12, 8, 8, 3, 3, 1, 1, 1, 1},   // C = 12: one 8-row tile and a quad
		{2, 13, 40, 3, 9, 0, 1, 1, 3},  // stride 3: dX in strips only
	}
	for _, g := range geoms {
		for _, o := range []int{1, 15, 20, 33, 50, 64} {
			name := fmt.Sprintf("%s_o%d", geomName(g), o)
			ckk, ohw, chw := g.Rows(), g.Cols(), g.Channels*g.Height*g.Width
			im, dTop, w := specialSlice(r, chw), specialSlice(r, o*ohw), specialSlice(r, o*ckk)
			w0 := specialSlice(r, o*ckk)
			run := func(ks kernels) (dW []float32, dX map[string][]float32) {
				dX = map[string][]float32{}
				withKernels(ks, func() {
					s := poisonedScratch()
					dW = append([]float32(nil), w0...)
					ConvBackwardWeights(s, NewConvPlan(g), o, dTop, im, dW)
					for _, route := range []ConvRoute{{}, {DXGather: true}} {
						p := NewConvPlanForced(g, route)
						for _, cr := range [][2]int{{0, g.Channels}, {1, g.Channels}, {0, max(1, g.Channels-3)}} {
							out := make([]float32, chw)
							s.PackBackwardData(p, o, w, cr[0], cr[1])
							ConvBackwardData(s, p, o, dTop, out, cr[0], cr[1])
							dX[fmt.Sprintf("dX gathers=%v channels [%d,%d)", p.dataGathers(o), cr[0], cr[1])] = out
						}
					}
				})
				return dW, dX
			}
			wantW, wantX := run(avx2)
			gotW, gotX := run(avx512)
			sameBits(t, name+" dW", gotW, wantW)
			for what, want := range wantX {
				sameBits(t, name+" "+what, gotX[what], want)
			}
		}
	}
}
