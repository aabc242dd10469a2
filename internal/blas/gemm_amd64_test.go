package blas

import (
	"math"
	"strings"
	"testing"
)

// TestActiveKernelSet: init makes avx2 the active set iff the host runs
// AVX2+FMA; every set's nr and gw are the tile its micro-kernels compute,
// the gather-sum kernel's sum over two shifts included; and a ConvPlan,
// whose lane groups are the active set's gw wide, is refused under a set
// of another width.
func TestActiveKernelSet(t *testing.T) {
	if (active.name == avx2.name) != hasAVX2FMA() {
		t.Fatalf("active set is %s, host has AVX2+FMA: %v", active.name, hasAVX2FMA())
	}
	// One rank-1 step of A rows (1, 10, 100, 1000) — ap, or p at 0, 9, 99
	// and 999 — times B: lane (i, j) is 10^i times column j, at acc[i*nr+j].
	// A gathered B tile takes lane j from group j/gw, based at 0 or b1.
	ap, p := []float32{1, 10, 100, 1000}, make([]float32, 1000)
	for i := range p {
		p[i] = float32(i + 1)
	}
	const b1 = 32
	var acc [gemmMR * gemmNRMax]float32
	for _, ks := range kernelSets() {
		tile := func(kernel string, col func(j int) float32) {
			for i := range gemmMR {
				for j := range ks.nr {
					if want := ap[i] * col(j); acc[i*ks.nr+j] != want {
						t.Fatalf("%s %s: lane (%d, %d) = %v, want %v: its tile is not nr = %d, gw = %d", ks.name, kernel, i, j, acc[i*ks.nr+j], want, ks.nr, ks.gw)
					}
				}
			}
			acc = [gemmMR * gemmNRMax]float32{}
		}
		ks.microKernel(ap, p, 1, &acc)
		tile("microKernel", func(j int) float32 { return p[j] })
		ks.gatherKernel(ap, p, 0, b1, []int32{0}, &acc)
		tile("gatherKernel", func(j int) float32 { return p[j/ks.gw*b1+j%ks.gw] })
		ks.gatherAKernel(p, [gemmMR]int32{0, 9, 99, 999}, []int32{0}, p, &acc)
		tile("gatherAKernel", func(j int) float32 { return p[j] })
		// Two kernel positions, one step each: the first position's panel
		// is ap at shift 0, the second's is 3*ap at shift 200, so lane
		// (i, j) is ap[i] * (p[b+j] + 3*p[b+200+j]), b the lane's group
		// base — exact in float32, whichever order the sum runs in. acc
		// starts as NaN: the sum must start at +0, not from acc.
		twoPos := append(append([]float32(nil), ap...), 3, 30, 300, 3000)
		for i := range acc {
			acc[i] = float32(math.NaN())
		}
		ks.gatherSumKernel(twoPos, p, 0, b1, []int32{0}, []int32{0, 200}, &acc)
		tile("gatherSumKernel", func(j int) float32 {
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
