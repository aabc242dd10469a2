package data

import (
	"coarsegrain/internal/layers"
	"coarsegrain/internal/rng"
)

// digitGlyphs is a 5x7 bitmap font for the digits 0-9. Each string row is
// 5 cells; '#' marks ink. The glyphs are distinct enough that a LeNet-style
// network separates the rendered classes easily, while jitter, scaling and
// noise keep the task non-trivial.
var digitGlyphs = [10][7]string{
	{" ### ", "#   #", "#  ##", "# # #", "##  #", "#   #", " ### "}, // 0
	{"  #  ", " ##  ", "  #  ", "  #  ", "  #  ", "  #  ", " ### "}, // 1
	{" ### ", "#   #", "    #", "  ## ", " #   ", "#    ", "#####"}, // 2
	{" ### ", "#   #", "    #", "  ## ", "    #", "#   #", " ### "}, // 3
	{"   # ", "  ## ", " # # ", "#  # ", "#####", "   # ", "   # "}, // 4
	{"#####", "#    ", "#### ", "    #", "    #", "#   #", " ### "}, // 5
	{" ### ", "#    ", "#    ", "#### ", "#   #", "#   #", " ### "}, // 6
	{"#####", "    #", "   # ", "  #  ", "  #  ", "  #  ", "  #  "}, // 7
	{" ### ", "#   #", "#   #", " ### ", "#   #", "#   #", " ### "}, // 8
	{" ### ", "#   #", "#   #", " ####", "    #", "    #", " ### "}, // 9
}

// SyntheticMNIST generates MNIST-shaped samples (1x28x28, values in
// [0, 1], 10 classes) on the fly. Sample i is a pure function of (seed, i),
// so Read is safe for concurrent use and the dataset needs no storage.
type SyntheticMNIST struct {
	seed uint64
	n    int
}

var _ layers.Source = (*SyntheticMNIST)(nil)

// NewSyntheticMNIST creates a generator of n samples.
func NewSyntheticMNIST(n int, seed uint64) *SyntheticMNIST {
	return &SyntheticMNIST{seed: seed, n: n}
}

// Len implements layers.Source.
func (d *SyntheticMNIST) Len() int { return d.n }

// SampleShape implements layers.Source.
func (d *SyntheticMNIST) SampleShape() []int { return []int{1, 28, 28} }

// Classes implements layers.Source.
func (d *SyntheticMNIST) Classes() int { return 10 }

// Read implements layers.Source: renders digit (i mod 10) with
// deterministic per-sample jitter, thickness and noise. Pixel p is
// clamp(base + 0.08*n_p), base the glyph's ink where the glyph covers p and
// 0 elsewhere, n_p the stream's p-th normal after the glyph's draws. The
// normals are drawn in one batch straight into out (a stack buffer would
// escape through the draw's kernel call) and the glyph, marked in a bitmap
// first, is added in place.
func (d *SyntheticMNIST) Read(i int, out []float32) int {
	r := rng.Seeded(d.seed, uint64(i)+1)
	label := i % 10
	// Random placement/scaling of the 5x7 glyph inside the 28x28 canvas.
	cellW := 3 + r.Intn(2) // 3..4 pixels per glyph cell horizontally
	cellH := 3 + r.Intn(2)
	gw, gh := 5*cellW, 7*cellH
	ox := (28-gw)/2 + r.Intn(5) - 2
	oy := (28-gh)/2 + r.Intn(5) - 2
	ink := 0.75 + 0.25*r.Float32()
	var inked [28]uint32 // bit x of row y: the glyph covers pixel (x, y)
	glyph := &digitGlyphs[label]
	for gy := 0; gy < 7; gy++ {
		row := glyph[gy]
		for gx := 0; gx < 5; gx++ {
			if row[gx] != '#' {
				continue
			}
			for dy := 0; dy < cellH; dy++ {
				for dx := 0; dx < cellW; dx++ {
					x, y := ox+gx*cellW+dx, oy+gy*cellH+dy
					if x >= 0 && x < 28 && y >= 0 && y < 28 {
						inked[y] |= 1 << x
					}
				}
			}
		}
	}
	// Additive pixel noise, clamped to [0, 1]. base + 0.08*n is never -0,
	// the one value max(v, 0) keeps apart from v < 0 ? 0 : v.
	r.NormFloat32s(out)
	for y, bits := range inked {
		px := out[y*28 : y*28+28]
		for x, n := range px {
			var base float32
			if bits>>x&1 != 0 {
				base = ink
			}
			px[x] = min(max(base+0.08*n, 0), 1)
		}
	}
	return label
}
