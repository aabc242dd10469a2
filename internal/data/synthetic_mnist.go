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
// deterministic per-sample jitter, thickness and noise.
func (d *SyntheticMNIST) Read(i int, out []float32) int {
	r := rng.Seeded(d.seed, uint64(i)+1)
	label := i % 10
	for p := range out {
		out[p] = 0
	}
	// Random placement/scaling of the 5x7 glyph inside the 28x28 canvas.
	cellW := 3 + r.Intn(2) // 3..4 pixels per glyph cell horizontally
	cellH := 3 + r.Intn(2)
	gw, gh := 5*cellW, 7*cellH
	ox := (28-gw)/2 + r.Intn(5) - 2
	oy := (28-gh)/2 + r.Intn(5) - 2
	ink := 0.75 + 0.25*r.Float32()
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
						out[y*28+x] = ink
					}
				}
			}
		}
	}
	// Additive pixel noise, clamped to [0, 1].
	for p := range out {
		v := out[p] + 0.08*r.NormFloat32()
		if v < 0 {
			v = 0
		} else if v > 1 {
			v = 1
		}
		out[p] = v
	}
	return label
}
