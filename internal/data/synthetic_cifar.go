package data

import (
	"math"

	"coarsegrain/internal/layers"
	"coarsegrain/internal/rng"
)

// SyntheticCIFAR generates CIFAR-10-shaped samples (3x32x32, values in
// [0, 1], 10 classes). Each class is a distinct procedural texture — a
// class-specific base color plus a class-specific spatial pattern
// (orientation/frequency of a sinusoidal grating, radial rings or a
// checkerboard) — with per-sample phase, contrast and noise. The classes
// are separable by a small CNN but not by color alone.
type SyntheticCIFAR struct {
	seed uint64
	n    int
}

var _ layers.Source = (*SyntheticCIFAR)(nil)

// NewSyntheticCIFAR creates a generator of n samples.
func NewSyntheticCIFAR(n int, seed uint64) *SyntheticCIFAR {
	return &SyntheticCIFAR{seed: seed, n: n}
}

// Len implements layers.Source.
func (d *SyntheticCIFAR) Len() int { return d.n }

// SampleShape implements layers.Source.
func (d *SyntheticCIFAR) SampleShape() []int { return []int{3, 32, 32} }

// Classes implements layers.Source.
func (d *SyntheticCIFAR) Classes() int { return 10 }

// classBase holds the per-class texture parameters: base RGB and pattern.
var cifarClasses = [10]struct {
	r, g, b float32
	pattern int     // 0 grating, 1 rings, 2 checker
	angle   float64 // grating orientation
	freq    float64 // spatial frequency
}{
	{0.55, 0.65, 0.90, 0, 0.0, 0.35},             // airplane: sky-blue horizontal grating
	{0.55, 0.55, 0.60, 0, math.Pi / 2, 0.55},     // automobile: gray vertical grating
	{0.45, 0.70, 0.45, 1, 0, 0.45},               // bird: green rings
	{0.75, 0.60, 0.40, 2, 0, 0.30},               // cat: tan coarse checker
	{0.55, 0.45, 0.30, 0, math.Pi / 4, 0.50},     // deer: brown diagonal grating
	{0.65, 0.55, 0.45, 2, 0, 0.55},               // dog: warm fine checker
	{0.35, 0.65, 0.35, 1, 0, 0.75},               // frog: green dense rings
	{0.60, 0.50, 0.40, 0, 3 * math.Pi / 4, 0.40}, // horse: anti-diagonal grating
	{0.40, 0.55, 0.80, 1, 0, 0.25},               // ship: blue wide rings
	{0.70, 0.35, 0.35, 0, math.Pi / 2, 0.25},     // truck: red wide vertical grating
}

// Read implements layers.Source.
func (d *SyntheticCIFAR) Read(i int, out []float32) int {
	r := rng.Seeded(d.seed, uint64(i)+1)
	label := i % 10
	c := &cifarClasses[label]

	phase := 2 * math.Pi * r.Float64()
	contrast := 0.25 + 0.2*r.Float64()
	cx := 16 + 6*(r.Float64()-0.5)
	cy := 16 + 6*(r.Float64()-0.5)
	cosA, sinA := math.Cos(c.angle), math.Sin(c.angle)

	for y := 0; y < 32; y++ {
		for x := 0; x < 32; x++ {
			var t float64
			switch c.pattern {
			case 0: // oriented sinusoidal grating
				u := float64(x)*cosA + float64(y)*sinA
				t = math.Sin(u*c.freq*2 + phase)
			case 1: // concentric rings
				dx, dy := float64(x)-cx, float64(y)-cy
				t = math.Sin(math.Sqrt(dx*dx+dy*dy)*c.freq*2 + phase)
			case 2: // checkerboard
				period := int(math.Round(3 / c.freq))
				if period < 2 {
					period = 2
				}
				if ((x/period)+(y/period))%2 == 0 {
					t = 1
				} else {
					t = -1
				}
			}
			mod := float32(contrast * t)
			idx := y*32 + x
			out[0*1024+idx] = clamp01(c.r + mod + 0.06*r.NormFloat32())
			out[1*1024+idx] = clamp01(c.g + mod + 0.06*r.NormFloat32())
			out[2*1024+idx] = clamp01(c.b + mod + 0.06*r.NormFloat32())
		}
	}
	return label
}

func clamp01(v float32) float32 {
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}
