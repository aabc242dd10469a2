// Package rng provides a small, deterministic, splittable pseudo-random
// number generator used everywhere in the library where reproducibility
// matters: weight initialization, synthetic dataset generation, dropout
// masks and data shuffling.
//
// The generator is PCG-XSH-RR 64/32 (O'Neill, 2014). It is deliberately
// independent from math/rand so that streams are stable across Go releases
// and so that every component can own a private, seeded stream ("share by
// communicating" — no global RNG state is shared between goroutines).
package rng

import (
	"math"

	"coarsegrain/internal/blas"
)

// RNG is a PCG-XSH-RR 64/32 generator. The zero value is NOT valid; use New.
// RNG is not safe for concurrent use; give each goroutine its own stream
// (see Split).
type RNG struct {
	state uint64
	inc   uint64
}

const pcgMultiplier = 6364136223846793005

// New returns a generator seeded with seed on stream seq. Distinct seq
// values yield independent streams even under the same seed.
func New(seed, seq uint64) *RNG {
	r := Seeded(seed, seq)
	return &r
}

// Seeded is New returning the generator by value: a caller that draws a
// short private stream per item (a data source rendering sample i) keeps
// it in a local variable, and nothing is heap-allocated.
func Seeded(seed, seq uint64) RNG {
	r := RNG{inc: (seq << 1) | 1}
	r.Uint32()
	r.state += seed
	r.Uint32()
	return r
}

// Split derives an independent child stream. The child is deterministic in
// (parent state, i), so splitting the same parent at the same point with the
// same index always yields the same stream.
func (r *RNG) Split(i uint64) *RNG {
	return New(r.Uint64()^(i*0x9e3779b97f4a7c15), i+(r.inc>>1))
}

// Uint32 returns the next 32 uniformly distributed bits.
func (r *RNG) Uint32() uint32 {
	old := r.state
	r.state = old*pcgMultiplier + r.inc
	xorshifted := uint32(((old >> 18) ^ old) >> 27)
	rot := uint32(old >> 59)
	return (xorshifted >> rot) | (xorshifted << ((-rot) & 31))
}

// Uint64 returns the next 64 uniformly distributed bits.
func (r *RNG) Uint64() uint64 {
	return uint64(r.Uint32())<<32 | uint64(r.Uint32())
}

// Intn returns a uniform int in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn called with n <= 0")
	}
	// Lemire's nearly-divisionless bounded generation.
	bound := uint32(n)
	for {
		v := r.Uint32()
		prod := uint64(v) * uint64(bound)
		low := uint32(prod)
		if low >= bound || low >= (-bound)%bound {
			return int(prod >> 32)
		}
	}
}

// Float32 returns a uniform float32 in [0, 1).
func (r *RNG) Float32() float32 {
	return float32(r.Uint32()>>8) * (1.0 / (1 << 24))
}

// Float64 returns a uniform float64 in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) * (1.0 / (1 << 53))
}

// Range returns a uniform float32 in [lo, hi).
func (r *RNG) Range(lo, hi float32) float32 {
	return lo + (hi-lo)*r.Float32()
}

// NormFloat32 returns a normally distributed float32 with mean 0 and
// standard deviation 1, via the Box-Muller transform.
func (r *RNG) NormFloat32() float32 {
	// Reject u1 == 0 to keep Log finite.
	var u1 float64
	for {
		u1 = r.Float64()
		if u1 > 0 {
			break
		}
	}
	u2 := r.Float64()
	return float32(math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2))
}

// NormFloat32s fills dst with what len(dst) successive NormFloat32 calls
// return, and leaves r where they would. The active blas kernel set draws
// them (blas.Normals: on AVX2, four per step, the same bits); a normal it
// stops before, one whose first uniform is 0, is drawn here by NormFloat32,
// whose redraw loop stays the only one.
func (r *RNG) NormFloat32s(dst []float32) {
	for len(dst) > 0 {
		var n int
		r.state, n = blas.Normals(r.state, r.inc, dst)
		if dst = dst[n:]; len(dst) > 0 {
			dst[0] = r.NormFloat32()
			dst = dst[1:]
		}
	}
}

// Gaussian returns a normally distributed float32 with the given mean and
// standard deviation.
func (r *RNG) Gaussian(mean, std float32) float32 {
	return mean + std*r.NormFloat32()
}

// Bernoulli returns true with probability p.
func (r *RNG) Bernoulli(p float32) bool {
	return r.Float32() < p
}
