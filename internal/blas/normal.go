package blas

import "math"

// The generator behind Normals is rng.RNG's: PCG-XSH-RR 64/32, an LCG
// state s advanced as s*pcgMul + inc, each step yielding a 32-bit word of
// the old state. blas imports no internal package, so the stream is
// restated here rather than borrowed.
const pcgMul = 6364136223846793005

// pcgWord is the 32-bit output of state s.
func pcgWord(s uint64) uint32 {
	x := uint32(((s >> 18) ^ s) >> 27)
	rot := s >> 59
	return x>>rot | x<<(-rot&31)
}

// pcgJump returns the multiplier and increment that advance the stream k
// steps at once: the state k steps after s is mul*s + add.
func pcgJump(inc uint64, k int) (mul, add uint64) {
	mul = 1
	for range k {
		mul, add = mul*pcgMul, add*pcgMul+inc
	}
	return mul, add
}

// Normals fills dst with standard normals drawn from the stream at (state,
// inc) exactly as successive rng.RNG.NormFloat32 calls draw them, Box–Muller
// over two uniforms of two words each:
//
//	float32(math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2))
//
// It stops before a normal whose u1 is 0, which NormFloat32 redraws — the
// redraw stays NormFloat32's alone — or up to three normals before it, at
// the start of the kernel's group of four, and returns the state after the
// last normal written and how many it wrote: len(dst) unless it stopped.
//
// The active kernel set computes it; every set writes the same bits
// (FuzzNormFloat32s). The avx2 set draws four normals per step: its lanes
// are jump-ahead copies of the stream, and it computes math.Log and
// math.Cos as the toolchain does, the same IEEE operations in the same
// order, without fusing.
func Normals(state, inc uint64, dst []float32) (uint64, int) {
	return active.normals(state, inc, dst)
}

// normalsGo is Normals one normal at a time: portable's kernel, and the
// tail past the last group of four in avx2's.
func normalsGo(state, inc uint64, dst []float32) (uint64, int) {
	for i := range dst {
		var w [4]uint32
		s := state
		for k := range w {
			w[k], s = pcgWord(s), s*pcgMul+inc
		}
		u1 := float64(uint64(w[0])<<21|uint64(w[1]>>11)) * (1.0 / (1 << 53))
		if u1 == 0 {
			return state, i
		}
		u2 := float64(uint64(w[2])<<21|uint64(w[3]>>11)) * (1.0 / (1 << 53))
		dst[i] = float32(math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2))
		state = s
	}
	return state, len(dst)
}
