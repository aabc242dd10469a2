package blas

import (
	"fmt"
	"math"
	"math/bits"
	"strings"
	"testing"
)

// pcg is rng.RNG restated, method for method: blas cannot import rng,
// which imports blas for Normals. The tests' data comes from it, and its
// NormFloat32, with the redraw loop, on the toolchain's own math.Log and
// math.Cos, is the oracle every set's normals kernel is held to, so a Go
// release that changes either function fails here rather than quietly
// forking the data.
type pcg struct{ state, inc uint64 }

func newPCG(seed, seq uint64) *pcg {
	r := pcg{inc: seq<<1 | 1}
	r.Uint32()
	r.state += seed
	r.Uint32()
	return &r
}

func (r *pcg) Uint32() uint32 {
	old := r.state
	r.state = old*6364136223846793005 + r.inc
	xorshifted := uint32(((old >> 18) ^ old) >> 27)
	rot := uint32(old >> 59)
	return (xorshifted >> rot) | (xorshifted << ((-rot) & 31))
}

func (r *pcg) Intn(n int) int {
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

func (r *pcg) Float32() float32 { return float32(r.Uint32()>>8) * (1.0 / (1 << 24)) }

func (r *pcg) Range(lo, hi float32) float32 { return lo + (hi-lo)*r.Float32() }

func (r *pcg) Float64() float64 {
	return float64((uint64(r.Uint32())<<32|uint64(r.Uint32()))>>11) * (1.0 / (1 << 53))
}

func (r *pcg) NormFloat32() float32 {
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

// batchNorms is rng.RNG.NormFloat32s's loop over Normals: the kernel
// writes what it can, and a normal it stops before is drawn by NormFloat32.
func batchNorms(s pcg, dst []float32) pcg {
	for i := 0; i < len(dst); {
		var n int
		s.state, n = Normals(s.state, s.inc, dst[i:])
		if i += n; i < len(dst) {
			dst[i] = s.NormFloat32()
			i++
		}
	}
	return s
}

// checkNorms draws n normals from s in one batch under the active set and
// one at a time from the oracle, and fails unless the two agree bit for
// bit and end in the same state.
func checkNorms(t *testing.T, what string, s pcg, n int) {
	t.Helper()
	got := make([]float32, n)
	end := batchNorms(s, got)
	want := s
	for i, g := range got {
		if w := want.NormFloat32(); math.Float32bits(g) != math.Float32bits(w) {
			t.Fatalf("%s, set %s: normal %d of %d is %v (%#08x), NormFloat32 draws %v (%#08x)", what, active.name, i, n, g, math.Float32bits(g), w, math.Float32bits(w))
		}
	}
	if end != want {
		t.Fatalf("%s, set %s: the batch of %d ends at %+v, NormFloat32 at %+v", what, active.name, n, end, want)
	}
}

// FuzzNormFloat32s: on every kernel set, a batch of 0-300 normals from a
// random stream is the NormFloat32 sequence bit for bit and ends in its
// state.
func FuzzNormFloat32s(f *testing.F) {
	for _, s := range []struct {
		seed, seq uint64
		n         uint16
	}{{0, 0, 0}, {1, 1, 1}, {7, 8, 3}, {7, 8, 4}, {42, 1, 5}, {3, 9, 17}, {99, 100, 300}, {1 << 63, 1<<64 - 1, 257}} {
		f.Add(s.seed, s.seq, s.n)
	}
	f.Fuzz(func(t *testing.T, seed, seq uint64, n16 uint16) {
		for _, ks := range kernelSets() {
			withKernels(ks, func() { checkNorms(t, fmt.Sprintf("seed %d seq %d", seed, seq), *newPCG(seed, seq), int(n16%301)) })
		}
	})
}

// pcgInverse is pcgMul's inverse mod 2^64 (Newton's iteration doubles the
// correct low bits each step; an odd number is its own inverse mod 8).
func pcgInverse() uint64 {
	x := uint64(pcgMul)
	for range 5 {
		x *= 2 - pcgMul*x
	}
	return x
}

// stateWithWord returns a state whose word is w: rotation rot in the top 5
// bits, then bits 58 down to 27 solved one at a time so that bits 27-58 of
// s ^ s>>18 are w rotated left by rot, and low in the 27 bits below, which
// do not reach the word.
func stateWithWord(w uint32, rot uint, low uint64) uint64 {
	x := bits.RotateLeft32(w, int(rot))
	s := uint64(rot) << 59
	for i := 58; i >= 27; i-- {
		s |= (uint64(x>>(i-27))&1 ^ s>>(i+18)&1) << i
	}
	return s | low&(1<<27-1)
}

// streamWithUniform returns a stream whose first two words form the
// uniform m * 2^-53 (m < 2^53): its state's word is m>>21, and the
// increment is chosen so that the next state is one whose word has m's
// low 21 bits on top — the even state and the odd next one make it odd.
func streamWithUniform(m uint64) pcg {
	rot := uint(m % 31)
	s := stateWithWord(uint32(m>>21), rot, 0x2468ace)
	next := stateWithWord(uint32(m&(1<<21-1))<<11|0x5a5, 31-rot, 0x1357bdf)
	return pcg{state: s, inc: next - pcgMul*s}
}

// rewind steps s back k words.
func rewind(s pcg, k int) pcg {
	inv := pcgInverse()
	for range k {
		s.state = (s.state - s.inc) * inv
	}
	return s
}

// TestNormalsEdges puts one chosen uniform into normal i of an 11-normal
// batch, i in each lane of the first two groups and in the tail, on every
// kernel set: log's and cos's branch points and the redraw.
func TestNormalsEdges(t *testing.T) {
	hs := uint64(math.Float64bits(math.Sqrt2/2)&(1<<52-1) | 1<<52) // √2/2 = hs * 2^-53
	cases := []struct {
		name string
		u2   bool   // the uniform is u2, else u1
		m    uint64 // the uniform is m * 2^-53
	}{
		{"u1=0, redrawn", false, 0},
		{"u1=2^-53", false, 1},
		{"u1 below √2/2", false, hs - 1},
		{"u1=√2/2", false, hs},
		{"u1 above √2/2", false, hs + 1},
		{"u1 largest", false, 1<<53 - 1},
		{"u2=0", true, 0},
		{"u2 largest", true, 1<<53 - 1},
	}
	for k := uint64(1); k < 8; k++ { // cos's octant boundaries, x*(4/Pi) = k
		for _, d := range []int64{-1, 0, 1} {
			cases = append(cases, struct {
				name string
				u2   bool
				m    uint64
			}{fmt.Sprintf("u2=%d/8%+d ulp", k, d), true, uint64(int64(k<<50) + d)})
		}
	}
	for _, c := range cases {
		at := streamWithUniform(c.m)
		if probe := at; probe.Float64() != float64(c.m)*0x1p-53 {
			t.Fatalf("%s: the constructed stream does not start with it", c.name)
		}
		for _, i := range []int{0, 1, 2, 3, 5, 8, 10} {
			s := rewind(at, 4*i)
			if c.u2 {
				s = rewind(at, 4*i+2)
			}
			for _, ks := range kernelSets() {
				withKernels(ks, func() { checkNorms(t, fmt.Sprintf("%s at normal %d", c.name, i), s, 11) })
			}
		}
	}
}

// TestNormalsStopAtZeroU1: a kernel stops at most a group of four before
// the normal whose u1 is 0, never past it, and returns the state of the
// first normal it did not write.
func TestNormalsStopAtZeroU1(t *testing.T) {
	at := streamWithUniform(0)
	for _, i := range []int{0, 3, 4, 9} {
		s := rewind(at, 4*i)
		for _, ks := range kernelSets() {
			dst := make([]float32, 12)
			state, n := ks.normals(s.state, s.inc, dst)
			if n > i || n <= i-4 || state != rewind(at, 4*(i-n)).state {
				t.Errorf("set %s, u1 = 0 at normal %d: wrote %d, state %#x, want %d-%d and the state of normal %d", ks.name, i, n, state, max(i-3, 0), i, n)
			}
		}
	}
}

// TestNormalsAllocateNothing pins a batch draw at 0 allocations on every
// set.
func TestNormalsAllocateNothing(t *testing.T) {
	dst := make([]float32, 784)
	for _, ks := range kernelSets() {
		if a := testing.AllocsPerRun(20, func() { ks.normals(1, 3, dst) }); a != 0 {
			t.Errorf("set %s: %v allocations per batch, want 0", ks.name, a)
		}
	}
}

// BenchmarkNormFloat32s times one MNIST sample's worth of normals (784)
// per set; ns/normal is the figure to compare.
func BenchmarkNormFloat32s(b *testing.B) {
	dst := make([]float32, 784)
	for _, ks := range kernelSets() {
		if strings.HasSuffix(ks.name, "-gomove") {
			continue // the same normals kernel as the set it copies
		}
		b.Run("set="+ks.name, func(b *testing.B) {
			state := uint64(1)
			for i := 0; i < b.N; i++ {
				state, _ = ks.normals(state, 3, dst)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(dst)), "ns/normal")
		})
	}
}
