package layers

import (
	"fmt"
	"math"
	"testing"

	"coarsegrain/internal/blob"
	"coarsegrain/internal/rng"
)

// forwardColumnsOracle is LRN's forward as it stood before the block
// kernels: one spatial position at a time, its channels walked at a stride
// of H·W. It is the reference forwardColumns must equal bit for bit.
func (l *LRN) forwardColumnsOracle(in, out, sc []float32, plo, phi int) {
	hw := l.height * l.width
	half := l.cfg.LocalSize / 2
	alphaOverN := l.cfg.Alpha / float32(l.cfg.LocalSize)
	for p := plo; p < phi; p++ {
		var sum float32
		for c := 0; c <= half && c < l.channels; c++ {
			v := in[c*hw+p]
			sum += v * v
		}
		for c := 0; c < l.channels; c++ {
			sc[c*hw+p] = l.cfg.K + alphaOverN*sum
			out[c*hw+p] = in[c*hw+p] * float32(math.Pow(float64(sc[c*hw+p]), -float64(l.cfg.Beta)))
			if nc := c + half + 1; nc < l.channels {
				v := in[nc*hw+p]
				sum += v * v
			}
			if oc := c - half; oc >= 0 {
				v := in[oc*hw+p]
				sum -= v * v
			}
		}
	}
}

// backwardColumnsOracle is the position-at-a-time backward pass, the
// reference for backwardColumns.
func (l *LRN) backwardColumnsOracle(in, inDiff, out, outDiff, sc []float32, plo, phi int) {
	hw := l.height * l.width
	half := l.cfg.LocalSize / 2
	ratio := 2 * l.cfg.Alpha * l.cfg.Beta / float32(l.cfg.LocalSize)
	for p := plo; p < phi; p++ {
		var sum float32
		for c := 0; c <= half && c < l.channels; c++ {
			i := c*hw + p
			sum += outDiff[i] * out[i] / sc[i]
		}
		for c := 0; c < l.channels; c++ {
			i := c*hw + p
			inDiff[i] = outDiff[i]*float32(math.Pow(float64(sc[i]), -float64(l.cfg.Beta))) - ratio*in[i]*sum
			if nc := c + half + 1; nc < l.channels {
				j := nc*hw + p
				sum += outDiff[j] * out[j] / sc[j]
			}
			if oc := c - half; oc >= 0 {
				j := oc*hw + p
				sum -= outDiff[j] * out[j] / sc[j]
			}
		}
	}
}

// lrnCase is one sample's LRN buffers at one geometry and configuration,
// with the oracles' results over the whole plane.
type lrnCase struct {
	l                                 *LRN
	hw                                int
	in, dy                            []float32
	out, sc, dx, outRef, scRef, dxRef []float32
}

func newLRNCase(t testing.TB, r *rng.RNG, channels, h, w int, cfg LRNConfig) *lrnCase {
	l, err := NewLRN("n", cfg)
	if err != nil {
		t.Fatal(err)
	}
	l.channels, l.height, l.width = channels, h, w
	n := channels * h * w
	c := &lrnCase{l: l, hw: h * w}
	for _, p := range []*[]float32{&c.in, &c.dy, &c.out, &c.sc, &c.dx, &c.outRef, &c.scRef, &c.dxRef} {
		*p = make([]float32, n)
	}
	for i := range c.in {
		c.in[i], c.dy[i] = r.Range(-3, 3), r.Range(-1, 1)
	}
	l.forwardColumnsOracle(c.in, c.outRef, c.scRef, 0, c.hw)
	l.backwardColumnsOracle(c.in, c.dxRef, c.outRef, c.dy, c.scRef, 0, c.hw)
	return c
}

// check runs both kernels over the splits [cuts[i], cuts[i+1]) of the
// plane and requires every output bit equal to the oracles'. The kernels'
// outputs start as NaN, so a position they miss shows.
func (c *lrnCase) check(t testing.TB, name string, cuts []int) {
	t.Helper()
	nan := float32(math.NaN())
	for i := range c.out {
		c.out[i], c.sc[i], c.dx[i] = nan, nan, nan
	}
	for i := 1; i < len(cuts); i++ {
		c.l.forwardColumns(c.in, c.out, c.sc, cuts[i-1], cuts[i])
	}
	// The backward reads the kernel's own forward results.
	for i := 1; i < len(cuts); i++ {
		c.l.backwardColumns(c.in, c.dx, c.out, c.dy, c.sc, cuts[i-1], cuts[i])
	}
	for what, pair := range map[string][2][]float32{"out": {c.out, c.outRef}, "scale": {c.sc, c.scRef}, "dx": {c.dx, c.dxRef}} {
		for i, want := range pair[1] {
			if got := pair[0][i]; math.Float32bits(got) != math.Float32bits(want) {
				t.Fatalf("%s splits %v: %s[%d] (channel %d, position %d) = %v, oracle %v",
					name, cuts, what, i, i/c.hw, i%c.hw, got, want)
			}
		}
	}
}

// lrnSplits returns position cuts of [0, hw): whole, P even bands for a
// few P, and a ragged split around the kernels' block boundary.
func lrnSplits(hw int) [][]int {
	splits := [][]int{{0, hw}}
	for _, p := range []int{2, 3, 7} {
		cuts := []int{0}
		for i := 1; i <= p; i++ {
			cuts = append(cuts, i*hw/p)
		}
		splits = append(splits, cuts)
	}
	if hw > lrnBlock+1 {
		splits = append(splits, []int{0, 1, lrnBlock - 1, lrnBlock + 1, hw})
	}
	return splits
}

// TestLRNKernelsMatchOracle sweeps channel counts (1-7, CIFAR's 32, 64),
// window sizes 1-7 (each with its own α, β, K, all but CIFAR's far from a
// scale of 1 on these inputs), plane sizes on and around the block size and
// position splits, and requires the block kernels equal the
// position-at-a-time loops bit for bit.
func TestLRNKernelsMatchOracle(t *testing.T) {
	r := rng.New(23, 1)
	cfgs := []LRNConfig{
		{LocalSize: 3, Alpha: 5e-5, Beta: 0.75, K: 1}, // CIFAR norm1/norm2
		{LocalSize: 5, Alpha: 0.5, Beta: 0.6, K: 2},
		{LocalSize: 7, Alpha: 2, Beta: 1.3, K: 0.5},
		{LocalSize: 1, Alpha: 0.3, Beta: 0.9, K: 1.5},
	}
	planes := [][2]int{{1, 1}, {1, 7}, {15, 17}, {16, 16}, {1, 257}, {32, 32}}
	for _, channels := range []int{1, 2, 3, 4, 5, 6, 7, 32, 64} {
		for _, cfg := range cfgs {
			for _, hw := range planes {
				c := newLRNCase(t, r, channels, hw[0], hw[1], cfg)
				name := fmt.Sprintf("C=%d n=%d α=%g β=%g K=%g %dx%d", channels, cfg.LocalSize, cfg.Alpha, cfg.Beta, cfg.K, hw[0], hw[1])
				for _, cuts := range lrnSplits(c.hw) {
					c.check(t, name, cuts)
				}
			}
		}
	}
}

// FuzzLRN draws the same space — channels, window, plane size, a split
// point, α, β and K — and requires the block kernels equal the oracles.
func FuzzLRN(f *testing.F) {
	f.Add(uint8(32), uint8(1), uint16(256), uint16(100), uint8(0), uint8(0), uint8(0), uint64(1))
	f.Add(uint8(5), uint8(3), uint16(257), uint16(256), uint8(40), uint8(9), uint8(30), uint64(2))
	f.Add(uint8(64), uint8(2), uint16(1024), uint16(1), uint8(99), uint8(3), uint8(7), uint64(3))
	f.Add(uint8(1), uint8(0), uint16(1), uint16(0), uint8(1), uint8(1), uint8(1), uint64(4))
	f.Fuzz(func(t *testing.T, c8, n8 uint8, hw16, cut16 uint16, a8, b8, k8 uint8, seed uint64) {
		channels, hw := 1+int(c8%64), 1+int(hw16%1100)
		cfg := LRNConfig{
			LocalSize: 1 + 2*int(n8%4),
			Alpha:     float32(1+int(a8%100)) / 50,
			Beta:      0.25 + float32(b8%32)/16,
			K:         0.5 + float32(k8%16)/4,
		}
		c := newLRNCase(t, rng.New(seed, 29), channels, 1, hw, cfg)
		cut := int(cut16) % (hw + 1)
		c.check(t, fmt.Sprintf("C=%d %+v hw=%d", channels, cfg, hw), []int{0, cut, hw})
	})
}

// BenchmarkLRN times one batch of CIFAR-10-full's norm1 (100 x 32 x 16 x 16)
// through the layer's passes ("now") and through the position-at-a-time
// loops they replaced ("oracle"), on two kinds of input: activations of
// ±0.01, at which every scale rounds to 1 and math.Pow returns at once (the
// zoo net's first steps), and of ±1, at which the Pow calls are the cost.
func BenchmarkLRN(b *testing.B) {
	for _, in := range []struct {
		name string
		amp  float32
	}{{"scale1", 0.01}, {"pow", 1}} {
		r := rng.New(24, 1)
		l, err := NewLRN("norm1", LRNConfig{LocalSize: 3, Alpha: 5e-5, Beta: 0.75})
		if err != nil {
			b.Fatal(err)
		}
		bottom, top := randomBlob(r, -in.amp, in.amp, 100, 32, 16, 16), blob.New()
		if err := l.SetUp([]*blob.Blob{bottom}, []*blob.Blob{top}); err != nil {
			b.Fatal(err)
		}
		for i := range top.Diff() {
			top.Diff()[i] = r.Range(-1, 1)
		}
		bottoms, tops := []*blob.Blob{bottom}, []*blob.Blob{top}
		chw := 32 * 16 * 16
		oracle := func(fn func(in, out, dy, dx, sc []float32)) {
			for s := 0; s < 100; s++ {
				lo, hi := s*chw, (s+1)*chw
				fn(bottom.Data()[lo:hi], top.Data()[lo:hi], top.Diff()[lo:hi], bottom.Diff()[lo:hi], l.scale.Data()[lo:hi])
			}
		}
		b.Run(in.name+"/forward/now", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				l.ForwardRange(0, l.ForwardExtent(), bottoms, tops)
			}
		})
		b.Run(in.name+"/forward/oracle", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				oracle(func(in, out, _, _, sc []float32) { l.forwardColumnsOracle(in, out, sc, 0, 256) })
			}
		})
		b.Run(in.name+"/backward/now", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				l.BackwardRange(0, l.BackwardExtent(), bottoms, tops, nil)
			}
		})
		b.Run(in.name+"/backward/oracle", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				oracle(func(in, out, dy, dx, sc []float32) { l.backwardColumnsOracle(in, dx, out, dy, sc, 0, 256) })
			}
		})
	}
}
