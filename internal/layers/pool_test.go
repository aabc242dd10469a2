package layers

import (
	"encoding/binary"
	"fmt"
	"math"
	"testing"

	"coarsegrain/internal/blas"
	"coarsegrain/internal/blob"
	"coarsegrain/internal/rng"
)

// forwardPlaneNaive is the pooling forward loop as it stood before max
// pooling moved to blas.MaxPoolWindows — per-window clipping, the Method
// switch inside the pixel loops, a compare-and-branch per element — kept
// as the oracle forwardPlane must match bit for bit, mask included. Its
// AVE divisor is Caffe's pool_size, written as Caffe writes it.
func (l *Pooling) forwardPlaneNaive(plane int, bottom, top *blob.Blob, maskOut []int32) {
	in := bottom.Data()[plane*l.height*l.width:]
	out := top.Data()[plane*l.outH*l.outW:]
	mask := maskOut[plane*l.outH*l.outW:]
	for oh := 0; oh < l.outH; oh++ {
		hs := oh*l.cfg.StrideH - l.cfg.PadH
		he := min(hs+l.cfg.KernelH, l.height)
		hs = max(hs, 0)
		for ow := 0; ow < l.outW; ow++ {
			ws := ow*l.cfg.StrideW - l.cfg.PadW
			we := min(ws+l.cfg.KernelW, l.width)
			ws = max(ws, 0)
			oidx := oh*l.outW + ow
			switch l.cfg.Method {
			case MaxPool:
				best := float32(math.Inf(-1))
				bestIdx := int32(-1)
				for ih := hs; ih < he; ih++ {
					for iw := ws; iw < we; iw++ {
						if v := in[ih*l.width+iw]; v > best {
							best = v
							bestIdx = int32(ih*l.width + iw)
						}
					}
				}
				out[oidx] = best
				mask[oidx] = bestIdx
			case AvePool:
				var sum float32
				for ih := hs; ih < he; ih++ {
					for iw := ws; iw < we; iw++ {
						sum += in[ih*l.width+iw]
					}
				}
				// Caffe's pool_size: the window clipped to the padded
				// input; one that lies wholly past it averages to 0.
				poolH := min(oh*l.cfg.StrideH-l.cfg.PadH+l.cfg.KernelH, l.height+l.cfg.PadH) - (oh*l.cfg.StrideH - l.cfg.PadH)
				poolW := min(ow*l.cfg.StrideW-l.cfg.PadW+l.cfg.KernelW, l.width+l.cfg.PadW) - (ow*l.cfg.StrideW - l.cfg.PadW)
				poolSize := max(poolH, 0) * max(poolW, 0)
				if poolSize == 0 {
					poolSize = 1
				}
				out[oidx] = sum / float32(poolSize)
			}
		}
	}
}

// TestPoolForwardMatchesNaive sweeps kernel/stride/pad/size combinations —
// the zoo's 3x3/s2 on 32, 16 and 8 and 2x2/s2 on 24 and 8, padded and
// ragged (ceil-mode) windows, non-square kernels, strides past the kernel
// (windows wholly outside the input), rows of 1-8 windows (all of the
// plane through the window table) padded and ragged — over inputs salted
// with ties, NaN and ±Inf, and requires output and mask bitwise equal to
// the old loop.
func TestPoolForwardMatchesNaive(t *testing.T) {
	type tc struct {
		h, w int
		cfg  PoolConfig
	}
	var cases []tc
	for _, hw := range []int{32, 16, 8} {
		cases = append(cases, tc{hw, hw, PoolConfig{Kernel: 3, Stride: 2}}) // CIFAR pool1-3
	}
	cases = append(cases,
		tc{24, 24, PoolConfig{Kernel: 2, Stride: 2}}, // LeNet pool1
		tc{8, 8, PoolConfig{Kernel: 2, Stride: 2}},   // LeNet pool2
		tc{4, 4, PoolConfig{Kernel: 1, Stride: 4}},   // second window starts past the input
		tc{3, 9, PoolConfig{KernelH: 2, KernelW: 5, PadW: 2, StrideH: 1, StrideW: 3}},
		tc{1, 1, PoolConfig{Kernel: 3, Pad: 1, Stride: 1}},
	)
	for _, k := range []int{1, 2, 3, 4} {
		for _, s := range []int{1, 2, 3} {
			for pad := 0; pad < k; pad++ { // Caffe requires pad < kernel
				for _, hw := range [][2]int{{7, 7}, {6, 11}, {10, 5}} {
					cases = append(cases, tc{hw[0], hw[1], PoolConfig{Kernel: k, Stride: s, Pad: pad}})
				}
			}
		}
	}
	// Rows of 1-8 windows, every one through the window table, each
	// geometry clipping some window: padded on the left, and ragged past
	// the right edge at even widths; mostly padding; ragged and unpadded.
	// Their finite inputs are made non-positive, so a clipped entry read
	// as anything above -Inf would beat the window's maximum.
	short := len(cases)
	for w := 1; w <= 14; w++ {
		cases = append(cases,
			tc{5, w, PoolConfig{Kernel: 3, Stride: 2, Pad: 1}},
			tc{3, w, PoolConfig{KernelH: 1, KernelW: 4, PadW: 3, StrideH: 1, StrideW: 3}},
		)
		if w%2 == 0 {
			cases = append(cases, tc{4, w, PoolConfig{KernelH: 2, KernelW: 3, Stride: 2}})
		}
	}
	r := rng.New(71, 1)
	nan, inf := float32(math.NaN()), float32(math.Inf(1))
	for ci, c := range cases {
		for _, m := range []PoolMethod{MaxPool, AvePool} {
			cfg := c.cfg
			cfg.Method = m
			name := fmt.Sprintf("%v_%dx%d_k%dx%d_s%dx%d_p%dx%d", m, c.h, c.w, cfg.KernelH+cfg.Kernel, cfg.KernelW+cfg.Kernel,
				cfg.StrideH+cfg.Stride, cfg.StrideW+cfg.Stride, cfg.PadH+cfg.Pad, cfg.PadW+cfg.Pad)
			l, err := NewPooling("p", cfg)
			if err != nil {
				t.Fatal(err)
			}
			bottom := blob.New(2, 3, c.h, c.w)
			tops := setup(t, l, []*blob.Blob{bottom})
			for i := range bottom.Data() {
				switch v := r.Range(-1, 1); {
				case v > 0.9:
					bottom.Data()[i] = nan
				case v > 0.85:
					bottom.Data()[i] = inf
				case v < -0.95:
					bottom.Data()[i] = -inf
				default:
					bottom.Data()[i] = float32(int(v*4)) / 4 // few distinct values: ties in most windows
				}
				if x := bottom.Data()[i]; ci >= short && x > 0 && x < inf {
					bottom.Data()[i] = -x
				}
			}
			want := blob.New(tops[0].Shape()...)
			wantMask := make([]int32, want.Count())
			for i := range tops[0].Data() { // garbage: every output and mask entry must be written
				tops[0].Data()[i] = 7
				if m == MaxPool {
					l.mask[i] = -7
				}
			}
			for plane := 0; plane < 6; plane++ {
				l.forwardPlaneNaive(plane, bottom, want, wantMask)
			}
			l.ForwardRange(0, 4, []*blob.Blob{bottom}, tops)
			l.ForwardRange(4, 6, []*blob.Blob{bottom}, tops)
			for i, w := range want.Data() {
				if g := tops[0].Data()[i]; math.Float32bits(g) != math.Float32bits(w) {
					t.Fatalf("%s: out[%d] = %v, old loop %v", name, i, g, w)
				}
				if m == MaxPool && l.mask[i] != wantMask[i] {
					t.Fatalf("%s: mask[%d] = %d, old loop %d", name, i, l.mask[i], wantMask[i])
				}
			}
		}
	}
}

// TestAvePoolDividesLikeCaffe: AVE pooling divides each window's sum by
// Caffe's pool_size — the window clipped to the padded input — so a ragged
// ceil-mode last window divides by what it covers and a padded one counts
// its padding, in both passes. Values are hand-computed on v(h, w) = h·W + w.
func TestAvePoolDividesLikeCaffe(t *testing.T) {
	for _, c := range []struct {
		name     string
		hw       int
		cfg      PoolConfig
		outHW    int
		checks   [][3]float32 // output row, column, value
		gradAt   [2]int       // output whose gradient is 1 in the backward check
		gradTo   [][2]int     // the inputs it reaches
		gradSize float32      // the pool size it is divided by
	}{
		{
			// CIFAR-10-full's pool2: 16 -> 8, the last row and column of
			// windows cover 2 of 3 inputs.
			name: "16x16 k3 s2", hw: 16, cfg: PoolConfig{Method: AvePool, Kernel: 3, Stride: 2}, outHW: 8,
			checks: [][3]float32{
				{0, 0, (0 + 1 + 2 + 16 + 17 + 18 + 32 + 33 + 34) / float32(9)}, // interior: 153/9
				{0, 7, (14 + 15 + 30 + 31 + 46 + 47) / float32(6)},             // edge: 183/6
				{7, 7, (238 + 239 + 254 + 255) / float32(4)},                   // corner: 986/4
			},
			gradAt: [2]int{7, 0}, gradTo: [][2]int{{14, 0}, {14, 1}, {14, 2}, {15, 0}, {15, 1}, {15, 2}}, gradSize: 6,
		},
		{
			// Padding counts: rows/columns -1..1 are three, the last window
			// (3..5, clipped to the padded 3..4) two.
			name: "4x4 k3 s2 pad 1", hw: 4, cfg: PoolConfig{Method: AvePool, Kernel: 3, Stride: 2, Pad: 1}, outHW: 3,
			checks: [][3]float32{
				{0, 0, (0 + 1 + 4 + 5) / float32(9)},
				{0, 2, (3 + 7) / float32(6)},
				{1, 1, (5 + 6 + 7 + 9 + 10 + 11 + 13 + 14 + 15) / float32(9)},
				{2, 2, 15 / float32(4)},
			},
			gradAt: [2]int{2, 2}, gradTo: [][2]int{{3, 3}}, gradSize: 4,
		},
	} {
		l, err := NewPooling("p", c.cfg)
		if err != nil {
			t.Fatal(err)
		}
		bottom := blob.New(1, 1, c.hw, c.hw)
		for i := range bottom.Data() {
			bottom.Data()[i] = float32(i)
		}
		tops := setup(t, l, []*blob.Blob{bottom})
		if s := tops[0].Shape(); s[2] != c.outHW || s[3] != c.outHW {
			t.Fatalf("%s: output shape %v", c.name, s)
		}
		runForward(l, []*blob.Blob{bottom}, tops)
		for _, ck := range c.checks {
			if got := tops[0].At(0, 0, int(ck[0]), int(ck[1])); got != ck[2] {
				t.Fatalf("%s: out(%v, %v) = %v, want %v", c.name, ck[0], ck[1], got, ck[2])
			}
		}
		tops[0].ZeroDiff()
		tops[0].Diff()[c.gradAt[0]*c.outHW+c.gradAt[1]] = 1
		l.BackwardRange(0, l.BackwardExtent(), []*blob.Blob{bottom}, tops, nil)
		want := make([]float32, bottom.Count())
		for _, in := range c.gradTo {
			want[in[0]*c.hw+in[1]] = 1 / c.gradSize
		}
		for i, w := range want {
			if g := bottom.Diff()[i]; g != w {
				t.Fatalf("%s: dx(%d, %d) = %v, want %v", c.name, i/c.hw, i%c.hw, g, w)
			}
		}
	}
}

// FuzzPool: for random geometries — H and W 1-20, per axis a kernel of
// 1-8, a padding below it and a stride of 1-8 (past the kernel, so some
// windows miss the input), ceil-mode ragged last windows — MAX and AVE
// pooling of planes drawn from a palette of arbitrary float32 bits (NaN,
// ±Inf and ties whenever the palette holds them) equal the old loop bit
// for bit, mask included, with the six planes split over two ForwardRange
// bands at a random cut.
func FuzzPool(f *testing.F) {
	bits := func(vs ...uint32) []byte {
		b := make([]byte, 4*len(vs))
		for i, v := range vs {
			binary.LittleEndian.PutUint32(b[4*i:], v)
		}
		return b
	}
	mixed := bits(0x7fc00000, 0x7f800000, 0xff800000, 0x80000000, 0, 0xbf800000, 0x3f000000, 0xbe800000)
	f.Add(uint8(8), uint8(8), uint8(2), uint8(2), uint8(2), uint8(2), uint8(0), uint8(0), false, uint8(3), mixed, uint64(1))   // LeNet pool2
	f.Add(uint8(16), uint8(16), uint8(3), uint8(3), uint8(2), uint8(2), uint8(0), uint8(0), false, uint8(1), mixed, uint64(2)) // ragged last column
	f.Add(uint8(20), uint8(19), uint8(3), uint8(3), uint8(1), uint8(2), uint8(2), uint8(1), false, uint8(5), mixed, uint64(3)) // wide rows, padded
	f.Add(uint8(5), uint8(7), uint8(3), uint8(2), uint8(2), uint8(1), uint8(1), uint8(1), true, uint8(0), mixed, uint64(4))
	f.Add(uint8(4), uint8(4), uint8(1), uint8(1), uint8(4), uint8(5), uint8(0), uint8(0), false, uint8(6), bits(0xff800000), uint64(5))
	f.Add(uint8(1), uint8(1), uint8(3), uint8(3), uint8(1), uint8(1), uint8(2), uint8(2), false, uint8(2), bits(0x7fc00001, 0xffc00000), uint64(6))
	f.Fuzz(func(t *testing.T, h8, w8, kh8, kw8, sh8, sw8, ph8, pw8 uint8, ave bool, cut8 uint8, palette []byte, seed uint64) {
		h, w := 1+int(h8%20), 1+int(w8%20)
		cfg := PoolConfig{KernelH: 1 + int(kh8%8), KernelW: 1 + int(kw8%8), StrideH: 1 + int(sh8%8), StrideW: 1 + int(sw8%8)}
		cfg.PadH, cfg.PadW = int(ph8)%cfg.KernelH, int(pw8)%cfg.KernelW
		if ave {
			cfg.Method = AvePool
		}
		if blas.PoolOutSize(h, cfg.KernelH, cfg.PadH, cfg.StrideH) < 1 || blas.PoolOutSize(w, cfg.KernelW, cfg.PadW, cfg.StrideW) < 1 {
			return // a kernel past the padded input: no output
		}
		vals := []uint32{0}
		if len(palette) >= 4 {
			vals = vals[:0]
			for i := 0; i+4 <= len(palette) && i < 64; i += 4 {
				vals = append(vals, binary.LittleEndian.Uint32(palette[i:]))
			}
		}
		l, err := NewPooling("p", cfg)
		if err != nil {
			t.Fatal(err)
		}
		bottom := blob.New(2, 3, h, w)
		tops := setup(t, l, []*blob.Blob{bottom})
		r := rng.New(seed, 31)
		for i := range bottom.Data() {
			bottom.Data()[i] = math.Float32frombits(vals[r.Intn(len(vals))])
		}
		want := blob.New(tops[0].Shape()...)
		wantMask := make([]int32, want.Count())
		for i := range tops[0].Data() {
			tops[0].Data()[i] = 7
			if !ave {
				l.mask[i] = -7
			}
		}
		for plane := 0; plane < 6; plane++ {
			l.forwardPlaneNaive(plane, bottom, want, wantMask)
		}
		cut := int(cut8) % 7
		l.ForwardRange(0, cut, []*blob.Blob{bottom}, tops)
		l.ForwardRange(cut, 6, []*blob.Blob{bottom}, tops)
		for i, wv := range want.Data() {
			if g := tops[0].Data()[i]; math.Float32bits(g) != math.Float32bits(wv) {
				t.Fatalf("%dx%d %+v: out[%d] = %v, old loop %v", h, w, cfg, i, g, wv)
			}
			if !ave && l.mask[i] != wantMask[i] {
				t.Fatalf("%dx%d %+v: mask[%d] = %d, old loop %d", h, w, cfg, i, l.mask[i], wantMask[i])
			}
		}
	})
}

// BenchmarkPoolForward times one batch of the zoo's pooling layers, the
// layer's forward ("now") against the oracle loop it replaced. LeNet's
// pool2 has rows of four windows, so all of it runs through the window
// table; CIFAR-10-full's pool1 has a ragged last column, the table's
// share of that layer.
func BenchmarkPoolForward(b *testing.B) {
	for _, c := range []struct {
		name       string
		n, ch, hw  int
		m          PoolMethod
		kernel, st int
	}{
		{"lenet-pool1", 64, 20, 24, MaxPool, 2, 2},
		{"cifar-pool1", 100, 32, 32, MaxPool, 3, 2},
		{"lenet-pool2", 64, 50, 8, MaxPool, 2, 2},
		{"cifar-pool2", 100, 32, 16, AvePool, 3, 2},
		{"cifar-pool3", 100, 64, 8, AvePool, 3, 2},
	} {
		l, _ := NewPooling("p", PoolConfig{Method: c.m, Kernel: c.kernel, Stride: c.st})
		bottom := blob.New(c.n, c.ch, c.hw, c.hw)
		r := rng.New(72, 1)
		for i := range bottom.Data() {
			bottom.Data()[i] = r.Range(-1, 1)
		}
		top := blob.New()
		if err := l.SetUp([]*blob.Blob{bottom}, []*blob.Blob{top}); err != nil {
			b.Fatal(err)
		}
		mask := make([]int32, top.Count())
		b.Run(c.name+"/now", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				l.ForwardRange(0, l.ForwardExtent(), []*blob.Blob{bottom}, []*blob.Blob{top})
			}
		})
		b.Run(c.name+"/naive", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				for plane := 0; plane < l.ForwardExtent(); plane++ {
					l.forwardPlaneNaive(plane, bottom, top, mask)
				}
			}
		})
	}
}
