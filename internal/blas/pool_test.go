package blas

import (
	"math"
	"testing"
)

// TestMaxPoolWindowsMatchScalar: the avx2 set's runs of eight (and the
// overlapping run that covers a ragged tail) give the portable set's
// scalar scan's maxima and indices bit for bit, on planes salted with
// ties, signed zeros, NaN and both infinities, for every window shape,
// stride and window count the two paths split differently on.
func TestMaxPoolWindowsMatchScalar(t *testing.T) {
	if active.maxPool8 == nil {
		t.Skip("no avx2 kernel set on this host, and the portable set has only the scalar scan")
	}
	r := newPCG(41, 1)
	nan, inf, negZero := float32(math.NaN()), float32(math.Inf(1)), float32(math.Copysign(0, -1))
	for trial := 0; trial < 400; trial++ {
		rows, kw, sw := 1+int(r.Uint32()%4), 1+int(r.Uint32()%5), 1+int(r.Uint32()%3)
		n := 1 + int(r.Uint32()%21)
		w := (n-1)*sw + kw + int(r.Uint32()%4)
		h := rows + int(r.Uint32()%3)
		base := int(r.Uint32()) % ((h-rows)*w + w - (n-1)*sw - kw + 1)
		in := make([]float32, h*w)
		for i := range in {
			switch v := r.Range(-1, 1); {
			case v > 0.9:
				in[i] = nan
			case v > 0.87:
				in[i] = inf
			case v < -0.9:
				in[i] = -inf
			case v < -0.8:
				in[i] = negZero
			default:
				in[i] = float32(int(v*3)) / 3 // few distinct values: ties, and +0 beside -0
			}
		}
		got, gotIdx := make([]float32, n), make([]int32, n)
		want, wantIdx := make([]float32, n), make([]int32, n)
		MaxPoolWindows(in, base, w, rows, kw, sw, n, got, gotIdx)
		withKernels(portable, func() { MaxPoolWindows(in, base, w, rows, kw, sw, n, want, wantIdx) })
		for i := range want {
			if math.Float32bits(got[i]) != math.Float32bits(want[i]) || gotIdx[i] != wantIdx[i] {
				t.Fatalf("rows=%d kw=%d sw=%d n=%d w=%d base=%d: window %d = (%v, %d), scalar scan (%v, %d)",
					rows, kw, sw, n, w, base, i, got[i], gotIdx[i], want[i], wantIdx[i])
			}
		}
	}
}

// TestMaxPoolWindowsEdges: an empty window yields -Inf and -1, and a
// window reaching outside the plane is refused.
func TestMaxPoolWindowsEdges(t *testing.T) {
	out, idx := []float32{7, 7}, []int32{7, 7}
	MaxPoolWindows(make([]float32, 4), 0, 2, 0, 2, 1, 2, out, idx)
	if !math.IsInf(float64(out[1]), -1) || idx[1] != -1 {
		t.Fatalf("empty window gave (%v, %d)", out[1], idx[1])
	}
	defer func() {
		if recover() == nil {
			t.Fatal("a window past the end of the plane was accepted")
		}
	}()
	MaxPoolWindows(make([]float32, 4), 1, 2, 2, 2, 1, 1, out, idx)
}

// TestMaxPoolTableMatchesScan: on every kernel set, MaxPoolTable gives
// each listed window the maximum and index MaxPoolWindows' scalar scan
// gives the window clipped to the plane, bit for bit, and writes nothing
// but the listed outputs. Windows overhang the plane on every side, some
// lie wholly outside it (nothing in range: -Inf and -1), and their count
// runs 1-21, below eight and off multiples of eight. Values are mostly
// negative, so a clipped entry read as anything above -Inf would win, and
// salted with NaN, both infinities and ties; some planes are all NaN or
// all -Inf.
func TestMaxPoolTableMatchesScan(t *testing.T) {
	forEachSet(t, func(t *testing.T) {
		r := newPCG(43, 3)
		nan, inf := float32(math.NaN()), float32(math.Inf(1))
		s := &GemmScratch{}
		for trial := 0; trial < 600; trial++ {
			h, w := 1+int(r.Uint32()%9), 1+int(r.Uint32()%9)
			kh, kw := 1+int(r.Uint32()%4), 1+int(r.Uint32()%4)
			n := 1 + int(r.Uint32()%21)
			in := make([]float32, h*w)
			for i := range in {
				switch v := r.Range(-1, 1); {
				case trial%50 == 0:
					in[i] = nan
				case trial%50 == 1:
					in[i] = -inf
				case v > 0.85:
					in[i] = nan
				case v > 0.8:
					in[i] = inf
				case v > 0.6:
					in[i] = float32(int(v*4)) / 4
				case v < -0.9:
					in[i] = -inf
				default:
					in[i] = -float32(int(v*v*4)+1) / 4 // a few negative values: ties
				}
			}
			// Window i sits at a random corner that may put it partly or
			// wholly outside the plane, and goes to output 2i+1 of 2n+1.
			tab := &PoolTable{K: kh * kw, Out: make([]int32, n), At: make([]int32, kh*kw*n)}
			corners := make([][2]int, n)
			for i := range corners {
				hs, ws := int(r.Uint32()%uint32(h+2*kh))-kh, int(r.Uint32()%uint32(w+2*kw))-kw
				corners[i] = [2]int{hs, ws}
				tab.Out[i] = int32(2*i + 1)
				for k := 0; k < kh*kw; k++ {
					ih, iw := hs+k/kw, ws+k%kw
					tab.At[k*n+i] = -1
					if ih >= 0 && ih < h && iw >= 0 && iw < w {
						tab.At[k*n+i] = int32(ih*w + iw)
					}
				}
			}
			got, gotIdx := make([]float32, 2*n+1), make([]int32, 2*n+1)
			for i := range got {
				got[i], gotIdx[i] = 7, -7
			}
			MaxPoolTable(s, in, tab, got, gotIdx)
			for i, c := range corners {
				hs, ws := max(c[0], 0), max(c[1], 0)
				he, we := min(c[0]+kh, h), min(c[1]+kw, w)
				want, wantIdx := []float32{0}, []int32{0}
				base := 0
				if he > hs && we > ws {
					base = hs*w + ws
				}
				withKernels(portable, func() { MaxPoolWindows(in, base, w, he-hs, we-ws, 1, 1, want, wantIdx) })
				o := 2*i + 1
				if math.Float32bits(got[o]) != math.Float32bits(want[0]) || gotIdx[o] != wantIdx[0] {
					t.Fatalf("%dx%d plane, %dx%d windows, n=%d: window %d at (%d, %d) = (%v, %d), scalar scan (%v, %d)",
						h, w, kh, kw, n, i, c[0], c[1], got[o], gotIdx[o], want[0], wantIdx[0])
				}
			}
			for o := 0; o < len(got); o += 2 {
				if got[o] != 7 || gotIdx[o] != -7 {
					t.Fatalf("n=%d: output %d, listed by no window, was written", n, o)
				}
			}
		}
	})
}
