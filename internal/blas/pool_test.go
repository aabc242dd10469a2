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
