package blas

import (
	"fmt"
	"math"
)

// MaxPoolWindows computes n adjacent max-pooling windows over one
// row-major plane of row length w: window i covers rows x kw elements with
// its corner at in[base+i*sw], and out[i] receives its maximum, idx[i] the
// plane index of that maximum. A window is scanned in row-major order with
// a strict >, so the first of equal maxima wins and a NaN never does; a
// window in which nothing beats -Inf (empty, all NaN, all -Inf) yields -Inf
// and index -1. Every window must lie inside the plane: the windows the
// padding or a ragged last window clips, and rows too short to fill a
// vector, go through a window table instead (MaxPoolTable).
//
// At stride 1 or 2, runs of eight go to the active kernel set's maxPool8
// where it has one, a vector kernel whose lanes are the windows: it
// folds the window elements in, in the same row-major order, with a
// compare and two blends each, so there is no data-dependent branch — the
// scalar scan below mispredicts its compare about twice a window on
// activations, which was half the layer's time — and the results are the
// scalar scan's bit for bit (TestMaxPoolWindowsMatchScalar). A ragged tail
// is covered by one more run of eight ending at n: recomputing a window
// rewrites what is already there. Fewer than eight windows take the
// scalar scan.
func MaxPoolWindows(in []float32, base, w, rows, kw, sw, n int, out []float32, idx []int32) {
	if n <= 0 {
		return
	}
	out, idx = out[:n], idx[:n]
	if rows <= 0 || kw <= 0 {
		for i := range out {
			out[i], idx[i] = float32(math.Inf(-1)), -1
		}
		return
	}
	if last := base + (rows-1)*w + (n-1)*sw + kw - 1; base < 0 || sw < 0 || last >= len(in) {
		panic(fmt.Sprintf("blas: MaxPoolWindows: windows reach [%d, %d] of a %d-element plane", base, last, len(in)))
	}
	if active.maxPool8 != nil && n >= 8 && (sw == 1 || sw == 2) {
		for i := 0; i < n; i += 8 {
			i = min(i, n-8)
			active.maxPool8(&in[base+i*sw], base+i*sw, w, rows, kw, sw, &out[i], &idx[i])
		}
		return
	}
	for i := range out {
		best, bestIdx := float32(math.Inf(-1)), -1
		for p := base + i*sw; p < base+i*sw+rows*w; p += w {
			for j, v := range in[p : p+kw] {
				if v > best {
					best, bestIdx = v, p+j
				}
			}
		}
		out[i], idx[i] = best, int32(bestIdx)
	}
}

// PoolTable lists max-pooling windows by their elements, for windows that
// are not a run of eight inside the plane: those clipped by the padding or
// by a ragged last window, and all of a plane whose rows hold fewer than
// eight. A layer builds one per geometry and folds every plane through it.
type PoolTable struct {
	// K is the number of elements in a window, kh*kw.
	K int
	// Out[i] is the output position of window i.
	Out []int32
	// At[k*len(Out)+i] is the plane index of element k of window i, the
	// elements in row-major order within the window, or -1 where the
	// window is clipped.
	At []int32
}

// MaxPoolTable computes the windows of t over the plane in: out[t.Out[i]]
// receives window i's maximum and idx[t.Out[i]] the plane index of it,
// exactly as MaxPoolWindows would give them for the window clipped to the
// plane — row-major order, strict >, the first of equal maxima wins, a NaN
// never does, and a window with nothing above -Inf (nothing in range
// included) yields -Inf and -1 (TestMaxPoolTableMatchesScan).
//
// Where the active set has maxPool8, element k of window i is gathered
// into column buffer entry k*n+i (-Inf for an entry of -1), and the
// columns are folded eight windows to a vector as one window of K rows of
// one element; the winning column entry maps back through t.At. On a set
// without it the windows are scanned through the table in place. The
// column buffer is s's, so a warm call allocates nothing.
func MaxPoolTable(s *GemmScratch, in []float32, t *PoolTable, out []float32, idx []int32) {
	n, at := len(t.Out), t.At[:t.K*len(t.Out)]
	if n == 0 {
		return
	}
	if active.maxPool8 == nil || t.K == 0 {
		for i, o := range t.Out {
			best, bestIdx := float32(math.Inf(-1)), int32(-1)
			for k := i; k < len(at); k += n {
				if e := at[k]; e >= 0 && in[e] > best {
					best, bestIdx = in[e], e
				}
			}
			out[o], idx[o] = best, bestIdx
		}
		return
	}
	// Fewer than eight windows still fold as eight: the lanes past n read
	// the slack at the end of the buffer, and their results are dropped.
	if need := len(at) + 8; cap(s.win) < need {
		s.win = make([]float32, need)
	}
	col := s.win[:len(at)]
	for j, e := range at {
		if e >= 0 {
			col[j] = in[e]
		} else {
			col[j] = float32(math.Inf(-1))
		}
	}
	for i := 0; i < n; i += 8 {
		i = min(i, max(n-8, 0))
		active.maxPool8(&s.win[i], i, n, t.K, 1, 1, &s.winOut[0], &s.winIdx[0])
		for j, o := range t.Out[i:min(i+8, n)] {
			out[o], idx[o] = s.winOut[j], -1
			if c := s.winIdx[j]; c >= 0 {
				idx[o] = at[c]
			}
		}
	}
}
