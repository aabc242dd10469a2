package blas

import (
	"fmt"
	"math"
)

// maxPool8 computes eight adjacent max-pooling windows of stride 1 or 2 at
// once where the CPU has a kernel for it (gemm_amd64.go); nil elsewhere.
var maxPool8 func(src *float32, base, w, rows, kw, sw int, out *float32, idx *int32)

// MaxPoolWindows computes n adjacent max-pooling windows over one
// row-major plane of row length w: window i covers rows x kw elements with
// its corner at in[base+i*sw], and out[i] receives its maximum, idx[i] the
// plane index of that maximum. A window is scanned in row-major order with
// a strict >, so the first of equal maxima wins and a NaN never does; a
// window in which nothing beats -Inf (empty, all NaN, all -Inf) yields -Inf
// and index -1. Every window must lie inside the plane — a caller clips a
// window that overhangs by passing the part inside as a smaller window.
//
// At stride 1 or 2, runs of eight go to the vector kernel, whose lanes are
// the windows: it
// folds the window elements in, in the same row-major order, with a
// compare and two blends each, so there is no data-dependent branch — the
// scalar scan below mispredicts its compare about twice a window on
// activations, which was half the layer's time — and the results are the
// scalar scan's bit for bit (TestMaxPoolWindowsMatchScalar). A ragged tail
// is covered by one more run of eight ending at n: recomputing a window
// rewrites what is already there.
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
	if maxPool8 != nil && n >= 8 && (sw == 1 || sw == 2) {
		for i := 0; i < n; i += 8 {
			i = min(i, n-8)
			maxPool8(&in[base+i*sw], base+i*sw, w, rows, kw, sw, &out[i], &idx[i])
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
