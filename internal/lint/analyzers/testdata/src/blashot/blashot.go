// Package blas (fixture) exercises hotalloc's kernel-package rule: in a
// package named blas every function is per-sample hot code whatever it is
// called — the convolution driver, the panel packers, the lowering
// helpers — so allocation inside their loops is flagged exactly like a
// Forward pass, while test entry points and waived grow-once scratch stay
// exempt.
package blas

import "fmt"

type scratch struct {
	bp   []float32
	rows [][]float32
}

// ConvForward is the driver: one product per sample. Hot by package.
func ConvForward(s *scratch, samples int, out []float32) {
	for i := 0; i < samples; i++ {
		col := make([]float32, 64) // want `make in a loop of hot function ConvForward`
		out[i] = col[0]
	}
}

// packBConv is a panel packer: no "gemm", "forward" or "backward" in its
// name, hot all the same.
func packBConv(s *scratch, im []float32, kc int) {
	for l := 0; l < kc; l++ {
		row := make([]float32, 16)         // want `make in a loop of hot function packBConv`
		s.rows = append(s.rows, row)       // want `append in a loop of hot function packBConv`
		_ = fmt.Sprintf("row %d", l)       // want `fmt\.Sprintf in a loop of hot function packBConv`
		s.bp = append(s.bp, im[l%len(im)]) // want `append in a loop of hot function packBConv`
	}
}

// lower calls an allocating helper from its loop: flagged through the
// call graph like any hot function.
func lower(dst []float32, runs int) {
	for r := 0; r < runs; r++ {
		tmp := stage(8) // want `call to stage in a loop of hot function lower allocates per iteration`
		dst[r] = tmp[0]
	}
}

func stage(n int) []float32 { return make([]float32, n) }

// ensure grows once to the high-water mark under a waiver.
func (s *scratch) ensure(panels, n int) {
	for len(s.rows) < panels {
		//dnnlint:ignore hotalloc grow-once scratch, amortized across every later product
		s.rows = append(s.rows, make([]float32, n))
	}
}

// checkLen's failure path allocates only on the way down.
func checkLen(lens []int, need int) {
	for i, have := range lens {
		if have < need {
			panic(fmt.Sprintf("operand %d too short: %d < %d", i, have, need))
		}
	}
}

// TestPackers is a test entry point: exempt even here.
func TestPackers(n int) [][]float32 {
	var out [][]float32
	for i := 0; i < n; i++ {
		out = append(out, make([]float32, 4))
	}
	return out
}
