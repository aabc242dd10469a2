package blas

import (
	"fmt"
	"math"
	"testing"
)

// withKernels runs f with ks as the active kernel set. Not safe beside
// parallel tests; none in this package are.
func withKernels(ks kernels, f func()) {
	saved := active
	active = ks
	defer func() { active = saved }()
	f()
}

// kernelSets lists the kernel sets this host runs: portable and, where
// init chose another, that one and its goMovement copy.
func kernelSets() []kernels {
	if active.name == portable.name {
		return []kernels{portable}
	}
	return []kernels{portable, active, goMovement(active)}
}

// goMovement is ks with its vector data movement cleared: ks's
// micro-kernels, with every panel and every tile row going through the Go
// loops of packA, packB, writebackTile and writebackTileT — the oracle the
// vector routines are held to.
func goMovement(ks kernels) kernels {
	ks.name += "-gomove"
	ks.packBDense, ks.packBTransposed, ks.packARows, ks.packARuns, ks.writeback, ks.writebackT = nil, nil, nil, nil, nil, nil
	return ks
}

// forEachSet runs check once per kernel set, as a subtest named after the
// set, with that set active.
func forEachSet(t *testing.T, check func(t *testing.T)) {
	for _, ks := range kernelSets() {
		t.Run(ks.name, func(t *testing.T) { withKernels(ks, func() { check(t) }) })
	}
}

// specialBits are the operands whose bits an arithmetic slip would show:
// signed zeros, the smallest and largest subnormals, infinities, quiet and
// signalling NaNs with payloads of either sign.
var specialBits = []uint32{
	0x00000000, 0x80000000, // ±0
	0x00000001, 0x807fffff, // subnormals
	0x7f800000, 0xff800000, // ±Inf
	0x7fc00001, 0xffc12345, // quiet NaNs with payloads
	0x7f800001, 0xffa00005, // signalling NaNs
}

// specialSlice is randomSlice with every third entry one of specialBits.
func specialSlice(r *pcg, n int) []float32 {
	s := randomSlice(r, n)
	for i := 0; i < n; i += 3 {
		s[i] = math.Float32frombits(specialBits[r.Intn(len(specialBits))])
	}
	return s
}

// sameBits fails t unless got and want hold the same bit patterns (NaN
// payloads included, which == cannot see).
func sameBits(t *testing.T, what string, got, want []float32) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d floats vs %d", what, len(got), len(want))
	}
	for i := range want {
		if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
			t.Fatalf("%s differs at %d: %#08x vs %#08x", what, i, math.Float32bits(got[i]), math.Float32bits(want[i]))
		}
	}
}

// TestDataMovementMatchesGo compares each vector packer and both vector
// writebacks of the avx2 set with the Go loops (its goMovement copy) bit
// for bit, on its panel width: packB dense and transposed, packA and
// PackA untransposed and transposed, on ragged rows and columns, panels
// narrower than 16 (a transposed panel of every width 1-15 among them),
// depths off a multiple of 8, block offsets and leading strides wider than
// the row; the writeback in all four modes (NaN alpha and beta among
// them), with and without bias, on 1-4 rows of 8 and 16 lanes and on a
// tile's second lane group; the transposed writeback in the same modes on
// 1-4 rows of 1-16 lanes; and whole products on those shapes. Operands
// carry ±0, subnormals, ±Inf and NaN payloads (C's only, in the whole
// products).
func TestDataMovementMatchesGo(t *testing.T) {
	vec, oracle := active, goMovement(active)
	if vec.writeback == nil {
		t.Skip("no avx2 kernel set on this host, and the portable set has no vector data movement")
	}
	r := newPCG(51, 51)
	nr := vec.nr
	kcs := []int{1, 7, 8, 9, 16, 23, 64, 256}
	poison := func(n int) []float32 { return specialSlice(newPCG(uint64(n), 52), n) }

	t.Run("packB", func(t *testing.T) {
		for _, tb := range []Transpose{NoTrans, Trans} {
			for _, kc := range kcs {
				for _, nc := range []int{1, 5, 15, 16, 17, 33, 48} {
					for _, off := range []int{0, 3} {
						for _, pad := range []int{0, 5} {
							pc, jc := off, 2*off
							rows, cols := storage(tb, pc+kc, jc+nc)
							ldb := cols + pad
							b := specialSlice(r, rows*ldb)
							n := roundUp(nc, nr) * kc
							got, want := poison(n), poison(n)
							withKernels(vec, func() { packB(got, tb, b, ldb, pc, kc, jc, nc) })
							withKernels(oracle, func() { packB(want, tb, b, ldb, pc, kc, jc, nc) })
							sameBits(t, fmt.Sprintf("packB trans=%v kc=%d nc=%d off=%d ldb=%d", tb == Trans, kc, nc, off, ldb), got, want)
						}
					}
				}
			}
		}
		// Every ragged width of a transposed panel: the vector routine
		// reads the stored rows that exist and zero-fills the other lanes.
		for cols := 1; cols < 16; cols++ {
			for _, kc := range []int{1, 7, 8, 9, 256} {
				ldb := kc + 3
				b := specialSlice(r, cols*ldb)[:(cols-1)*ldb+kc] // nothing past the last row's run
				n := roundUp(cols, nr) * kc
				got, want := poison(n), poison(n)
				withKernels(vec, func() { packB(got, Trans, b, ldb, 0, kc, 0, cols) })
				withKernels(oracle, func() { packB(want, Trans, b, ldb, 0, kc, 0, cols) })
				sameBits(t, fmt.Sprintf("packB trans cols=%d kc=%d", cols, kc), got, want)
			}
		}
	})

	t.Run("packA", func(t *testing.T) {
		for _, ta := range []Transpose{NoTrans, Trans} {
			for _, kc := range kcs {
				for _, mc := range []int{1, 3, 4, 5, 8, 13, 64} {
					for _, off := range []int{0, 3} {
						for _, pad := range []int{0, 5} {
							ic, pc := off, 2*off
							rows, cols := storage(ta, ic+mc, pc+kc)
							lda := cols + pad
							a := specialSlice(r, rows*lda)
							n := roundUp(mc, gemmMR) * kc
							got, want := poison(n), poison(n)
							name := fmt.Sprintf("trans=%v kc=%d mc=%d off=%d lda=%d", ta == Trans, kc, mc, off, lda)
							withKernels(vec, func() { packA(got, ta, a, lda, ic, mc, pc, kc) })
							withKernels(oracle, func() { packA(want, ta, a, lda, ic, mc, pc, kc) })
							sameBits(t, "packA "+name, got, want)

							// PackA packs all of op(A), KC block by KC block.
							m, k := ic+mc, pc+kc
							var sv, sg GemmScratch
							withKernels(vec, func() { sv.PackA(ta, m, k, a, lda) })
							withKernels(oracle, func() { sg.PackA(ta, m, k, a, lda) })
							sameBits(t, "PackA "+name, sv.pa, sg.pa)
						}
					}
				}
			}
		}
	})

	nanA, nanB := math.Float32frombits(0x7fc0abcd), math.Float32frombits(0xffc00042)
	modes := []struct {
		firstK      bool
		alpha, beta float32
	}{
		{false, 0.75, 0.5}, // a later KC block: C += alpha*acc
		{false, 1, 0},
		{false, 1, 1},                            // dW's later KC blocks
		{true, 1, 0},                             // copy
		{true, -1.5, 0},                          // C = alpha*acc, C not read
		{true, 0.75, 0.5},                        // C = beta*C + alpha*acc
		{true, 1, 1},                             // the dW accumulation
		{true, 2, float32(math.Copysign(0, -1))}, // -0 is a zero beta
		// NaN scalars: which operand of a product comes first decides the
		// payload where both are NaN.
		{false, nanA, 0.5},
		{true, nanA, 0},
		{true, nanA, nanB},
	}

	t.Run("writeback", func(t *testing.T) {
		const ldc = 21 // wider than a row: the padding must stay as it was
		for _, md := range modes {
			for _, withBias := range []bool{false, true} {
				for mrr := 1; mrr <= gemmMR; mrr++ {
					for _, tile := range []struct{ at, nrr int }{{0, 8}, {0, 16}, {vec.gw, 8}} {
						if tile.at+tile.nrr > nr {
							continue
						}
						// acc is the tile's; the second lane group starts
						// inside it and ends where the tile does.
						acc := specialSlice(r, gemmMR*gemmNRMax)[tile.at : gemmMR*nr]
						var bias []float32
						if withBias {
							bias = specialSlice(r, mrr)
						}
						c0 := specialSlice(r, gemmMR*ldc)
						got := append([]float32(nil), c0...)
						want := append([]float32(nil), c0...)
						withKernels(vec, func() { writebackTile(acc, nr, md.alpha, md.beta, md.firstK, bias, got, ldc, mrr, tile.nrr) })
						withKernels(oracle, func() { writebackTile(acc, nr, md.alpha, md.beta, md.firstK, bias, want, ldc, mrr, tile.nrr) })
						sameBits(t, fmt.Sprintf("writeback %+v bias=%v mrr=%d at=%d nrr=%d", md, withBias, mrr, tile.at, tile.nrr), got, want)
					}
				}
			}
		}
	})

	t.Run("writebackT", func(t *testing.T) {
		const ldc = 7 // the tile's rows are 4 floats of C rows 7 apart
		for _, md := range modes {
			for mrr := 1; mrr <= gemmMR; mrr++ {
				for nrr := 1; nrr <= nr; nrr++ {
					acc := specialSlice(r, gemmMR*gemmNRMax)[:gemmMR*nr]
					c0 := specialSlice(r, nr*ldc)
					got := append([]float32(nil), c0...)
					want := append([]float32(nil), c0...)
					withKernels(vec, func() { writebackTileT(acc, nr, md.alpha, md.beta, md.firstK, got, ldc, mrr, nrr) })
					withKernels(oracle, func() { writebackTileT(acc, nr, md.alpha, md.beta, md.firstK, want, ldc, mrr, nrr) })
					sameBits(t, fmt.Sprintf("writebackT %+v mrr=%d nrr=%d", md, mrr, nrr), got, want)
				}
			}
		}
	})

	t.Run("gemm", func(t *testing.T) {
		for _, d := range []struct{ m, n, k int }{{1, 500, 800}, {8, 800, 500}, {13, 33, 9}, {67, 129, 263}, {500, 800, 8}} {
			for _, ta := range []Transpose{NoTrans, Trans} {
				for _, tb := range []Transpose{NoTrans, Trans} {
					for _, beta := range []float32{0, 1, 0.5} {
						arows, acols := storage(ta, d.m, d.k)
						brows, bcols := storage(tb, d.k, d.n)
						lda, ldb, ldc := acols+3, bcols+5, d.n+7
						// Finite A and B, so that C is not NaN throughout;
						// the packers met the special values above.
						a, b := randomSlice(r, arows*lda), randomSlice(r, brows*ldb)
						c0 := specialSlice(r, d.m*ldc)
						got := append([]float32(nil), c0...)
						want := append([]float32(nil), c0...)
						withKernels(vec, func() { Gemm(ta, tb, d.m, d.n, d.k, 0.75, a, lda, b, ldb, beta, got, ldc) })
						withKernels(oracle, func() { Gemm(ta, tb, d.m, d.n, d.k, 0.75, a, lda, b, ldb, beta, want, ldc) })
						sameBits(t, fmt.Sprintf("gemm %+v ta=%v tb=%v beta=%v", d, ta == Trans, tb == Trans, beta), got, want)
					}
				}
			}
		}
	})
}

// BenchmarkPackB times packB on ip1's weights (W 500x800): the forward's
// transposed B and dX's dense one, one KC block across all of N, and a
// transposed B of 10 columns (one ragged panel, ip2's width), on every
// kernel set. GB/s counts the floats read once and written once.
func BenchmarkPackB(b *testing.B) {
	r := newPCG(53, 53)
	const n, k = 500, 800
	w := randomSlice(r, n*k)
	for _, bc := range []struct {
		name        string
		tb          Transpose
		ldb, nc, kc int
	}{
		{"trans/ip1-fwd", Trans, k, n, gemmKC},    // op(B) = Wᵀ: k x n
		{"dense/ip1-bwdX", NoTrans, k, k, gemmKC}, // op(B) = W: n x k, N = 800
		{"trans/10-cols", Trans, k, 10, gemmKC},   // a ragged panel only
	} {
		for _, ks := range kernelSets() {
			b.Run(bc.name+"/set="+ks.name, func(b *testing.B) {
				dst := make([]float32, roundUp(bc.nc, ks.nr)*bc.kc)
				b.SetBytes(int64(8 * bc.nc * bc.kc))
				withKernels(ks, func() {
					for i := 0; i < b.N; i++ {
						packB(dst, bc.tb, w, bc.ldb, 0, bc.kc, 0, bc.nc)
					}
				})
			})
		}
	}
}

// BenchmarkWriteback times the writeback of a 500x800 C in 4 x nr tiles,
// first KC block (C = acc) and later ones (C += alpha*acc), with a bias,
// on every kernel set. GB/s counts acc read, C read where the mode reads
// it, and C written.
func BenchmarkWriteback(b *testing.B) {
	r := newPCG(54, 54)
	const m, n = 500, 800
	acc := randomSlice(r, gemmMR*gemmNRMax)
	bias := randomSlice(r, m)
	c := randomSlice(r, m*n)
	for _, bc := range []struct {
		name   string
		firstK bool
		bias   []float32
		moved  int // floats moved per C element
	}{
		{"copy", true, nil, 2},
		{"accumulate", false, nil, 3},
		{"copy+bias", true, bias, 2},
	} {
		for _, ks := range kernelSets() {
			b.Run(bc.name+"/set="+ks.name, func(b *testing.B) {
				nr := ks.nr
				b.SetBytes(int64(4 * bc.moved * m * n))
				withKernels(ks, func() {
					for i := 0; i < b.N; i++ {
						for ir := 0; ir < m; ir += gemmMR {
							var tb []float32
							if bc.bias != nil {
								tb = bc.bias[ir:]
							}
							for jr := 0; jr < n; jr += nr {
								writebackTile(acc, nr, 1, 0, bc.firstK, tb, c[ir*n+jr:], n, gemmMR, nr)
							}
						}
					}
				})
			})
		}
	}
}
