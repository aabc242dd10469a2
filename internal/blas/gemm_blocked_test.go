package blas

import (
	"fmt"
	"testing"

	"coarsegrain/internal/rng"
)

// refFull runs the reference kernel over all rows — the baseline every
// blocked result is differentially checked against.
func refFull(transA, transB Transpose, m, n, k int, alpha float32, a []float32, lda int, b []float32, ldb int, beta float32, c []float32, ldc int) {
	gemmRef(transA, transB, n, k, alpha, a, lda, b, ldb, beta, c, ldc, 0, m)
}

// storage returns the stored extent (rows, cols) of an operand under op.
func storage(trans Transpose, rows, cols int) (int, int) {
	if trans == Trans {
		return cols, rows
	}
	return rows, cols
}

// TestBlockedGemmDifferential sweeps the blocked kernel against gemmRef
// over odd/prime dimensions (so every M, N and K edge-tile path runs),
// all four transpose combinations, the beta values the layers use, and
// non-trivial leading strides (operands embedded in wider matrices).
//
// Tolerance: the two kernels accumulate in float32 in different orders
// (gemmRef keeps a running row sum; the blocked kernel sums KC-sized
// partials in registers). For |entries| <= 1 and K <= 384 the worst-case
// reassociation error is a few hundred ulps of the K-term dot product,
// comfortably below 1e-3 absolute; 1e-4 held over the full sweep in
// practice, so that is the bound we pin.
func TestBlockedGemmDifferential(t *testing.T) {
	r := rng.New(11, 11)
	dims := []struct{ m, n, k int }{
		{1, 7, 64},     // single row, K beyond one register tile
		{3, 5, 11},     // everything smaller than one micro-tile pair
		{4, 4, 257},    // exact micro-tile, K just past one KC block
		{13, 17, 19},   // odd primes everywhere
		{29, 31, 37},   // primes past one micro-tile in all dims
		{64, 64, 64},   // exact macro boundary
		{67, 129, 263}, // one past MC / NR / KC boundaries
		{32, 1024, 75}, // CIFAR-10-full conv1 lowered shape
	}
	for _, d := range dims {
		for _, ta := range []Transpose{NoTrans, Trans} {
			for _, tb := range []Transpose{NoTrans, Trans} {
				for _, beta := range []float32{0, 1, 0.5} {
					// Embed each operand in a matrix padded by a few
					// columns so lda/ldb/ldc exceed the minimal stride.
					arows, acols := storage(ta, d.m, d.k)
					brows, bcols := storage(tb, d.k, d.n)
					lda, ldb, ldc := acols+3, bcols+5, d.n+7
					a := randomSlice(r, arows*lda)
					b := randomSlice(r, brows*ldb)
					c0 := randomSlice(r, d.m*ldc)
					got := append([]float32(nil), c0...)
					want := append([]float32(nil), c0...)
					s := &GemmScratch{}
					GemmWithScratch(s, ta, tb, d.m, d.n, d.k, 0.75, a, lda, b, ldb, beta, got, ldc)
					refFull(ta, tb, d.m, d.n, d.k, 0.75, a, lda, b, ldb, beta, want, ldc)
					if diff := maxAbsDiff(got, want); diff > 1e-4 {
						t.Errorf("m=%d n=%d k=%d ta=%v tb=%v beta=%v: max diff %g",
							d.m, d.n, d.k, ta, tb, beta, diff)
					}
					// Padding columns of C must be untouched.
					for i := 0; i < d.m; i++ {
						for j := d.n; j < ldc; j++ {
							if got[i*ldc+j] != c0[i*ldc+j] {
								t.Fatalf("m=%d n=%d k=%d: C padding clobbered at (%d,%d)", d.m, d.n, d.k, i, j)
							}
						}
					}
				}
			}
		}
	}
}

// TestBlockedGemmAlphaZero checks the degenerate path: alpha == 0 must
// reduce to C = beta*C without reading A or B.
func TestBlockedGemmAlphaZero(t *testing.T) {
	r := rng.New(12, 12)
	m, n, k := 9, 130, 40 // blocked-path shape
	if !GemmIsBlocked(m, n, k) {
		t.Fatal("shape unexpectedly below blocked threshold")
	}
	c0 := randomSlice(r, m*n)
	for _, beta := range []float32{0, 1, 0.5} {
		got := append([]float32(nil), c0...)
		Gemm(NoTrans, NoTrans, m, n, k, 0, make([]float32, m*k), k, make([]float32, k*n), n, beta, got, n)
		for i, v := range got {
			want := beta * c0[i]
			if v != want {
				t.Fatalf("beta=%v: c[%d] = %v, want %v", beta, i, v, want)
			}
		}
	}
}

// TestBlockedGemmBandInvariance pins the determinism contract directly:
// computing C in arbitrary (even misaligned) row or column bands must be
// bit-identical to the full-range call, because the coarse engine hands
// layers arbitrary sample bands and the fine engine arbitrary channel
// bands.
func TestBlockedGemmBandInvariance(t *testing.T) {
	r := rng.New(13, 13)
	m, n, k := 23, 129, 300
	if !GemmIsBlocked(m, n, k) {
		t.Fatal("shape unexpectedly below blocked threshold")
	}
	a := randomSlice(r, m*k)
	b := randomSlice(r, k*n)
	want := make([]float32, m*n)
	Gemm(NoTrans, NoTrans, m, n, k, 1, a, k, b, n, 0, want, n)
	for _, cuts := range [][]int{{0, m}, {0, 1, m}, {0, 5, 9, m}, {0, 4, 8, 12, 16, 20, m}} {
		got := make([]float32, m*n)
		for ci := 0; ci+1 < len(cuts); ci++ {
			GemmRows(NoTrans, NoTrans, m, n, k, 1, a, k, b, n, 0, got, n, cuts[ci], cuts[ci+1])
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("cuts %v: band result differs at %d: %v vs %v", cuts, i, got[i], want[i])
			}
		}
	}
	// Column bands, as the inner-product channel ranges cut N: each band
	// is its own product over an offset B (stored as is or transposed)
	// and C, with N the band width.
	for _, tb := range []Transpose{NoTrans, Trans} {
		bt := b // op(B) = B, k x n
		ldb := n
		if tb == Trans {
			bt, ldb = randomSlice(r, n*k), k // op(B) = Bᵀ, stored n x k
		}
		col := func(j int) []float32 {
			if tb == Trans {
				return bt[j*k:]
			}
			return bt[j:]
		}
		Gemm(NoTrans, tb, m, n, k, 1, a, k, bt, ldb, 0, want, n)
		for _, cuts := range [][]int{{0, 1, n}, {0, 5, 21, 22, n}, {0, 16, 64, 100, n}} {
			got := make([]float32, m*n)
			for ci := 0; ci+1 < len(cuts); ci++ {
				lo, hi := cuts[ci], cuts[ci+1]
				Gemm(NoTrans, tb, m, hi-lo, k, 1, a, k, col(lo), ldb, 0, got[lo:], n)
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("transB=%v column cuts %v: band result differs at %d: %v vs %v", tb == Trans, cuts, i, got[i], want[i])
				}
			}
		}
	}
}

// TestGemmScratchReuse checks a scratch can serve differently shaped
// calls back to back (the per-sample lowered-convolution pattern).
func TestGemmScratchReuse(t *testing.T) {
	r := rng.New(15, 15)
	s := &GemmScratch{}
	for _, d := range []struct{ m, n, k int }{{20, 576, 25}, {32, 1024, 75}, {50, 64, 500}} {
		a := randomSlice(r, d.m*d.k)
		b := randomSlice(r, d.k*d.n)
		got := make([]float32, d.m*d.n)
		want := make([]float32, d.m*d.n)
		GemmWithScratch(s, NoTrans, NoTrans, d.m, d.n, d.k, 1, a, d.k, b, d.n, 0, got, d.n)
		refFull(NoTrans, NoTrans, d.m, d.n, d.k, 1, a, d.k, b, d.n, 0, want, d.n)
		if diff := maxAbsDiff(got, want); diff > 1e-4 {
			t.Fatalf("shape %+v after reuse: max diff %g", d, diff)
		}
	}
}

func TestCheckGemmNamesOperand(t *testing.T) {
	capture := func(f func()) (msg string) {
		defer func() { msg = fmt.Sprint(recover()) }()
		f()
		return ""
	}
	a := make([]float32, 64)
	for _, tc := range []struct {
		want string
		f    func()
	}{
		{"gemm A: lda", func() { Gemm(NoTrans, NoTrans, 2, 2, 4, 1, a, 1, a, 2, 0, a, 2) }},
		{"gemm B: ldb", func() { Gemm(NoTrans, NoTrans, 2, 4, 2, 1, a, 2, a, 1, 0, a, 4) }},
		{"gemm C: ldc", func() { Gemm(NoTrans, NoTrans, 2, 4, 2, 1, a, 2, a, 4, 0, a, 1) }},
		{"gemm A too short", func() { Gemm(NoTrans, NoTrans, 40, 1, 2, 1, a, 2, a, 1, 0, a, 1) }},
		{"gemm B too short", func() { Gemm(NoTrans, NoTrans, 1, 2, 40, 1, a, 40, a, 2, 0, a, 2) }},
		{"gemm C too short", func() { Gemm(NoTrans, NoTrans, 40, 2, 1, 1, a, 1, a, 2, 0, a, 2) }},
	} {
		msg := capture(tc.f)
		if msg == "" {
			t.Fatalf("%q case: expected panic", tc.want)
		}
		if !contains(msg, tc.want) {
			t.Fatalf("panic %q does not name operand (want substring %q)", msg, tc.want)
		}
	}
}

func contains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}

// netGemmShapes are the Gemm shapes the two benchmark networks actually
// emit on their hot paths (per-sample lowered convolutions, batched inner
// products): measuring these, not synthetic squares, is what PERFORMANCE.md
// reports.
var netGemmShapes = []struct {
	name    string
	ta, tb  Transpose
	m, n, k int
}{
	{"lenet-conv1-fwd", NoTrans, NoTrans, 20, 576, 25},  // W(20x25) * col(25x576)
	{"lenet-conv2-fwd", NoTrans, NoTrans, 50, 64, 500},  // W(50x500) * col(500x64)
	{"lenet-conv2-bwdW", NoTrans, Trans, 50, 500, 64},   // dTop * colᵀ
	{"lenet-conv2-bwdX", Trans, NoTrans, 500, 64, 50},   // Wᵀ * dTop
	{"lenet-ip1-fwd", NoTrans, Trans, 64, 500, 800},     // X(64x800) * Wᵀ
	{"lenet-ip1-bwdW", Trans, NoTrans, 500, 800, 64},    // dYᵀ * X
	{"cifar-conv1-fwd", NoTrans, NoTrans, 32, 1024, 75}, // W(32x75) * col(75x1024)
	{"cifar-conv2-fwd", NoTrans, NoTrans, 32, 256, 800}, // W(32x800) * col(800x256)
	{"cifar-conv3-fwd", NoTrans, NoTrans, 64, 64, 800},  // W(64x800) * col(800x64)
	{"cifar-conv1-bwdX", Trans, NoTrans, 75, 1024, 32},  // Wᵀ * dTop
}

// BenchmarkGemmNetShapes times blocked vs reference on the real network
// shapes; the impl=ref numbers are the seed kernel's (the i-k-j loop is
// unchanged), so one run of this benchmark is the before/after table.
func BenchmarkGemmNetShapes(b *testing.B) {
	r := rng.New(16, 16)
	for _, sh := range netGemmShapes {
		arows, acols := storage(sh.ta, sh.m, sh.k)
		brows, bcols := storage(sh.tb, sh.k, sh.n)
		a := randomSlice(r, arows*acols)
		bm := randomSlice(r, brows*bcols)
		c := make([]float32, sh.m*sh.n)
		flops := 2 * int64(sh.m) * int64(sh.n) * int64(sh.k)
		for _, impl := range []string{"ref", "blocked"} {
			b.Run(fmt.Sprintf("%s/impl=%s", sh.name, impl), func(b *testing.B) {
				s := &GemmScratch{}
				b.SetBytes(flops) // report "MB/s" as MFLOP/s
				for i := 0; i < b.N; i++ {
					if impl == "ref" {
						gemmRef(sh.ta, sh.tb, sh.n, sh.k, 1, a, acols, bm, bcols, 0, c, sh.n, 0, sh.m)
					} else {
						GemmWithScratch(s, sh.ta, sh.tb, sh.m, sh.n, sh.k, 1, a, acols, bm, bcols, 0, c, sh.n)
					}
				}
			})
		}
	}
}

// FuzzGemm drives random shapes, transposes, alpha/beta and leading
// strides through the dispatching Gemm and, dispatch aside, through the
// blocked kernel, with gemmRef as the oracle. It checks the values (the
// two kernels sum in different orders, hence the K-scaled tolerance), that
// C's padding columns are never written, and that a random row-band split
// reproduces the full call bit for bit. The seed corpus straddles the
// dispatch boundary (k = 1 | 2), the boundary it replaced (n*k = 4096,
// with LeNet's conv2-bwdX just under it) and every blocking constant.
func FuzzGemm(f *testing.F) {
	for _, s := range []struct {
		m, n, k uint16
		flags   uint8
	}{
		{37, 29, 1, 0}, {37, 29, 2, 0}, {1, 1, 2, 3}, // the dispatch boundary
		{500, 64, 50, 1}, {9, 64, 63, 0}, {9, 64, 64, 2}, // the old one; flags 1 = transA (conv2-bwdX)
		{4, 4, 257, 0}, {67, 129, 263, 3}, {65, 17, 9, 1}, {3, 513, 5, 2}, // MR/NR/MC/KC/NC edges
		{20, 576, 25, 0}, {50, 500, 64, 2}, {8, 10, 500, 2}, // LeNet conv1-fwd, conv2-bwdW, ip2-fwd at batch 8
	} {
		f.Add(s.m, s.n, s.k, s.flags, uint8(1), uint8(0), uint8(3), uint8(5), uint8(7), uint64(17))
	}
	alphas := []float32{1, 0.75, -1.5, 0}
	betas := []float32{0, 1, 0.5}
	f.Fuzz(func(t *testing.T, m16, n16, k16 uint16, flags, alphaSel, betaSel, padA, padB, padC uint8, seed uint64) {
		m, n, k := int(m16%520), int(n16%600), int(k16%520)
		if m*n*k > 4<<20 {
			t.Skip("too large to be worth a fuzz iteration")
		}
		ta, tb := Transpose(flags&1 != 0), Transpose(flags&2 != 0)
		alpha, beta := alphas[int(alphaSel)%len(alphas)], betas[int(betaSel)%len(betas)]
		arows, acols := storage(ta, m, k)
		brows, bcols := storage(tb, k, n)
		lda, ldb, ldc := acols+int(padA%9), bcols+int(padB%9), n+int(padC%9)
		lda, ldb, ldc = max(lda, 1), max(ldb, 1), max(ldc, 1)
		r := rng.New(seed, 41)
		a := randomSlice(r, arows*lda)
		b := randomSlice(r, brows*ldb)
		c0 := randomSlice(r, m*ldc)
		want := append([]float32(nil), c0...)
		gemmRef(ta, tb, n, k, alpha, a, lda, b, ldb, beta, want, ldc, 0, m)
		tol := 2e-6*float64(k+1) + 1e-6

		for name, gemm := range map[string]func([]float32){
			"Gemm":        func(c []float32) { Gemm(ta, tb, m, n, k, alpha, a, lda, b, ldb, beta, c, ldc) },
			"GemmBlocked": func(c []float32) { GemmBlocked(ta, tb, m, n, k, alpha, a, lda, b, ldb, beta, c, ldc) },
		} {
			got := append([]float32(nil), c0...)
			gemm(got)
			for i := 0; i < m; i++ {
				row := got[i*ldc : (i+1)*ldc]
				if d := maxAbsDiff(row[:n], want[i*ldc:i*ldc+n]); d > tol {
					t.Fatalf("%s m=%d n=%d k=%d ta=%v tb=%v alpha=%v beta=%v: row %d off by %g (tol %g)",
						name, m, n, k, ta, tb, alpha, beta, i, d, tol)
				}
				for j := n; j < ldc; j++ {
					if row[j] != c0[i*ldc+j] {
						t.Fatalf("%s m=%d n=%d k=%d: C padding clobbered at (%d,%d)", name, m, n, k, i, j)
					}
				}
			}
		}

		full := append([]float32(nil), c0...)
		Gemm(ta, tb, m, n, k, alpha, a, lda, b, ldb, beta, full, ldc)
		banded := append([]float32(nil), c0...)
		cut := 0
		if m > 0 {
			cut = int(seed % uint64(m+1))
		}
		GemmRows(ta, tb, m, n, k, alpha, a, lda, b, ldb, beta, banded, ldc, 0, cut)
		GemmRows(ta, tb, m, n, k, alpha, a, lda, b, ldb, beta, banded, ldc, cut, m)
		for i := range full {
			if full[i] != banded[i] {
				t.Fatalf("m=%d n=%d k=%d cut=%d: banded result differs from full at %d", m, n, k, cut, i)
			}
		}
	})
}
