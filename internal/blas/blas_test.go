package blas

import (
	"math"
	"testing"
	"testing/quick"
)

// naiveGemm is the reference implementation used to validate the optimized
// kernel: straightforward triple loop with explicit op() indexing.
func naiveGemm(transA, transB Transpose, m, n, k int, alpha float32, a []float32, lda int, b []float32, ldb int, beta float32, c []float32, ldc int) {
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			var acc float64
			for l := 0; l < k; l++ {
				var av, bv float32
				if transA == NoTrans {
					av = a[i*lda+l]
				} else {
					av = a[l*lda+i]
				}
				if transB == NoTrans {
					bv = b[l*ldb+j]
				} else {
					bv = b[j*ldb+l]
				}
				acc += float64(av) * float64(bv)
			}
			c[i*ldc+j] = float32(float64(alpha)*acc + float64(beta)*float64(c[i*ldc+j]))
		}
	}
}

func randomSlice(r *pcg, n int) []float32 {
	s := make([]float32, n)
	for i := range s {
		s[i] = r.Range(-1, 1)
	}
	return s
}

func maxAbsDiff(a, b []float32) float64 {
	var m float64
	for i := range a {
		d := math.Abs(float64(a[i]) - float64(b[i]))
		if d > m {
			m = d
		}
	}
	return m
}

func TestGemmAgainstNaive(t *testing.T) {
	forEachSet(t, func(t *testing.T) {
		r := newPCG(1, 1)
		cases := []struct {
			ta, tb  Transpose
			m, n, k int
		}{
			{NoTrans, NoTrans, 4, 5, 6},
			{NoTrans, Trans, 4, 5, 6},
			{Trans, NoTrans, 4, 5, 6},
			{Trans, Trans, 4, 5, 6},
			{NoTrans, NoTrans, 1, 1, 1},
			{NoTrans, NoTrans, 17, 23, 9},
			{Trans, Trans, 13, 7, 19},
			{NoTrans, Trans, 32, 32, 32},
		}
		for _, tc := range cases {
			for _, alpha := range []float32{0, 1, 0.5} {
				for _, beta := range []float32{0, 1, -0.25} {
					asz, bsz := tc.m*tc.k, tc.k*tc.n
					lda, ldb, ldc := tc.k, tc.n, tc.n
					if tc.ta == Trans {
						lda = tc.m
					}
					if tc.tb == Trans {
						ldb = tc.k
					}
					a := randomSlice(r, asz)
					b := randomSlice(r, bsz)
					c0 := randomSlice(r, tc.m*tc.n)
					got := append([]float32(nil), c0...)
					want := append([]float32(nil), c0...)
					Gemm(tc.ta, tc.tb, tc.m, tc.n, tc.k, alpha, a, lda, b, ldb, beta, got, ldc)
					naiveGemm(tc.ta, tc.tb, tc.m, tc.n, tc.k, alpha, a, lda, b, ldb, beta, want, ldc)
					if d := maxAbsDiff(got, want); d > 1e-4 {
						t.Fatalf("gemm(%v,%v,%d,%d,%d,a=%v,b=%v) max diff %g", tc.ta, tc.tb, tc.m, tc.n, tc.k, alpha, beta, d)
					}
				}
			}
		}
	})
}

func TestGemmBadArgsPanic(t *testing.T) {
	check := func(f func()) {
		defer func() {
			if recover() == nil {
				t.Fatal("expected panic")
			}
		}()
		f()
	}
	a := make([]float32, 4)
	check(func() { Gemm(NoTrans, NoTrans, -1, 2, 2, 1, a, 2, a, 2, 0, a, 2) })
	check(func() { Gemm(NoTrans, NoTrans, 2, 2, 2, 1, a, 1, a, 2, 0, a, 2) })
	check(func() { Gemm(NoTrans, NoTrans, 4, 4, 4, 1, a, 4, a, 4, 0, a, 4) })
}

func TestAxpyFamily(t *testing.T) {
	x := []float32{1, 2, 3}
	y := []float32{10, 20, 30}
	Axpy(2, x, y)
	if y[0] != 12 || y[2] != 36 {
		t.Fatalf("axpy: %v", y)
	}
	// Axpy stops at the shorter operand.
	Axpy(1, x[:2], y)
	if y[0] != 13 || y[1] != 26 || y[2] != 36 {
		t.Fatalf("short axpy: %v", y)
	}
}

func TestElementwiseHelpers(t *testing.T) {
	z := []float32{7, 7, 7}
	AddScalar(z, 1)
	if z[1] != 8 {
		t.Fatalf("addscalar: %v", z)
	}
}

func TestConvOutSize(t *testing.T) {
	// 28x28, kernel 5, stride 1, no pad -> 24 (LeNet conv1).
	if ConvOutSize(28, 5, 0, 1) != 24 {
		t.Fatal("conv out size wrong for LeNet conv1")
	}
	// 32x32, kernel 5, pad 2, stride 1 -> 32 (CIFAR conv1).
	if ConvOutSize(32, 5, 2, 1) != 32 {
		t.Fatal("conv out size wrong for CIFAR conv1")
	}
}

func TestPoolOutSize(t *testing.T) {
	// 24x24, kernel 2, stride 2 -> 12 (LeNet pool1).
	if PoolOutSize(24, 2, 0, 2) != 12 {
		t.Fatal("pool out size wrong for LeNet pool1")
	}
	// 32x32, kernel 3, stride 2 -> ceil((32-3)/2)+1 = 16 (CIFAR pool1).
	if PoolOutSize(32, 3, 0, 2) != 16 {
		t.Fatalf("pool out size = %d, want 16", PoolOutSize(32, 3, 0, 2))
	}
	// Padding: in=4, k=3, pad=1, stride=2 -> windows at -1, 1, 3, all
	// starting inside the padded input (last start 3 < in+pad = 5) -> 3.
	if PoolOutSize(4, 3, 1, 2) != 3 {
		t.Fatalf("padded pool out = %d", PoolOutSize(4, 3, 1, 2))
	}
	// Clipping case: in=3, k=2, pad=1, stride=2 -> raw 3 windows at
	// -1, 1, 3 but start 3 >= in+pad = 4 is false... use in=2:
	// in=2, k=2, pad=1, stride=2 -> raw out=2 at -1,1; 1 < 3 -> 2.
	if PoolOutSize(2, 2, 1, 2) != 2 {
		t.Fatalf("padded pool out (2,2,1,2) = %d", PoolOutSize(2, 2, 1, 2))
	}
}

func TestIm2colIdentityKernel(t *testing.T) {
	// 1x1 kernel, stride 1, no padding: col equals the image.
	im := []float32{1, 2, 3, 4, 5, 6}
	col := make([]float32, 6)
	Im2col(im, 1, 2, 3, 1, 1, 0, 0, 1, 1, col)
	for i := range im {
		if col[i] != im[i] {
			t.Fatalf("identity im2col: %v", col)
		}
	}
}

func TestIm2colKnownValues(t *testing.T) {
	// 1 channel 3x3 image, 2x2 kernel, stride 1: out 2x2, col is 4x4.
	im := []float32{
		1, 2, 3,
		4, 5, 6,
		7, 8, 9,
	}
	col := make([]float32, 4*4)
	Im2col(im, 1, 3, 3, 2, 2, 0, 0, 1, 1, col)
	want := []float32{
		1, 2, 4, 5, // k(0,0) over the 4 output positions
		2, 3, 5, 6, // k(0,1)
		4, 5, 7, 8, // k(1,0)
		5, 6, 8, 9, // k(1,1)
	}
	for i := range want {
		if col[i] != want[i] {
			t.Fatalf("im2col row-major mismatch at %d: got %v want %v", i, col, want)
		}
	}
}

func TestIm2colPadding(t *testing.T) {
	// 1x1 image, 3x3 kernel, pad 1: single output, 9 col entries, center=v.
	im := []float32{42}
	col := make([]float32, 9)
	Im2col(im, 1, 1, 1, 3, 3, 1, 1, 1, 1, col)
	for i, v := range col {
		want := float32(0)
		if i == 4 {
			want = 42
		}
		if v != want {
			t.Fatalf("pad im2col[%d] = %v", i, v)
		}
	}
}

func TestCol2imAdjoint(t *testing.T) {
	// <Im2col(x), y> == <x, Col2im(y)> — the defining adjoint identity.
	r := newPCG(4, 4)
	ch, h, w := 2, 5, 4
	kh, kw, ph, pw, sh, sw := 3, 2, 1, 0, 2, 1
	outH := ConvOutSize(h, kh, ph, sh)
	outW := ConvOutSize(w, kw, pw, sw)
	colLen := ch * kh * kw * outH * outW
	x := randomSlice(r, ch*h*w)
	y := randomSlice(r, colLen)

	colX := make([]float32, colLen)
	Im2col(x, ch, h, w, kh, kw, ph, pw, sh, sw, colX)
	imY := make([]float32, ch*h*w)
	Col2im(y, ch, h, w, kh, kw, ph, pw, sh, sw, imY)

	dot := func(a, b []float32) (s float64) {
		for i := range a {
			s += float64(a[i]) * float64(b[i])
		}
		return s
	}
	lhs := dot(colX, y)
	rhs := dot(x, imY)
	if math.Abs(lhs-rhs) > 1e-3 {
		t.Fatalf("adjoint identity violated: %v vs %v", lhs, rhs)
	}
}

func TestCol2imAccumulates(t *testing.T) {
	im := []float32{5}
	col := []float32{1}
	Col2im(col, 1, 1, 1, 1, 1, 0, 0, 1, 1, im)
	if im[0] != 6 {
		t.Fatalf("col2im should accumulate, got %v", im[0])
	}
}

// Property: gemm distributes over addition in A: (A1+A2)B = A1*B + A2*B.
func TestQuickGemmLinearity(t *testing.T) {
	r := newPCG(5, 5)
	f := func(mRaw, nRaw, kRaw uint8) bool {
		m, n, k := int(mRaw%8)+1, int(nRaw%8)+1, int(kRaw%8)+1
		a1 := randomSlice(r, m*k)
		a2 := randomSlice(r, m*k)
		b := randomSlice(r, k*n)
		sum := make([]float32, m*k)
		for i := range sum {
			sum[i] = a1[i] + a2[i]
		}
		c1 := make([]float32, m*n)
		cs := make([]float32, m*n)
		Gemm(NoTrans, NoTrans, m, n, k, 1, a1, k, b, n, 0, c1, n)
		Gemm(NoTrans, NoTrans, m, n, k, 1, a2, k, b, n, 1, c1, n) // c1 += a2*b
		Gemm(NoTrans, NoTrans, m, n, k, 1, sum, k, b, n, 0, cs, n)
		return maxAbsDiff(c1, cs) < 1e-4
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: transposing both arguments transposes the product:
// op(B^T A^T) == (A B)^T.
func TestQuickGemmTransposeIdentity(t *testing.T) {
	r := newPCG(6, 6)
	f := func(mRaw, nRaw, kRaw uint8) bool {
		m, n, k := int(mRaw%6)+1, int(nRaw%6)+1, int(kRaw%6)+1
		a := randomSlice(r, m*k) // m x k
		b := randomSlice(r, k*n) // k x n
		ab := make([]float32, m*n)
		Gemm(NoTrans, NoTrans, m, n, k, 1, a, k, b, n, 0, ab, n)
		// Compute (AB)^T directly as B^T A^T using Trans flags on the
		// stored row-major A and B: C2 (n x m) = op(B) op(A) with both Trans.
		c2 := make([]float32, n*m)
		Gemm(Trans, Trans, n, m, k, 1, b, n, a, k, 0, c2, m)
		for i := 0; i < m; i++ {
			for j := 0; j < n; j++ {
				if math.Abs(float64(ab[i*n+j])-float64(c2[j*m+i])) > 1e-4 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: im2col of a zero image is zero, any geometry.
func TestQuickIm2colZero(t *testing.T) {
	f := func(hRaw, wRaw, kRaw uint8) bool {
		h, w := int(hRaw%6)+3, int(wRaw%6)+3
		k := int(kRaw%3) + 1
		outH := ConvOutSize(h, k, 0, 1)
		outW := ConvOutSize(w, k, 0, 1)
		col := make([]float32, k*k*outH*outW)
		for i := range col {
			col[i] = 99
		}
		Im2col(make([]float32, h*w), 1, h, w, k, k, 0, 0, 1, 1, col)
		for _, v := range col {
			if v != 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
