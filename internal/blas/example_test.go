package blas_test

import (
	"fmt"

	"coarsegrain/internal/blas"
)

// Row-major C (2x2) = A (2x3) * B (3x2). lda/ldb/ldc are the row strides
// of the *stored* matrices; here every matrix is densely packed, so each
// stride equals the column count.
func ExampleGemm() {
	a := []float32{
		1, 2, 3,
		4, 5, 6,
	}
	b := []float32{
		7, 8,
		9, 10,
		11, 12,
	}
	c := make([]float32, 2*2)
	blas.Gemm(blas.NoTrans, blas.NoTrans, 2, 2, 3, 1, a, 3, b, 2, 0, c, 2)
	fmt.Println(c[:2])
	fmt.Println(c[2:])
	// Output:
	// [58 64]
	// [139 154]
}

// Transposing B computes C = A * Bᵀ without materializing the transpose —
// the shape every fully connected forward pass uses (X * Wᵀ with W stored
// as NumOutput x K).
func ExampleGemm_transpose() {
	x := []float32{ // 2 samples x 3 features
		1, 0, 2,
		0, 3, 1,
	}
	w := []float32{ // 2 outputs x 3 features
		1, 1, 1,
		2, 0, 1,
	}
	y := make([]float32, 2*2)
	blas.Gemm(blas.NoTrans, blas.Trans, 2, 2, 3, 1, x, 3, w, 3, 0, y, 2)
	fmt.Println(y)
	// Output: [3 4 4 1]
}
