package rng

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a := New(42, 7)
	b := New(42, 7)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("same seed diverged at step %d", i)
		}
	}
}

func TestDistinctStreams(t *testing.T) {
	a := New(42, 1)
	b := New(42, 2)
	same := 0
	for i := 0; i < 1000; i++ {
		if a.Uint32() == b.Uint32() {
			same++
		}
	}
	if same > 5 {
		t.Fatalf("streams with different seq collide too often: %d/1000", same)
	}
}

func TestDistinctSeeds(t *testing.T) {
	a := New(1, 0)
	b := New(2, 0)
	same := 0
	for i := 0; i < 1000; i++ {
		if a.Uint32() == b.Uint32() {
			same++
		}
	}
	if same > 5 {
		t.Fatalf("streams with different seeds collide too often: %d/1000", same)
	}
}

func TestSplitDeterminism(t *testing.T) {
	mk := func() *RNG { return New(99, 3) }
	a := mk().Split(5)
	b := mk().Split(5)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("split streams not deterministic")
		}
	}
}

func TestIntnBounds(t *testing.T) {
	r := New(1, 1)
	for n := 1; n <= 17; n++ {
		seen := make([]bool, n)
		for i := 0; i < 200*n; i++ {
			v := r.Intn(n)
			if v < 0 || v >= n {
				t.Fatalf("Intn(%d) = %d out of range", n, v)
			}
			seen[v] = true
		}
		for v, ok := range seen {
			if !ok {
				t.Fatalf("Intn(%d) never produced %d", n, v)
			}
		}
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	New(1, 1).Intn(0)
}

func TestFloat32Range(t *testing.T) {
	r := New(12, 34)
	var sum float64
	const n = 100000
	for i := 0; i < n; i++ {
		v := r.Float32()
		if v < 0 || v >= 1 {
			t.Fatalf("Float32 out of [0,1): %v", v)
		}
		sum += float64(v)
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.01 {
		t.Fatalf("Float32 mean %v too far from 0.5", mean)
	}
}

func TestFloat64Range(t *testing.T) {
	r := New(12, 34)
	for i := 0; i < 10000; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 out of [0,1): %v", v)
		}
	}
}

func TestNormMoments(t *testing.T) {
	r := New(5, 6)
	const n = 200000
	var sum, sumSq float64
	for i := 0; i < n; i++ {
		v := float64(r.NormFloat32())
		sum += v
		sumSq += v * v
	}
	mean := sum / n
	variance := sumSq/n - mean*mean
	if math.Abs(mean) > 0.02 {
		t.Fatalf("normal mean %v too far from 0", mean)
	}
	if math.Abs(variance-1) > 0.03 {
		t.Fatalf("normal variance %v too far from 1", variance)
	}
}

func TestGaussianScaling(t *testing.T) {
	r := New(5, 6)
	const n = 100000
	var sum float64
	for i := 0; i < n; i++ {
		sum += float64(r.Gaussian(3, 0.5))
	}
	if mean := sum / n; math.Abs(mean-3) > 0.02 {
		t.Fatalf("gaussian(3, .5) mean %v", mean)
	}
}

func TestRange(t *testing.T) {
	r := New(1, 2)
	for i := 0; i < 1000; i++ {
		v := r.Range(-2, 5)
		if v < -2 || v >= 5 {
			t.Fatalf("Range out of bounds: %v", v)
		}
	}
}

func TestBernoulliExtremes(t *testing.T) {
	r := New(1, 2)
	for i := 0; i < 100; i++ {
		if r.Bernoulli(0) {
			t.Fatal("Bernoulli(0) returned true")
		}
		if !r.Bernoulli(1.0) {
			t.Fatal("Bernoulli(1) returned false")
		}
	}
}

// Property: Intn(n) stays in range for arbitrary seeds/streams/bounds.
func TestQuickIntnInRange(t *testing.T) {
	f := func(seed, seq uint64, nRaw uint16) bool {
		n := int(nRaw%1000) + 1
		r := New(seed, seq)
		for i := 0; i < 50; i++ {
			v := r.Intn(n)
			if v < 0 || v >= n {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: generators with the same (seed, seq) always agree.
func TestQuickDeterministic(t *testing.T) {
	f := func(seed, seq uint64) bool {
		a, b := New(seed, seq), New(seed, seq)
		for i := 0; i < 20; i++ {
			if a.Uint32() != b.Uint32() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
