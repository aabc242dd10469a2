package layers

import (
	"math"
	"testing"

	"coarsegrain/internal/blob"
	"coarsegrain/internal/rng"
)

func TestBatchNormNormalizesTrainMode(t *testing.T) {
	r := rng.New(71, 1)
	l, err := NewBatchNorm("bn", BNConfig{})
	if err != nil {
		t.Fatal(err)
	}
	bottom := randomBlob(r, -3, 3, 8, 4, 3, 3)
	tops := setup(t, l, []*blob.Blob{bottom})
	runForward(l, []*blob.Blob{bottom}, tops)
	// With gamma=1, beta=0 the output is standardized per channel.
	out := tops[0].Data()
	for c := 0; c < 4; c++ {
		var sum, sumSq float64
		n := 0
		for s := 0; s < 8; s++ {
			base := ((s*4 + c) * 9)
			for i := base; i < base+9; i++ {
				sum += float64(out[i])
				sumSq += float64(out[i]) * float64(out[i])
				n++
			}
		}
		mean := sum / float64(n)
		variance := sumSq/float64(n) - mean*mean
		if math.Abs(mean) > 1e-4 {
			t.Fatalf("channel %d mean %v, want ~0", c, mean)
		}
		if math.Abs(variance-1) > 1e-2 {
			t.Fatalf("channel %d variance %v, want ~1", c, variance)
		}
	}
}

func TestBatchNormTestModeUsesMovingStats(t *testing.T) {
	r := rng.New(74, 1)
	l, err := NewBatchNorm("bn", BNConfig{Momentum: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	bottom := randomBlob(r, 2, 4, 8, 2, 2, 2) // mean ~3
	tops := setup(t, l, []*blob.Blob{bottom})
	// A few training passes accumulate moving statistics toward the batch
	// stats.
	for i := 0; i < 20; i++ {
		runForward(l, []*blob.Blob{bottom}, tops)
	}
	l.SetTrain(false)
	runForward(l, []*blob.Blob{bottom}, tops)
	// Output should be approximately standardized even in test mode, since
	// the moving stats converged to this (fixed) batch's stats.
	var sum float64
	for _, v := range tops[0].Data() {
		sum += float64(v)
	}
	mean := sum / float64(tops[0].Count())
	if math.Abs(mean) > 0.05 {
		t.Fatalf("test-mode output mean %v, want ~0", mean)
	}
	// Moving state is exposed for snapshotting.
	st := l.StateBlobs()
	if len(st) != 2 || st[0].Count() != 2 {
		t.Fatalf("state blobs wrong: %v", st)
	}
	if math.Abs(float64(st[0].Data()[0])-3) > 0.2 {
		t.Fatalf("moving mean %v, want ~3", st[0].Data()[0])
	}
}

func TestBatchNormGammaBeta(t *testing.T) {
	r := rng.New(75, 1)
	l, err := NewBatchNorm("bn", BNConfig{})
	if err != nil {
		t.Fatal(err)
	}
	bottom := randomBlob(r, -1, 1, 4, 2, 2, 2)
	tops := setup(t, l, []*blob.Blob{bottom})
	l.Params()[0].Data()[0] = 2  // gamma channel 0
	l.Params()[1].Data()[1] = -5 // beta channel 1
	runForward(l, []*blob.Blob{bottom}, tops)
	// Channel 0 variance ~4, channel 1 mean ~-5.
	var sumSq0, sum1 float64
	for s := 0; s < 4; s++ {
		for i := 0; i < 4; i++ {
			v0 := float64(tops[0].At(s, 0, i/2, i%2))
			v1 := float64(tops[0].At(s, 1, i/2, i%2))
			sumSq0 += v0 * v0
			sum1 += v1
		}
	}
	if v := sumSq0 / 16; math.Abs(v-4) > 0.1 {
		t.Fatalf("gamma scaling: variance %v, want ~4", v)
	}
	if m := sum1 / 16; math.Abs(m+5) > 0.05 {
		t.Fatalf("beta shift: mean %v, want ~-5", m)
	}
}

func TestBatchNormConfigValidation(t *testing.T) {
	if _, err := NewBatchNorm("bn", BNConfig{Momentum: 1.5}); err == nil {
		t.Fatal("bad momentum accepted")
	}
	if _, err := NewBatchNorm("bn", BNConfig{Eps: -1}); err == nil {
		t.Fatal("negative eps accepted")
	}
	l, _ := NewBatchNorm("bn", BNConfig{})
	if err := l.SetUp([]*blob.Blob{blob.New(4)}, []*blob.Blob{blob.New()}); err == nil {
		t.Fatal("1-D bottom accepted")
	}
}

func TestBatchNormChunkedForwardEqualsWhole(t *testing.T) {
	r := rng.New(76, 1)
	l, err := NewBatchNorm("bn", BNConfig{})
	if err != nil {
		t.Fatal(err)
	}
	bottom := randomBlob(r, -1, 1, 6, 4, 3, 3)
	tops := setup(t, l, []*blob.Blob{bottom})
	runForward(l, []*blob.Blob{bottom}, tops)
	ref := append([]float32(nil), tops[0].Data()...)
	// Stats already computed in prepare; ranges are independent.
	tops[0].ZeroData()
	n := l.ForwardExtent()
	for lo := 0; lo < n; lo += 7 {
		l.ForwardRange(lo, min(lo+7, n), []*blob.Blob{bottom}, tops)
	}
	for i := range ref {
		if tops[0].Data()[i] != ref[i] {
			t.Fatal("chunked batchnorm forward differs")
		}
	}
}
