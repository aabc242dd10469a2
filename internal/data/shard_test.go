package data

import "testing"

func TestShardMapping(t *testing.T) {
	src := NewSyntheticMNIST(32, 1)
	s0, err := NewShard(src, 0, 2, 8)
	if err != nil {
		t.Fatal(err)
	}
	s1, err := NewShard(src, 1, 2, 8)
	if err != nil {
		t.Fatal(err)
	}
	if s0.Len() != 16 || s0.LocalBatch() != 4 {
		t.Fatalf("shard len %d local %d", s0.Len(), s0.LocalBatch())
	}
	// Global batch 0 = samples 0..7; shard 0 sees 0..3, shard 1 sees 4..7.
	buf := make([]float32, 28*28)
	ref := make([]float32, 28*28)
	for i := 0; i < 4; i++ {
		lab := s0.Read(i, buf)
		wantLab := src.Read(i, ref)
		if lab != wantLab {
			t.Fatalf("shard0[%d] label %d want %d", i, lab, wantLab)
		}
		lab = s1.Read(i, buf)
		wantLab = src.Read(i+4, ref)
		if lab != wantLab {
			t.Fatalf("shard1[%d] label %d want %d", i, lab, wantLab)
		}
	}
	// Local index 4 starts global batch 1 = global sample 8 (shard 0).
	if got, want := s0.Read(4, buf), src.Read(8, ref); got != want {
		t.Fatalf("shard0[4] label %d want %d", got, want)
	}
}

func TestShardValidation(t *testing.T) {
	src := NewSyntheticMNIST(32, 1)
	if _, err := NewShard(src, 0, 3, 8); err == nil {
		t.Fatal("indivisible batch accepted")
	}
	if _, err := NewShard(src, 2, 2, 8); err == nil {
		t.Fatal("out-of-range replica accepted")
	}
	if _, err := NewShard(src, 0, 2, 7); err == nil {
		t.Fatal("misaligned source length accepted")
	}
}
