package par

import (
	"testing"

	"coarsegrain/internal/trace"
)

func TestForRecordsWorkerSpans(t *testing.T) {
	p := NewPool(3)
	defer p.Close()
	tr := trace.New(3)
	p.SetTracer(tr)
	tr.SetScope("conv1", trace.PhaseForward)
	p.For(9, func(lo, hi, rank int) {})
	spans := tr.Snapshot()
	if len(spans) != 3 {
		t.Fatalf("got %d spans, want 3: %+v", len(spans), spans)
	}
	var covered int
	for _, s := range spans {
		if s.Name != "conv1" || s.Phase != trace.PhaseForward {
			t.Fatalf("span has wrong scope: %+v", s)
		}
		if s.Band != s.Rank {
			t.Fatalf("static band %d != rank %d", s.Band, s.Rank)
		}
		covered += s.Hi - s.Lo
	}
	if covered != 9 {
		t.Fatalf("spans cover %d iterations, want 9", covered)
	}
}

func TestRegionRecordsPerRankSpans(t *testing.T) {
	p := NewPool(4)
	defer p.Close()
	tr := trace.New(4)
	p.SetTracer(tr)
	tr.SetScope("conv1", trace.PhaseBackward)
	p.Region(func(rank int) {})
	spans := tr.Snapshot()
	if len(spans) != 4 {
		t.Fatalf("got %d spans, want 4", len(spans))
	}
	ranks := map[int]bool{}
	for _, s := range spans {
		ranks[s.Rank] = true
	}
	for r := 0; r < 4; r++ {
		if !ranks[r] {
			t.Fatalf("rank %d missing from region spans", r)
		}
	}
}

// TestTracerDetach checks SetTracer(nil) restores the untraced path.
func TestTracerDetach(t *testing.T) {
	p := NewPool(2)
	defer p.Close()
	tr := trace.New(2)
	p.SetTracer(tr)
	p.For(4, func(lo, hi, rank int) {})
	p.SetTracer(nil)
	p.For(4, func(lo, hi, rank int) {})
	if got := tr.Len(); got != 2 {
		t.Fatalf("detached pool still recorded: %d spans", got)
	}
}

// BenchmarkForNoTracer / BenchmarkForTraced bound the per-region tracing
// cost on an empty body (the worst case: all overhead, no work).
func BenchmarkForNoTracer(b *testing.B) {
	p := NewPool(2)
	defer p.Close()
	for i := 0; i < b.N; i++ {
		p.For(64, func(lo, hi, rank int) {})
	}
}

func BenchmarkForTraced(b *testing.B) {
	p := NewPool(2)
	defer p.Close()
	tr := trace.NewWithCapacity(2, 1<<10)
	p.SetTracer(tr)
	tr.SetScope("bench", trace.PhaseForward)
	for i := 0; i < b.N; i++ {
		p.For(64, func(lo, hi, rank int) {})
	}
}
