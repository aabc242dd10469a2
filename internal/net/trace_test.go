package net

import (
	"bytes"
	"testing"

	"coarsegrain/internal/core"
	"coarsegrain/internal/trace"
)

// benchNet builds the benchmark network used by the tracing-overhead
// benchmarks.
func benchNet(b *testing.B, eng core.Engine) *Net {
	return tinyNet(b, 16, 1, eng)
}

// TestTraceCoarseEndToEnd drives a coarse-engine net with a tracer
// attached and checks the acceptance shape: a driver span per
// layer×phase and per-worker band spans for every parallel region, which
// export to valid Chrome trace JSON.
func TestTraceCoarseEndToEnd(t *testing.T) {
	const workers = 3
	eng := core.NewCoarse(workers)
	defer eng.Close()
	n := tinyNet(t, 8, 1, eng)
	tr := trace.New(workers)
	n.SetTracer(tr)

	const iters = 2
	for i := 0; i < iters; i++ {
		n.ZeroParamDiffs()
		n.ForwardBackward()
	}

	spans := tr.Snapshot()
	if tr.Dropped() != 0 {
		t.Fatalf("dropped %d spans", tr.Dropped())
	}
	type lp struct {
		name  string
		phase trace.Phase
	}
	driver := map[lp]int{}
	workerBands := map[lp]map[int]bool{}
	ranksSeen := map[int]bool{}
	for _, s := range spans {
		k := lp{s.Name, s.Phase}
		if s.Rank == trace.RankDriver {
			driver[k]++
			continue
		}
		ranksSeen[s.Rank] = true
		if workerBands[k] == nil {
			workerBands[k] = map[int]bool{}
		}
		workerBands[k][s.Band] = true
	}

	// Every layer has a forward driver span each iteration.
	for _, layer := range []string{"data", "conv1", "pool1", "ip1", "loss", "acc"} {
		if got := driver[lp{layer, trace.PhaseForward}]; got != iters {
			t.Errorf("%s forward driver spans = %d, want %d", layer, got, iters)
		}
	}
	// Backprop reaches conv1 (it has params) but not the data layer.
	for _, layer := range []string{"conv1", "pool1", "ip1", "loss"} {
		if got := driver[lp{layer, trace.PhaseBackward}]; got != iters {
			t.Errorf("%s backward driver spans = %d, want %d", layer, got, iters)
		}
	}
	if got := driver[lp{"data", trace.PhaseBackward}]; got != 0 {
		t.Errorf("data layer has %d backward spans", got)
	}
	// Parameterized layers get a reduce span per backward pass.
	for _, layer := range []string{"conv1", "ip1"} {
		if got := driver[lp{layer, trace.PhaseReduce}]; got != iters {
			t.Errorf("%s reduce spans = %d, want %d", layer, got, iters)
		}
	}
	// Parallel layers produce worker spans covering every band 0..P-1
	// (batch 8 across 3 workers leaves no rank empty for these layers).
	for _, k := range []lp{{"conv1", trace.PhaseForward}, {"ip1", trace.PhaseForward}} {
		bands := workerBands[k]
		for b := 0; b < workers; b++ {
			if !bands[b] {
				t.Errorf("%s %v: band %d missing (got %v)", k.name, k.phase, b, bands)
			}
		}
	}
	// Every rank recorded something.
	for r := 0; r < workers; r++ {
		if !ranksSeen[r] {
			t.Errorf("rank %d recorded no spans", r)
		}
	}
	// The conv driver spans carry FLOP and byte counters.
	var sawCounters bool
	for _, s := range spans {
		if s.Rank == trace.RankDriver && s.Name == "conv1" && s.Phase == trace.PhaseForward {
			if s.FLOPs > 0 && s.Bytes > 0 {
				sawCounters = true
			}
		}
	}
	if !sawCounters {
		t.Error("conv1 forward driver span missing FLOP/byte counters")
	}

	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	stats, err := trace.ValidateChromeTrace(&buf)
	if err != nil {
		t.Fatalf("chrome export invalid: %v", err)
	}
	if stats.Threads != workers+1 {
		t.Errorf("threads = %d, want %d", stats.Threads, workers+1)
	}
}

// TestTraceSequentialEngine checks that the serial engine produces
// driver-only spans (no worker rows) and that SetEngine re-propagates an
// attached tracer.
func TestTraceSequentialEngine(t *testing.T) {
	n := tinyNet(t, 4, 1, core.NewSequential())
	tr := trace.New(1)
	n.SetTracer(tr)
	n.ZeroParamDiffs()
	n.ForwardBackward()
	for _, s := range tr.Snapshot() {
		if s.Rank != trace.RankDriver {
			t.Fatalf("sequential engine recorded worker span %+v", s)
		}
	}

	// Swapping to a coarse engine propagates the tracer to its pool.
	eng := core.NewCoarse(2)
	defer eng.Close()
	tr2 := trace.New(2)
	n.SetTracer(tr2)
	n.SetEngine(eng)
	n.ZeroParamDiffs()
	n.ForwardBackward()
	var workerSpans int
	for _, s := range tr2.Snapshot() {
		if s.Rank >= 0 {
			workerSpans++
		}
	}
	if workerSpans == 0 {
		t.Fatal("tracer did not reach the swapped-in coarse engine's pool")
	}
}

// BenchmarkForwardBackwardNoTracer is the tracing-disabled baseline the
// <5% enabled-overhead budget is measured against; compare with
// BenchmarkForwardBackwardTraced (OBSERVABILITY.md records the method).
func BenchmarkForwardBackwardNoTracer(b *testing.B) {
	eng := core.NewCoarse(2)
	defer eng.Close()
	n := benchNet(b, eng)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n.ZeroParamDiffs()
		n.ForwardBackward()
	}
}

// BenchmarkForwardBackwardTraced measures the same iteration with span
// recording enabled.
func BenchmarkForwardBackwardTraced(b *testing.B) {
	eng := core.NewCoarse(2)
	defer eng.Close()
	n := benchNet(b, eng)
	tr := trace.NewWithCapacity(2, 1<<12)
	n.SetTracer(tr)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if tr.Len() >= 1<<11 {
			// Keep the ring from wrapping so every iteration pays the
			// same recording cost.
			tr.Reset()
		}
		n.ZeroParamDiffs()
		n.ForwardBackward()
	}
}
