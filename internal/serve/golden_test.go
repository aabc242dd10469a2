package serve

import (
	"sync"
	"testing"
	"time"

	"coarsegrain/internal/trace"
)

// TestGoldenBatchedMatchesSerial is the serving determinism contract:
// scores computed inside a coalesced batch are bit-identical to the
// same sample's scores from a batch-of-1 server. The property rests on
// per-sample independence of every serving-path layer plus the blocked
// GEMM's row-band invariance (PR 1), so any future layer or kernel
// change that breaks row independence fails here first. The batch of 19
// goes through the replica as bands of 8, 8 and 3 (inferBand), through a
// net whose activations are sized for one band, not for the batch.
func TestGoldenBatchedMatchesSerial(t *testing.T) {
	serial := newTestServer(t, testConfig(1, time.Millisecond))
	serial.Start()
	const n = 2*inferBand + 3
	want := make([][]float32, n)
	for i := 0; i < n; i++ {
		want[i] = doSample(t, serial, i)
	}

	batched := newTestServer(t, testConfig(n, time.Hour))
	if got, want := batched.replicas[0].net.Blob("conv1").Cap(), inferBand*4*12*12; got != want {
		t.Fatalf("conv1 holds %d floats, want %d: one band of %d samples, not the batch of %d", got, want, inferBand, n)
	}
	batched.Start()
	got := make([][]float32, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			got[id] = doSample(t, batched, id)
		}(i)
	}
	wg.Wait()
	if st := batched.Stats(); st.FullFlushes != 1 || st.MeanBatch != n {
		t.Fatalf("expected one full batch of %d, got stats %+v", n, st)
	}
	for i := range want {
		for j := range want[i] {
			if got[i][j] != want[i][j] {
				t.Fatalf("sample %d score %d: batched %g != serial %g (bit-identity broken)",
					i, j, got[i][j], want[i][j])
			}
		}
	}
}

// TestServeTraceSpans checks the latency observability: each dispatched
// batch records one PhaseServe batch span and one request span per
// sample on the executing replica's rank shard.
func TestServeTraceSpans(t *testing.T) {
	cfg := testConfig(4, time.Hour)
	cfg.Replicas = 2
	cfg.Tracer = trace.New(cfg.Replicas)
	s := newTestServer(t, cfg)
	s.Start()
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			doSample(t, s, id)
		}(i)
	}
	wg.Wait()
	s.Close() // join workers so the shard read below is safe
	var batchSpans, reqSpans int
	for _, sp := range cfg.Tracer.Snapshot() {
		if sp.Phase != trace.PhaseServe {
			continue
		}
		if sp.Rank < 0 || sp.Rank >= cfg.Replicas {
			t.Fatalf("serve span on rank %d, want 0..%d", sp.Rank, cfg.Replicas-1)
		}
		switch sp.Name {
		case "batch":
			batchSpans++
			if sp.Lo != 0 || sp.Hi < 1 || sp.Hi > 4 {
				t.Fatalf("batch span range [%d,%d)", sp.Lo, sp.Hi)
			}
		case "request":
			reqSpans++
			if sp.Dur <= 0 {
				t.Fatalf("request span with non-positive latency %v", sp.Dur)
			}
		}
	}
	if batchSpans != 1 || reqSpans != 4 {
		t.Fatalf("spans: %d batch + %d request, want 1 + 4", batchSpans, reqSpans)
	}
}
