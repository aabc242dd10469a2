package serve

import (
	"slices"
	"testing"

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
	serial := newTestServer(t, testConfig(1))
	serial.Start()
	const n = 2*inferBand + 3
	want := make([][]float32, n)
	for i := 0; i < n; i++ {
		want[i] = doSample(t, serial, i)
	}

	g := newGate()
	batched := newTestServer(t, gatedConfig(n, g))
	if got, want := batched.replicas[0].net.Blob("conv1").Cap(), inferBand*4*12*12; got != want {
		t.Fatalf("conv1 holds %d floats, want %d: one band of %d samples, not the batch of %d", got, want, inferBand, n)
	}
	batched.Start()
	blockers := holdReplicas(t, batched, g)
	reqs := queueBehind(t, batched, n)
	g.open()
	answers(t, batched, blockers)
	got := answers(t, batched, reqs)
	if st := batched.Stats(); st.FullFlushes != 1 || st.Batches != 2 {
		t.Fatalf("expected one full batch of %d behind the blocker, got stats %+v", n, st)
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
// sample on the executing replica's rank shard. Both replicas are held
// on a blocker each while a full batch of 4 queues behind them.
func TestServeTraceSpans(t *testing.T) {
	g := newGate()
	cfg := gatedConfig(4, g)
	cfg.Replicas = 2
	cfg.Tracer = trace.New(cfg.Replicas)
	s := newTestServer(t, cfg)
	s.Start()
	blockers := holdReplicas(t, s, g)
	reqs := queueBehind(t, s, 4)
	g.open()
	answers(t, s, blockers)
	answers(t, s, reqs)
	s.Close() // join workers so the shard read below is safe
	var batchSizes []int
	var reqSpans int
	for _, sp := range cfg.Tracer.Snapshot() {
		if sp.Phase != trace.PhaseServe {
			continue
		}
		if sp.Rank < 0 || sp.Rank >= cfg.Replicas {
			t.Fatalf("serve span on rank %d, want 0..%d", sp.Rank, cfg.Replicas-1)
		}
		switch sp.Name {
		case "batch":
			if sp.Lo != 0 {
				t.Fatalf("batch span range [%d,%d)", sp.Lo, sp.Hi)
			}
			batchSizes = append(batchSizes, sp.Hi)
		case "request":
			reqSpans++
			if sp.Dur <= 0 {
				t.Fatalf("request span with non-positive latency %v", sp.Dur)
			}
		}
	}
	slices.Sort(batchSizes)
	if !slices.Equal(batchSizes, []int{1, 1, 4}) || reqSpans != 6 {
		t.Fatalf("spans: batches of %v + %d request spans, want [1 1 4] + 6", batchSizes, reqSpans)
	}
}
