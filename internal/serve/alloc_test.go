//go:build !race

// The race detector's instrumentation allocates, so the zero-alloc
// steady-state check only runs in normal test passes; the same code
// paths are race-checked by the rest of the suite.

package serve

import "testing"

// TestSteadyStateAllocationFree measures the whole request path —
// submit, batch, Infer, response — after warm-up. The serving design
// note (SERVING.md) promises zero steady-state allocation; the pooled
// envelopes, free-listed batch slices and capacity-warmed blobs are
// what make this hold.
func TestSteadyStateAllocationFree(t *testing.T) {
	s := newTestServer(t, testConfig(4))
	s.Start()
	r := s.Acquire()
	defer s.Release(r)
	fillSample(r.Input(), 1)
	for i := 0; i < 8; i++ { // settle the pools and the free list
		if err := s.Do(r); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(20, func() {
		if err := s.Do(r); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 0 {
		t.Fatalf("steady-state request path allocates %.1f objects per request, want 0", allocs)
	}
}
