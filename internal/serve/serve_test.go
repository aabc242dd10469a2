package serve

import (
	"sync"
	"testing"
	"time"

	"coarsegrain/internal/layers"
	"coarsegrain/internal/net"
	"coarsegrain/internal/rng"
)

// testBuild returns a Builder for a small MNIST-shaped net — data,
// conv1(4,5x5,stride2, lowered), ip1(10) — plus a SoftmaxWithLoss tail
// so every server construction also exercises StripTraining. Equal
// seeds give bit-identical weights across servers.
func testBuild(seed uint64) Builder {
	return func(src layers.Source) ([]net.LayerSpec, error) {
		d, err := layers.NewData("data", src, src.Len())
		if err != nil {
			return nil, err
		}
		conv, err := layers.NewConvolution("conv1", layers.ConvConfig{
			NumOutput: 4, Kernel: 5, Stride: 2, Lowered: true,
			WeightFiller: layers.XavierFiller{}, RNG: rng.New(seed, 1),
		})
		if err != nil {
			return nil, err
		}
		ip, err := layers.NewInnerProduct("ip1", layers.IPConfig{
			NumOutput: src.Classes(), WeightFiller: layers.XavierFiller{}, RNG: rng.New(seed, 2),
		})
		if err != nil {
			return nil, err
		}
		return []net.LayerSpec{
			{Layer: d, Tops: []string{"data", "label"}},
			{Layer: conv, Bottoms: []string{"data"}, Tops: []string{"conv1"}},
			{Layer: ip, Bottoms: []string{"conv1"}, Tops: []string{"ip1"}},
			{Layer: layers.NewSoftmaxWithLoss("loss"), Bottoms: []string{"ip1", "label"}, Tops: []string{"loss"}},
		}, nil
	}
}

func testConfig(maxBatch int, delay time.Duration) Config {
	return Config{
		Build:       testBuild(42),
		SampleShape: []int{1, 28, 28},
		Classes:     10,
		ScoreBlob:   "ip1",
		MaxBatch:    maxBatch,
		MaxDelay:    delay,
	}
}

func newTestServer(t testing.TB, cfg Config) *Server {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	return s
}

// fillSample writes a deterministic input for sample identity id.
func fillSample(in []float32, id int) {
	for j := range in {
		in[j] = float32((id*31+j)%17) / 17
	}
}

// doSample runs one request for identity id and returns a copy of its
// scores.
func doSample(t testing.TB, s *Server, id int) []float32 {
	t.Helper()
	r := s.Acquire()
	defer s.Release(r)
	fillSample(r.Input(), id)
	if err := s.Do(r); err != nil {
		t.Fatalf("Do(sample %d): %v", id, err)
	}
	return append([]float32(nil), r.Scores()...)
}

// TestFullBatchFlush pins the full-flush path: with an effectively
// infinite deadline, MaxBatch concurrent requests can only complete by
// filling the batch.
func TestFullBatchFlush(t *testing.T) {
	s := newTestServer(t, testConfig(4, time.Hour))
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
	st := s.Stats()
	if st.FullFlushes != 1 || st.DeadlineFlushes != 0 {
		t.Fatalf("flushes: full=%d deadline=%d, want 1/0", st.FullFlushes, st.DeadlineFlushes)
	}
	if st.Batches != 1 || st.Samples != 4 || st.Served != 4 {
		t.Fatalf("batches=%d samples=%d served=%d, want 1/4/4", st.Batches, st.Samples, st.Served)
	}
}

// TestDeadlineFlush pins the deadline path: fewer requests than
// MaxBatch complete only because the MaxDelay timer fires.
func TestDeadlineFlush(t *testing.T) {
	s := newTestServer(t, testConfig(32, 20*time.Millisecond))
	s.Start()
	var wg sync.WaitGroup
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			doSample(t, s, id)
		}(i)
	}
	wg.Wait()
	st := s.Stats()
	if st.DeadlineFlushes < 1 || st.FullFlushes != 0 {
		t.Fatalf("flushes: full=%d deadline=%d, want 0/≥1", st.FullFlushes, st.DeadlineFlushes)
	}
	if st.Served != 3 {
		t.Fatalf("served=%d, want 3", st.Served)
	}
	if st.MeanLatency < 15*time.Millisecond {
		// A 3-sample batch under a 20ms deadline waited for the timer;
		// generous lower bound to stay robust on slow CI.
		t.Logf("note: mean latency %v below the deadline — deadline fired early?", st.MeanLatency)
	}
}

// TestBackpressureRejects fills the bounded queue with no batcher
// running (the server is force-marked started) and checks the
// non-blocking rejection contract.
func TestBackpressureRejects(t *testing.T) {
	cfg := testConfig(4, time.Hour)
	cfg.QueueDepth = 2
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Mark started without launching the batcher: every submission
	// stays queued, so the third must bounce.
	s.mu.Lock()
	s.started = true
	s.mu.Unlock()
	for i := 0; i < 2; i++ {
		r := s.Acquire()
		if err := s.submit(r); err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
	}
	r := s.Acquire()
	if err := s.submit(r); err != ErrOverloaded {
		t.Fatalf("submit over capacity: %v, want ErrOverloaded", err)
	}
	st := s.Stats()
	if st.Received != 2 || st.Rejected != 1 {
		t.Fatalf("received=%d rejected=%d, want 2/1", st.Received, st.Rejected)
	}
}

// TestSubmitLifecycleErrors pins ErrNotStarted and ErrClosed.
func TestSubmitLifecycleErrors(t *testing.T) {
	s := newTestServer(t, testConfig(2, time.Millisecond))
	r := s.Acquire()
	if err := s.Do(r); err != ErrNotStarted {
		t.Fatalf("Do before Start: %v, want ErrNotStarted", err)
	}
	s.Start()
	if err := s.Do(r); err != nil {
		t.Fatalf("Do after Start: %v", err)
	}
	s.Close()
	if err := s.Do(r); err != ErrClosed {
		t.Fatalf("Do after Close: %v, want ErrClosed", err)
	}
	s.Release(r)
}

// TestCloseDrainsAdmitted submits a burst and closes immediately:
// every admitted request must still be answered.
func TestCloseDrainsAdmitted(t *testing.T) {
	s := newTestServer(t, testConfig(4, time.Hour))
	s.Start()
	const n = 11
	var wg sync.WaitGroup
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			r := s.Acquire()
			defer s.Release(r)
			fillSample(r.Input(), id)
			errs[id] = s.Do(r)
		}(i)
	}
	time.Sleep(5 * time.Millisecond) // let most submissions land
	s.Close()
	wg.Wait()
	admitted := 0
	for _, err := range errs {
		switch err {
		case nil:
			admitted++
		case ErrClosed:
		default:
			t.Fatalf("unexpected Do error: %v", err)
		}
	}
	if st := s.Stats(); st.Served != int64(admitted) {
		t.Fatalf("served=%d but %d requests completed", st.Served, admitted)
	}
}

// TestRoutingUnderConcurrency hammers the batcher from many clients
// with identity-encoded inputs and checks every response carries the
// scores of that client's own sample — the response-routing contract
// under arbitrary batch mixing. Run with -race this also exercises the
// submit/flush/free-list synchronization.
func TestRoutingUnderConcurrency(t *testing.T) {
	ref := newTestServer(t, testConfig(1, time.Millisecond))
	ref.Start()
	const ids = 8
	want := make([][]float32, ids)
	for i := 0; i < ids; i++ {
		want[i] = doSample(t, ref, i)
	}

	s := newTestServer(t, testConfig(4, 500*time.Microsecond))
	s.Start()
	const clients, rounds = 16, 10
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for k := 0; k < rounds; k++ {
				id := (c + k) % ids
				got := doSample(t, s, id)
				for j := range got {
					if got[j] != want[id][j] {
						t.Errorf("client %d round %d: score[%d]=%g, want %g (cross-routed response?)",
							c, k, j, got[j], want[id][j])
						return
					}
				}
			}
		}(c)
	}
	wg.Wait()
}

// TestReplicaBuiltAtMaxBatch: a builder that names its own, larger batch
// (the zoo nets default to their training batch) must not make a replica
// allocate its activations at that size before shrinking to MaxBatch —
// the buffers would stay that large for the life of the server.
func TestReplicaBuiltAtMaxBatch(t *testing.T) {
	const maxBatch, builderBatch = 4, 64
	cfg := testConfig(maxBatch, time.Millisecond)
	inner := cfg.Build
	cfg.Build = func(src layers.Source) ([]net.LayerSpec, error) {
		specs, err := inner(src)
		if err != nil {
			return nil, err
		}
		d, err := layers.NewData("data", src, builderBatch)
		specs[0].Layer = d
		return specs, err
	}
	s := newTestServer(t, cfg)
	for _, rep := range s.replicas {
		conv1 := rep.net.Blob("conv1") // 4 maps of 12x12 per sample
		if got, want := conv1.Cap(), maxBatch*4*12*12; got != want {
			t.Fatalf("replica %d: conv1 holds %d floats, want %d (MaxBatch %d, not the builder's %d)",
				rep.rank, got, want, maxBatch, builderBatch)
		}
	}
	s.Start()
	if got := doSample(t, s, 3); len(got) != 10 {
		t.Fatalf("%d scores, want 10", len(got))
	}
}

// TestStripTraining checks the tail-stripping used by every replica
// build.
func TestStripTraining(t *testing.T) {
	f := &feeder{shape: []int{1, 28, 28}, classes: 10, batch: 4}
	specs, err := testBuild(1)(f)
	if err != nil {
		t.Fatal(err)
	}
	stripped := StripTraining(specs)
	if got, want := len(stripped), len(specs)-1; got != want {
		t.Fatalf("stripped to %d specs, want %d", got, want)
	}
	if last := stripped[len(stripped)-1].Layer.Type(); last != "InnerProduct" {
		t.Fatalf("last layer after strip is %s, want InnerProduct", last)
	}
	if len(StripTraining(nil)) != 0 {
		t.Fatal("StripTraining(nil) not empty")
	}
}
