package serve

import (
	"sync"
	"testing"
	"time"

	"coarsegrain/internal/blob"
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

func testConfig(maxBatch int) Config {
	return Config{
		Build:       testBuild(42),
		SampleShape: []int{1, 28, 28},
		Classes:     10,
		ScoreBlob:   "ip1",
		MaxBatch:    maxBatch,
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

// gate lets a test hold the replicas busy. While it is held, every
// forward pass through a gatedLayer announces itself on entered and then
// blocks until open, so the test knows exactly which requests wait
// behind a busy replica and can form a batch without racing the batcher.
type gate struct {
	mu      sync.Mutex
	shut    chan struct{} // nil while the gate is open
	entered chan struct{}
}

// newGate returns an open gate. entered is buffered past any test's
// replica count, so a pass no test is waiting for (one left after a
// failure) still blocks only on the gate itself.
func newGate() *gate { return &gate{entered: make(chan struct{}, 16)} }

func (g *gate) hold() {
	g.mu.Lock()
	g.shut = make(chan struct{})
	g.mu.Unlock()
}

func (g *gate) open() {
	g.mu.Lock()
	if g.shut != nil {
		close(g.shut)
		g.shut = nil
	}
	g.mu.Unlock()
}

func (g *gate) pass() {
	g.mu.Lock()
	shut := g.shut
	g.mu.Unlock()
	if shut != nil {
		g.entered <- struct{}{}
		<-shut
	}
}

// gatedLayer is a layer whose forward pass waits at a gate first.
type gatedLayer struct {
	layers.Layer
	g *gate
}

func (l gatedLayer) ForwardRange(lo, hi int, bottom, top []*blob.Blob) {
	l.g.pass()
	l.Layer.ForwardRange(lo, hi, bottom, top)
}

// gatedConfig is testConfig with every replica's ip1 forward behind g;
// the scores are unchanged.
func gatedConfig(maxBatch int, g *gate) Config {
	cfg := testConfig(maxBatch)
	inner := cfg.Build
	cfg.Build = func(src layers.Source) ([]net.LayerSpec, error) {
		specs, err := inner(src)
		if err != nil {
			return nil, err
		}
		specs[2].Layer = gatedLayer{Layer: specs[2].Layer, g: g}
		return specs, nil
	}
	return cfg
}

// within waits for ch, failing the test after 10 s instead of hanging.
func within(t testing.TB, ch <-chan struct{}, what string) {
	t.Helper()
	select {
	case <-ch:
	case <-time.After(10 * time.Second):
		t.Fatalf("%s: nothing after 10 s", what)
	}
}

// submitSample admits a request for identity id without waiting for it.
func submitSample(t testing.TB, s *Server, id int) *Request {
	t.Helper()
	r := s.Acquire()
	fillSample(r.Input(), id)
	if err := s.submit(r); err != nil {
		t.Fatalf("submit(sample %d): %v", id, err)
	}
	return r
}

// holdReplicas holds g and sends one blocker request per replica
// (identities 1000 up), each a batch of one, returning once every
// replica is blocked inside its forward pass. A failing test opens the
// gate on cleanup, before the server's Close drains.
func holdReplicas(t testing.TB, s *Server, g *gate) []*Request {
	t.Helper()
	g.hold()
	t.Cleanup(g.open)
	blockers := make([]*Request, s.cfg.Replicas)
	for i := range blockers {
		blockers[i] = submitSample(t, s, 1000+i)
		within(t, g.entered, "blocker forward pass")
	}
	return blockers
}

// queueBehind admits n ≤ MaxBatch requests (identities 0..n-1) while
// every replica is held, and returns once the batcher has taken all of
// them off the queue: the batch they form is then decided before any
// replica frees up. The batcher signals nothing when it takes a
// request, so this polls the queue's length; only how long it waits
// depends on scheduling, never what the test sees.
func queueBehind(t testing.TB, s *Server, n int) []*Request {
	t.Helper()
	if n > s.cfg.MaxBatch {
		t.Fatalf("queueBehind(%d) over MaxBatch %d", n, s.cfg.MaxBatch)
	}
	reqs := make([]*Request, n)
	for i := range reqs {
		reqs[i] = submitSample(t, s, i)
	}
	for deadline := time.Now().Add(10 * time.Second); len(s.queue) > 0; {
		if time.Now().After(deadline) {
			t.Fatalf("%d of %d requests still queued after 10 s: the batcher stopped collecting behind busy replicas", len(s.queue), n)
		}
		time.Sleep(100 * time.Microsecond)
	}
	return reqs
}

// answers waits for every request and returns a copy of each one's
// scores, releasing the envelopes.
func answers(t testing.TB, s *Server, reqs []*Request) [][]float32 {
	t.Helper()
	out := make([][]float32, len(reqs))
	for i, r := range reqs {
		within(t, r.done, "answer")
		out[i] = append([]float32(nil), r.Scores()...)
		s.Release(r)
	}
	return out
}

// TestFullBatchFlush pins the full-flush path: MaxBatch requests queued
// behind a busy replica go out as one full batch when it frees up.
func TestFullBatchFlush(t *testing.T) {
	g := newGate()
	s := newTestServer(t, gatedConfig(4, g))
	s.Start()
	blockers := holdReplicas(t, s, g)
	reqs := queueBehind(t, s, 4)
	g.open()
	answers(t, s, blockers)
	answers(t, s, reqs)
	st := s.Stats()
	if st.FullFlushes != 1 || st.PartialFlushes != 1 {
		t.Fatalf("flushes: full=%d partial=%d, want 1/1 (the blocker is a partial flush of 1)", st.FullFlushes, st.PartialFlushes)
	}
	if st.Batches != 2 || st.Samples != 5 || st.Served != 5 {
		t.Fatalf("batches=%d samples=%d served=%d, want 2/5/5", st.Batches, st.Samples, st.Served)
	}
}

// TestIdleReplicaDispatchesAtOnce pins work conservation: a lone request
// on an idle server is a batch of one and is answered at once, not after
// some wait for the batch to fill.
func TestIdleReplicaDispatchesAtOnce(t *testing.T) {
	s := newTestServer(t, testConfig(32))
	s.Start()
	r := submitSample(t, s, 0)
	defer s.Release(r)
	select {
	case <-r.done:
	case <-time.After(2 * time.Second):
		t.Fatal("a lone request on an idle server was not answered within 2 s")
	}
	st := s.Stats()
	if st.PartialFlushes != 1 || st.FullFlushes != 0 || st.Batches != 1 || st.Served != 1 {
		t.Fatalf("stats %+v, want one partial flush of 1", st)
	}
}

// TestBatchGrowsWhileReplicaBusy: requests that arrive while the only
// replica is busy wait together and go out as one batch when it frees
// up, even though the batch never fills.
func TestBatchGrowsWhileReplicaBusy(t *testing.T) {
	g := newGate()
	s := newTestServer(t, gatedConfig(32, g))
	s.Start()
	blockers := holdReplicas(t, s, g)
	reqs := queueBehind(t, s, 5)
	g.open()
	answers(t, s, blockers)
	answers(t, s, reqs)
	st := s.Stats()
	if st.Batches != 2 || st.PartialFlushes != 2 || st.FullFlushes != 0 || st.Samples != 6 {
		t.Fatalf("stats %+v, want 2 partial batches: the blocker, then the 5 queued behind it", st)
	}
}

// TestNewRejectsMaxDelay: the batcher has no deadline, so a configured
// one is refused rather than ignored.
func TestNewRejectsMaxDelay(t *testing.T) {
	for _, d := range []time.Duration{2 * time.Millisecond, -time.Millisecond} {
		cfg := testConfig(4)
		cfg.MaxDelay = d
		if _, err := New(cfg); err == nil {
			t.Fatalf("New accepted MaxDelay %v", d)
		}
	}
}

// TestBackpressureRejects fills the bounded queue with no batcher
// running (the server is force-marked started) and checks the
// non-blocking rejection contract.
func TestBackpressureRejects(t *testing.T) {
	cfg := testConfig(4)
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
	s := newTestServer(t, testConfig(2))
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
	s := newTestServer(t, testConfig(4))
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
	ref := newTestServer(t, testConfig(1))
	ref.Start()
	const ids = 8
	want := make([][]float32, ids)
	for i := 0; i < ids; i++ {
		want[i] = doSample(t, ref, i)
	}

	s := newTestServer(t, testConfig(4))
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
	cfg := testConfig(maxBatch)
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
