// Package serve is the inference serving engine behind cmd/dnnserve: it
// turns a trained snapshot into a long-running prediction service whose
// throughput comes from the same observation the training side exploits —
// batched forward passes amortize per-call overheads (GEMM panel packing,
// layer dispatch) across samples (SERVING.md).
//
// # Architecture
//
// Concurrent single-sample requests enter a bounded queue. A single
// batcher goroutine coalesces them into dynamic batches without ever
// waiting on a clock: the moment a replica is idle it takes every
// request already queued (a partial flush, up to MaxBatch), and while
// every replica is busy the batch grows from the queue until it reaches
// MaxBatch (a full flush). A lone request on an idle server is therefore
// a batch of one, and under load batches fill while the replicas work.
// Batches are executed by a pre-warmed pool of Replicas forward-only
// nets (net.NewForward) that share one copy of the weights
// (net.ShareParamsWith), so R replicas cost one net's parameters plus R
// sets of activations.
//
// # Determinism
//
// A batched forward is bit-identical to the serial single-request
// forward of each sample: every serving-path layer treats batch rows
// independently, and the blocked GEMM's row-band partitioning (PR 1's
// invariance property) makes each output row a function of that row's
// inputs only. The golden test in golden_test.go pins this.
//
// # Steady-state allocation
//
// After Start's warm-up pass at MaxBatch, the request hot path
// (replica.Infer, feeder.Read, and the net.Forward under them) performs
// no heap allocation: blob buffers are reused across dynamic batch sizes
// (capacity warmed at the maximum), request envelopes are pooled, and
// batch slices circulate through a free list. dnnlint's hotalloc
// analyzer enforces the loops of Infer/Read exactly like a training
// Forward pass (LINTING.md §4).
//
// # Backpressure
//
// Submit never blocks: when the queue is full the request is rejected
// with ErrOverloaded, which the HTTP layer maps to 429 + Retry-After.
// A bounded queue keeps worst-case latency proportional to
// QueueDepth/throughput instead of unbounded under overload.
package serve

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"coarsegrain/internal/layers"
	"coarsegrain/internal/net"
	"coarsegrain/internal/snapshot"
	"coarsegrain/internal/trace"
)

// Builder constructs a fresh copy of the model's layer specs over the
// given source. Each replica gets its own layer instances (layers hold
// per-pass scratch); parameter blobs are shared afterwards via
// net.ShareParamsWith. Training-tail layers in the result are stripped
// with StripTraining, so zoo builders can be used directly.
type Builder func(src layers.Source) ([]net.LayerSpec, error)

// Config assembles a Server.
type Config struct {
	// Build constructs the network over the serving input source.
	// Required.
	Build Builder
	// SampleShape is the per-sample input shape (channels, height,
	// width). Required.
	SampleShape []int
	// Classes is the number of output scores per sample. Required.
	Classes int
	// ScoreBlob names the network blob holding the per-sample class
	// scores (e.g. "ip2" for the zoo LeNet). Required.
	ScoreBlob string
	// Model is a display name reported by /v1/info.
	Model string

	// MaxBatch is the batch the batcher coalesces up to — the serving
	// analogue of the paper's band size. Default 32.
	MaxBatch int
	// MaxDelay must be zero: the batcher has no deadline, and New
	// rejects any other value. The field is kept only because
	// benchmark/serve.go reads Config().MaxDelay as the timer every
	// request sits out, which is now none.
	MaxDelay time.Duration
	// Replicas is the number of pre-warmed forward-only nets executing
	// batches. They share one copy of the weights. Default 1; more than
	// one only helps when batches overlap (multi-core hosts).
	Replicas int
	// QueueDepth bounds the admission queue; a full queue rejects with
	// ErrOverloaded. Default 4*MaxBatch.
	QueueDepth int

	// Tracer, when non-nil, records a PhaseServe batch span and one
	// request span per sample on the replica's rank shard. Create it
	// with trace.New(Replicas) or larger so every replica has a shard.
	Tracer *trace.Tracer
}

// Submission errors returned by Do.
var (
	// ErrOverloaded reports a full admission queue; the HTTP layer maps
	// it to 429 Too Many Requests with a Retry-After hint.
	ErrOverloaded = errors.New("serve: admission queue full")
	// ErrClosed reports a submission after Close.
	ErrClosed = errors.New("serve: server closed")
	// ErrNotStarted reports a submission before Start.
	ErrNotStarted = errors.New("serve: server not started")
)

// Request is one inference request: fill Input, pass it to Do, read
// Scores. Requests are pooled — Acquire one, Release it when the scores
// have been consumed, and do not retain either slice across Release.
type Request struct {
	in     []float32
	scores []float32
	done   chan struct{}
	enq    time.Time
}

// Input returns the request's input buffer (length = product of the
// server's SampleShape), to be filled before Do.
func (r *Request) Input() []float32 { return r.in }

// Scores returns the per-class scores filled in by Do.
func (r *Request) Scores() []float32 { return r.scores }

// Argmax returns the index of the highest score in scores.
func Argmax(scores []float32) int {
	best := 0
	for i, v := range scores {
		if v > scores[best] {
			best = i
		}
	}
	return best
}

// Server owns the admission queue, the batcher and the replica pool.
// Build with New, load weights with LoadSnapshot, then Start. All
// exported methods are safe for concurrent use once Start has returned.
type Server struct {
	cfg       Config
	sampleLen int

	queue    chan *Request
	dispatch chan []*Request
	free     chan []*Request
	replicas []*replica
	reqPool  sync.Pool

	mu          sync.RWMutex // guards closed/started against Submit's queue send
	closed      bool
	started     bool
	wg          sync.WaitGroup
	batcherDone chan struct{}

	received       atomic.Int64
	rejected       atomic.Int64
	served         atomic.Int64
	batches        atomic.Int64
	samples        atomic.Int64
	fullFlushes    atomic.Int64
	partialFlushes atomic.Int64
	latencyNS      atomic.Int64
}

// New assembles a server: builds Replicas forward-only nets over
// per-replica feeders, shares replica 0's weights into the others, and
// sizes the queue and batch free list. The server is idle until Start.
func New(cfg Config) (*Server, error) {
	if cfg.Build == nil {
		return nil, errors.New("serve: Config.Build is required")
	}
	if len(cfg.SampleShape) == 0 {
		return nil, errors.New("serve: Config.SampleShape is required")
	}
	if cfg.Classes <= 0 {
		return nil, errors.New("serve: Config.Classes must be positive")
	}
	if cfg.ScoreBlob == "" {
		return nil, errors.New("serve: Config.ScoreBlob is required")
	}
	if cfg.MaxBatch <= 0 {
		cfg.MaxBatch = 32
	}
	if cfg.MaxDelay != 0 {
		return nil, fmt.Errorf("serve: Config.MaxDelay is %v, must be zero: the batcher has no deadline", cfg.MaxDelay)
	}
	if cfg.Replicas <= 0 {
		cfg.Replicas = 1
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 4 * cfg.MaxBatch
	}
	sampleLen := 1
	for _, d := range cfg.SampleShape {
		if d <= 0 {
			return nil, fmt.Errorf("serve: bad sample shape %v", cfg.SampleShape)
		}
		sampleLen *= d
	}
	s := &Server{
		cfg:         cfg,
		sampleLen:   sampleLen,
		queue:       make(chan *Request, cfg.QueueDepth),
		dispatch:    make(chan []*Request),
		free:        make(chan []*Request, cfg.Replicas+1),
		batcherDone: make(chan struct{}),
	}
	// One batch slice per replica plus one in the batcher's hands keeps
	// the free list from ever blocking a worker's return.
	for i := 0; i < cfg.Replicas+1; i++ {
		s.free <- make([]*Request, 0, cfg.MaxBatch)
	}
	for r := 0; r < cfg.Replicas; r++ {
		rep, err := newReplica(r, s)
		if err != nil {
			return nil, err
		}
		if r > 0 {
			if err := rep.net.ShareParamsWith(s.replicas[0].net); err != nil {
				return nil, fmt.Errorf("serve: replica %d: %w", r, err)
			}
		}
		s.replicas = append(s.replicas, rep)
	}
	s.reqPool.New = func() any {
		return &Request{
			in:     make([]float32, sampleLen),
			scores: make([]float32, cfg.Classes),
			done:   make(chan struct{}, 1),
		}
	}
	return s, nil
}

// SampleLen returns the flattened per-sample input length.
func (s *Server) SampleLen() int { return s.sampleLen }

// Config returns the (defaulted) configuration the server runs with.
func (s *Server) Config() Config { return s.cfg }

// LoadSnapshot restores trained coefficients into the shared weight set
// from a snapshot file (format v2, SNAPSHOT.md). Training-only sections
// (solver state, gradients) are ignored. Call before Start: replicas
// read the shared weights without synchronization.
func (s *Server) LoadSnapshot(path string) error {
	s.mu.RLock()
	started := s.started
	s.mu.RUnlock()
	if started {
		return errors.New("serve: LoadSnapshot after Start")
	}
	return snapshot.LoadNetFile(path, s.replicas[0].net)
}

// Start warms every replica with one full-size batch (so blob and GEMM
// scratch capacities reach their steady-state maximum and the request
// path allocates nothing afterwards), zeroes the warm-up out of the
// stats, and launches the batcher and replica workers.
func (s *Server) Start() {
	s.mu.Lock()
	if s.started || s.closed {
		s.mu.Unlock()
		return
	}
	s.started = true
	s.mu.Unlock()

	warm := make([]*Request, s.cfg.MaxBatch)
	for i := range warm {
		warm[i] = s.Acquire()
	}
	for _, rep := range s.replicas {
		rep.Infer(warm)
		for _, r := range warm {
			<-r.done
		}
	}
	for _, r := range warm {
		s.Release(r)
	}
	// Warm-up is not traffic: drop its spans and counters so exported
	// timelines and /v1/stats describe served requests only.
	if s.cfg.Tracer.Enabled() {
		s.cfg.Tracer.Reset()
	}
	s.resetStats()

	go s.batchLoop()
	for _, rep := range s.replicas {
		s.wg.Add(1)
		go s.replicaLoop(rep)
	}
}

// replicaLoop executes dispatched batches on one replica until the
// batcher closes the dispatch channel, recycling batch slices through
// the free list.
func (s *Server) replicaLoop(rep *replica) {
	defer s.wg.Done()
	for batch := range s.dispatch {
		rep.Infer(batch)
		s.free <- batch[:0]
	}
}

// Acquire returns a pooled request with Input and Scores sized for the
// model. Pair with Release.
func (s *Server) Acquire() *Request { return s.reqPool.Get().(*Request) }

// Release returns a request to the pool. The caller must be done with
// both Input and Scores.
func (s *Server) Release(r *Request) { s.reqPool.Put(r) }

// Do submits the request and blocks until its scores are filled. It
// returns without blocking when the server is overloaded
// (ErrOverloaded), closed (ErrClosed) or not yet started
// (ErrNotStarted).
func (s *Server) Do(r *Request) error {
	if err := s.submit(r); err != nil {
		return err
	}
	<-r.done
	return nil
}

// submit enqueues without blocking. The read lock spans the queue send
// so Close's close(s.queue) (taken under the write lock) can never race
// a send on the closed channel.
func (s *Server) submit(r *Request) error {
	r.enq = time.Now()
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.closed {
		return ErrClosed
	}
	if !s.started {
		return ErrNotStarted
	}
	select {
	case s.queue <- r:
		s.received.Add(1)
		return nil
	default:
		s.rejected.Add(1)
		return ErrOverloaded
	}
}

// Close drains and answers every admitted request, then stops the
// batcher and the replica workers. Subsequent submissions return
// ErrClosed. Close is idempotent.
func (s *Server) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	started := s.started
	if started {
		close(s.queue)
	}
	s.mu.Unlock()
	if !started {
		return
	}
	<-s.batcherDone
	s.wg.Wait()
}

// Stats is a point-in-time counter snapshot.
type Stats struct {
	// Received counts admitted requests; Rejected counts queue-full
	// rejections; Served counts completed requests.
	Received, Rejected, Served int64
	// Batches counts dispatched batches; Samples is the sum of their
	// sizes (equal to Served).
	Batches, Samples int64
	// FullFlushes counts batches dispatched at MaxBatch; PartialFlushes
	// counts batches handed to an idle replica before they were full.
	FullFlushes, PartialFlushes int64
	// MeanBatch is Samples/Batches.
	MeanBatch float64
	// MeanLatency is the mean queue-to-completion request latency.
	MeanLatency time.Duration
}

// Stats returns the current counters.
func (s *Server) Stats() Stats {
	st := Stats{
		Received:       s.received.Load(),
		Rejected:       s.rejected.Load(),
		Served:         s.served.Load(),
		Batches:        s.batches.Load(),
		Samples:        s.samples.Load(),
		FullFlushes:    s.fullFlushes.Load(),
		PartialFlushes: s.partialFlushes.Load(),
	}
	if st.Batches > 0 {
		st.MeanBatch = float64(st.Samples) / float64(st.Batches)
	}
	if st.Served > 0 {
		st.MeanLatency = time.Duration(s.latencyNS.Load() / st.Served)
	}
	return st
}

func (s *Server) resetStats() {
	s.received.Store(0)
	s.rejected.Store(0)
	s.served.Store(0)
	s.batches.Store(0)
	s.samples.Store(0)
	s.fullFlushes.Store(0)
	s.partialFlushes.Store(0)
	s.latencyNS.Store(0)
}

// StripTraining removes trailing training-only layers (SoftmaxWithLoss,
// EuclideanLoss, Accuracy) from specs, leaving the raw score blob as the
// network output — serving returns scores, softmax being monotone the
// argmax is unchanged and callers wanting probabilities can normalize
// client-side. Zoo builders compose directly: StripTraining(zoo.LeNet(...)).
func StripTraining(specs []net.LayerSpec) []net.LayerSpec {
	for len(specs) > 0 {
		switch specs[len(specs)-1].Layer.Type() {
		case "SoftmaxWithLoss", "EuclideanLoss", "Accuracy":
			specs = specs[:len(specs)-1]
		default:
			return specs
		}
	}
	return specs
}
