package serve

import (
	"fmt"
	"time"

	"coarsegrain/internal/blob"
	"coarsegrain/internal/layers"
	"coarsegrain/internal/net"
	"coarsegrain/internal/trace"
)

// feeder adapts the current batch of requests to the layers.Source
// interface so the network's own Data layer stages inputs — no second
// staging copy, no dataset on disk. Len is pinned at MaxBatch (the
// Data layer validates batch sizes against it); Read pulls sample i
// straight from request i's input buffer. Labels are meaningless when
// serving, so Read returns class 0.
//
// Read is on the request hot path: dnnlint's hotalloc analyzer holds
// feeder Read* methods to the training-pass standard (LINTING.md §4).
type feeder struct {
	shape   []int
	classes int
	batch   int
	reqs    []*Request
}

// Len implements layers.Source.
func (f *feeder) Len() int { return f.batch }

// SampleShape implements layers.Source.
func (f *feeder) SampleShape() []int { return f.shape }

// Classes implements layers.Source.
func (f *feeder) Classes() int { return f.classes }

// Read implements layers.Source: slot i of the staged batch.
func (f *feeder) Read(i int, out []float32) int {
	copy(out, f.reqs[i].in)
	return 0
}

// inferBand is how many samples of a dispatched batch a replica forwards
// at a time. The net — every activation blob — is sized for a band, not
// for MaxBatch: a quarter of the memory at the defaults, and a band's
// activations stay in cache from one layer to the next (through nets
// sized for the whole batch, LeNet forwards 8 samples in 1.30 ms and 32
// in 5.71 ms: 0.163 against 0.178 ms a sample).
// Nothing a response holds depends on the band: a forward pass is
// bit-identical at any batch size.
const inferBand = 8

// replica is one pre-warmed forward-only net plus its feeder. Replica 0
// owns the weights; the rest alias them via net.ShareParamsWith. Each
// replica is driven by exactly one worker goroutine, so Infer needs no
// locking.
type replica struct {
	rank   int
	srv    *Server
	feed   *feeder
	net    *net.Net
	data   *layers.Data
	scores *blob.Blob
	band   int // samples per forward pass: the batch the net was built at
	batch  int // batch size the net is currently shaped for
	seq    int // dispatched-batch sequence number (trace Band)
}

// newReplica builds one replica: fresh layer instances over a fresh
// feeder, training tail stripped, shaped for one band of a batch.
func newReplica(rank int, s *Server) (*replica, error) {
	band := min(s.cfg.MaxBatch, inferBand)
	f := &feeder{shape: s.cfg.SampleShape, classes: s.cfg.Classes, batch: band}
	specs, err := s.cfg.Build(f)
	if err != nil {
		return nil, fmt.Errorf("serve: replica %d build: %w", rank, err)
	}
	specs = StripTraining(specs)
	// Size the net for a band before it is built: a builder's own batch
	// (the zoo nets default to their training batch, 64 or 100) would
	// allocate every activation blob at that size first, and a later
	// shrink keeps the larger buffers.
	var dl *layers.Data
	for _, sp := range specs {
		if d, ok := sp.Layer.(*layers.Data); ok {
			dl = d
			break
		}
	}
	if dl == nil {
		return nil, fmt.Errorf("serve: replica %d: network has no Data layer", rank)
	}
	dl.SetBatchSize(band)
	n, err := net.NewForward(specs, nil)
	if err != nil {
		return nil, fmt.Errorf("serve: replica %d: %w", rank, err)
	}
	sb := n.Blob(s.cfg.ScoreBlob)
	if sb == nil {
		return nil, fmt.Errorf("serve: replica %d: no blob %q in network", rank, s.cfg.ScoreBlob)
	}
	if sb.Count() != band*s.cfg.Classes {
		return nil, fmt.Errorf("serve: replica %d: score blob %q has %d elements at batch %d, want %d classes per sample",
			rank, s.cfg.ScoreBlob, sb.Count(), band, s.cfg.Classes)
	}
	return &replica{rank: rank, srv: s, feed: f, net: n, data: dl, scores: sb, band: band, batch: band}, nil
}

// Infer runs one dynamic batch, a band at a time: stage the band's
// requests behind the feeder, resize the net if a short last band changed
// the batch size (buffer-reusing, so allocation-free once warmed), forward,
// scatter the score rows back into the requests; then signal completion of
// the whole batch. This is the
// steady-state request hot path — dnnlint's hotalloc analyzer enforces
// that its loops allocate nothing (LINTING.md §4).
func (rep *replica) Infer(reqs []*Request) {
	start := time.Now()
	b := len(reqs)
	cls := rep.feed.classes
	for lo := 0; lo < b; lo += rep.band {
		band := reqs[lo:min(lo+rep.band, b)]
		rep.feed.reqs = band
		if len(band) != rep.batch {
			rep.data.SetBatchSize(len(band))
			rep.net.Reshape()
			rep.batch = len(band)
		}
		rep.data.Rewind()
		rep.net.Forward()
		out := rep.scores.Data()
		for i, r := range band {
			copy(r.scores, out[i*cls:(i+1)*cls])
		}
	}
	rep.feed.reqs = nil
	end := time.Now()

	tr := rep.srv.cfg.Tracer
	if tr.Enabled() {
		// Single-writer discipline: every span lands on this replica's
		// rank shard, and only this worker goroutine writes it.
		tr.Record(trace.Span{
			Name: "batch", Phase: trace.PhaseServe, Rank: rep.rank, Band: rep.seq,
			Lo: 0, Hi: b, Start: tr.Stamp(start), Dur: end.Sub(start),
		})
		for i, r := range reqs {
			tr.Record(trace.Span{
				Name: "request", Phase: trace.PhaseServe, Rank: rep.rank, Band: rep.seq,
				Lo: i, Hi: i + 1, Start: tr.Stamp(r.enq), Dur: end.Sub(r.enq),
			})
		}
	}
	rep.seq++

	var lat int64
	for _, r := range reqs {
		lat += int64(end.Sub(r.enq))
	}
	s := rep.srv
	s.batches.Add(1)
	s.samples.Add(int64(b))
	s.served.Add(int64(b))
	s.latencyNS.Add(lat)
	for _, r := range reqs {
		r.done <- struct{}{}
	}
}
