// Package trace is the span-based observability subsystem behind the
// repository's measurement methodology (OBSERVABILITY.md), and the one
// per-layer timer: a Tracer records every timed interval as a Span
// carrying (layer, phase, schedule band, worker rank, iteration range,
// duration, FLOP/byte counters), and PerLayer folds the driver spans back
// into the paper's per-layer table. That is what the paper's §4 analysis
// needs — band-level parallelism, worker imbalance and the serial
// sections are invisible to an aggregate mean but obvious on a timeline.
//
// # Recording model
//
// A Tracer owns one ring-buffered shard per writer: shard 0 for the
// driving goroutine (RankDriver) and one shard per worker rank of the
// par.Pool team. Each shard has exactly one writer — the pool pins ranks
// to goroutines, and the driver records only between parallel regions —
// so the recording path is lock-free and allocation-free: an index
// bump and a struct store, no atomics, no channels. When a shard's ring
// fills, the oldest spans are overwritten and counted in Dropped().
//
// Reading (Snapshot, the exporters in chrome.go and report.go) must
// happen while no parallel region is in flight; the pool's fork/join
// barrier provides the happens-before edge that makes worker-shard reads
// safe without synchronization.
//
// # The nil-tracer contract
//
// All Tracer methods are safe on a nil receiver and do nothing, so
// instrumented code holds a plain *Tracer handle and pays one nil check
// (via Enabled) when tracing is off. Instrumentation sites must hoist the
// time.Now calls behind Enabled so that a nil tracer adds no clock reads
// to the hot path; see net.Forward for the idiom.
package trace

import (
	"sort"
	"sync/atomic"
	"time"
)

// Phase classifies what a span measures.
type Phase uint8

const (
	// PhaseForward is a forward pass (of a layer, or of one worker's band).
	PhaseForward Phase = iota
	// PhaseBackward is a backward pass.
	PhaseBackward
	// PhaseReduce is the coarse engine's gradient merge (Algorithm 5's
	// ordered reduction) — the serial section the paper's §3.2.1
	// overhead analysis singles out.
	PhaseReduce
	// PhaseUpdate is the solver's updateCoefficients step.
	PhaseUpdate
	// PhaseIteration is one full training iteration (forward + backward +
	// update); Lo carries the iteration number.
	PhaseIteration
	// PhaseRegion is a generic parallel region with no worksharing loop
	// (par.Pool.Region), e.g. the coarse backward's privatize+compute body.
	PhaseRegion
	// PhaseGuard is a training-health check (internal/guard): the NaN/Inf
	// and gradient-norm scan plus the recovery decision it produced, so
	// skips and rollbacks are visible on the training timeline.
	PhaseGuard
	// PhaseServe is a serving-path interval (internal/serve): one
	// dispatched inference batch, or one request's queue-to-completion
	// latency. Batch spans carry the batch size in Hi; request spans
	// carry the request's batch slot in Lo.
	PhaseServe
	// PhaseComm is a distributed-communication interval (internal/dist):
	// shipping a gradient slice, waiting on a peer's contribution, or
	// routing reduced slices / updated weights through the reduction
	// tree. Spans carry the element count in Hi and the peer rank in
	// Band, so the comm/compute overlap (DISTRIBUTED.md) is visible on
	// the timeline next to the backward spans it hides behind.
	PhaseComm
	// PhaseRecover is a fault-recovery interval (internal/dist's elastic
	// layer): fencing the cluster at a checkpoint, re-forming the
	// reduction tree over the survivors, or re-broadcasting weights to a
	// re-formed membership. Spans carry the fence iteration in Lo and the
	// new membership size in Hi, so the cost of surviving a failure is
	// visible on the timeline next to the iterations it interrupted.
	PhaseRecover
)

// phaseNames is the single source of truth for the phase vocabulary,
// indexed by Phase value. Everything that names a phase derives from
// this table: Phase.String, the Chrome-trace validator (chrome.go), the
// OBSERVABILITY.md phase table, and dnnlint's phasespan analyzer (which
// imports it via PhaseNames/KnownPhase). Adding a Phase means adding a
// row here — and nowhere else.
var phaseNames = [...]string{
	PhaseForward:   "forward",
	PhaseBackward:  "backward",
	PhaseReduce:    "reduce",
	PhaseUpdate:    "update",
	PhaseIteration: "iteration",
	PhaseRegion:    "region",
	PhaseGuard:     "guard",
	PhaseServe:     "serve",
	PhaseComm:      "comm",
	PhaseRecover:   "recover",
}

// PhaseNames returns the canonical phase vocabulary in Phase order.
// The returned slice is a copy; callers may keep it.
func PhaseNames() []string {
	out := make([]string, len(phaseNames))
	copy(out, phaseNames[:])
	return out
}

// KnownPhase reports whether name is in the phase vocabulary — the
// exact acceptance test the Chrome-trace validator applies to span
// categories, shared so tools (dnnlint's phasespan analyzer, external
// trace consumers) cannot drift from the exporter.
func KnownPhase(name string) bool {
	for _, n := range phaseNames {
		if n == name {
			return true
		}
	}
	return false
}

// String implements fmt.Stringer.
func (p Phase) String() string {
	if int(p) < len(phaseNames) {
		return phaseNames[p]
	}
	return "region"
}

// short is the compact phase tag used in exported span names.
func (p Phase) short() string {
	switch p {
	case PhaseForward:
		return "fwd"
	case PhaseBackward:
		return "bwd"
	case PhaseReduce:
		return "red"
	case PhaseUpdate:
		return "upd"
	case PhaseIteration:
		return "iter"
	case PhaseGuard:
		return "guard"
	case PhaseServe:
		return "srv"
	case PhaseComm:
		return "comm"
	case PhaseRecover:
		return "rcv"
	default:
		return "region"
	}
}

// RankDriver marks spans recorded by the driving goroutine (the layer
// loop, the solver) rather than a pool worker.
const RankDriver = -1

// Span is one timed interval.
type Span struct {
	// Name is the layer or region name ("conv1", "iteration").
	Name string
	// Phase classifies the interval.
	Phase Phase
	// Rank is the worker rank that executed the interval, or RankDriver.
	Rank int
	// Band is the static-schedule band of a worker span — the executing
	// rank — the peer rank of a comm span, or -1 otherwise.
	Band int
	// Lo and Hi delimit the coalesced iteration sub-range the span
	// covered (Lo == Hi when not applicable). PhaseIteration spans store
	// the iteration number in Lo.
	Lo, Hi int
	// Start is the span's start offset from the tracer epoch.
	Start time.Duration
	// Dur is the span's duration.
	Dur time.Duration
	// FLOPs counts the floating-point operations the interval performed
	// (0 when the layer does not report cost).
	FLOPs int64
	// Bytes counts the blob memory the interval touched (0 when unknown).
	Bytes int64
}

// End returns the span's end offset from the tracer epoch.
func (s Span) End() time.Duration { return s.Start + s.Dur }

// DefaultShardCapacity is the per-writer ring size of New. At ~100 bytes
// per span it bounds each shard to ~1.6 MB; a 200-iteration LeNet run
// records well under half of it per worker.
const DefaultShardCapacity = 1 << 14

// IterCapacity is the per-writer ring size that holds iters training
// iterations of a net with the given layer count without wrapping: per
// iteration a writer records at most three spans per layer (forward,
// backward, reduce) plus the solver's iteration, update and guard spans.
func IterCapacity(iters, layers int) int { return iters * (3*layers + 3) }

// shard is a single-writer span ring. pos is the overwrite cursor once
// the ring has wrapped (it then indexes the oldest span).
type shard struct {
	buf     []Span
	pos     int
	dropped int64
	_       [64]byte // keep adjacent shards off one cache line
}

func (sh *shard) add(s Span) {
	if len(sh.buf) < cap(sh.buf) {
		//dnnlint:ignore hotalloc ring fill within capacity pre-allocated by NewTracer; never grows
		sh.buf = append(sh.buf, s)
		return
	}
	sh.buf[sh.pos] = s
	sh.pos++
	if sh.pos == len(sh.buf) {
		sh.pos = 0
	}
	sh.dropped++
}

// snapshot returns the shard's spans in recording order.
func (sh *shard) snapshot() []Span {
	if sh.dropped == 0 {
		return append([]Span(nil), sh.buf...)
	}
	out := make([]Span, 0, len(sh.buf))
	out = append(out, sh.buf[sh.pos:]...)
	return append(out, sh.buf[:sh.pos]...)
}

// Tracer records spans from one driver goroutine and one pool worker
// team. Create it with the team size, attach it with the SetTracer hooks
// (solver → net → engine → pool), and export after training completes.
type Tracer struct {
	epoch  time.Time
	shards []*shard
	// scope is the (name, phase) label the driver sets before entering a
	// parallel region; workers stamp it onto their band spans. Written
	// only between regions, read inside them — the pool's channel
	// send/join orders the accesses.
	scopeName  string
	scopePhase Phase
	// droppedUnknown counts spans whose rank had no shard (a pool larger
	// than the tracer was created for). Atomic: any goroutine may trip it.
	droppedUnknown int64
}

// New creates a tracer for a team of `workers` pool ranks (plus the
// driver) with DefaultShardCapacity spans per writer. workers < 1 is
// treated as 1.
func New(workers int) *Tracer { return NewWithCapacity(workers, DefaultShardCapacity) }

// NewWithCapacity is New with an explicit per-writer ring capacity
// (minimum 1).
func NewWithCapacity(workers, perShard int) *Tracer {
	if workers < 1 {
		workers = 1
	}
	if perShard < 1 {
		perShard = 1
	}
	t := &Tracer{epoch: time.Now(), shards: make([]*shard, workers+1)}
	for i := range t.shards {
		t.shards[i] = &shard{buf: make([]Span, 0, perShard)}
	}
	return t
}

// Enabled reports whether the handle records anything; it is the nil
// check instrumented code hoists its time.Now calls behind.
func (t *Tracer) Enabled() bool { return t != nil }

// Workers returns the pool team size the tracer was created for.
func (t *Tracer) Workers() int {
	if t == nil {
		return 0
	}
	return len(t.shards) - 1
}

// Epoch returns the tracer's time origin.
func (t *Tracer) Epoch() time.Time {
	if t == nil {
		return time.Time{}
	}
	return t.epoch
}

// Now returns the current offset from the epoch.
func (t *Tracer) Now() time.Duration {
	if t == nil {
		return 0
	}
	return time.Since(t.epoch)
}

// Stamp converts an absolute time into an epoch offset.
func (t *Tracer) Stamp(at time.Time) time.Duration {
	if t == nil {
		return 0
	}
	return at.Sub(t.epoch)
}

// SetScope labels the parallel region the driver is about to enter;
// worker band spans recorded inside it carry this (name, phase). Must be
// called from the driving goroutine only, outside any region.
func (t *Tracer) SetScope(name string, phase Phase) {
	if t == nil {
		return
	}
	t.scopeName, t.scopePhase = name, phase
}

// Scope returns the current region label.
func (t *Tracer) Scope() (string, Phase) {
	if t == nil {
		return "", PhaseRegion
	}
	return t.scopeName, t.scopePhase
}

// Record stores one span on the writer shard selected by s.Rank. It is
// safe for concurrent use by the pool team because ranks are pinned to
// goroutines: each shard has exactly one writer. Spans with a rank the
// tracer has no shard for are dropped (counted in Dropped), never raced.
func (t *Tracer) Record(s Span) {
	if t == nil {
		return
	}
	idx := s.Rank + 1
	if idx < 0 || idx >= len(t.shards) {
		atomic.AddInt64(&t.droppedUnknown, 1)
		return
	}
	t.shards[idx].add(s)
}

// Dropped returns how many spans were lost to ring overflow or unknown
// ranks. Call it (like Snapshot) only while no region is in flight.
func (t *Tracer) Dropped() int64 {
	if t == nil {
		return 0
	}
	n := atomic.LoadInt64(&t.droppedUnknown)
	for _, sh := range t.shards {
		n += sh.dropped
	}
	return n
}

// Len returns the number of spans currently held.
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	n := 0
	for _, sh := range t.shards {
		n += len(sh.buf)
	}
	return n
}

// Snapshot copies all recorded spans, ordered by start time. It must run
// while no parallel region is in flight (after the pool's join), which
// is what makes the lock-free worker shards safe to read.
func (t *Tracer) Snapshot() []Span {
	if t == nil {
		return nil
	}
	out := make([]Span, 0, t.Len())
	for _, sh := range t.shards {
		out = append(out, sh.snapshot()...)
	}
	sortSpans(out)
	return out
}

// Reset discards all recorded spans and re-arms the epoch, keeping the
// shard capacity. Like Snapshot, driver-only, between regions.
func (t *Tracer) Reset() {
	if t == nil {
		return
	}
	for _, sh := range t.shards {
		sh.buf = sh.buf[:0]
		sh.pos = 0
		sh.dropped = 0
	}
	atomic.StoreInt64(&t.droppedUnknown, 0)
	t.epoch = time.Now()
}

// sortSpans orders spans by start offset (stable for equal starts, so
// enclosing driver spans precede the worker spans they contain when both
// start on the same tick).
func sortSpans(spans []Span) {
	// Shards are individually ordered, but a plain sort keeps the code
	// obvious; span counts are bounded by the ring capacities.
	sort.SliceStable(spans, func(i, j int) bool {
		if spans[i].Start != spans[j].Start {
			return spans[i].Start < spans[j].Start
		}
		return spans[i].Dur > spans[j].Dur
	})
}
