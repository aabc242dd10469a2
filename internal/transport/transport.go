// Package transport abstracts point-to-point messaging between the
// replicas of a distributed data-parallel training run (DISTRIBUTED.md).
// It is the seam that lets the gradient reduction in internal/dist run
// unchanged over an in-process channel fabric (deterministic, race-
// testable, simtime-modelable) and over length-prefixed TCP between real
// processes — the FireCaffe-style path from one node to a cluster.
//
// # The model
//
// A training group is Size() ranks, 0..Size()-1; rank 0 is the
// coordinator (it owns the solver). Every rank holds one Transport whose
// Send and Recv address peers by rank. Messages are float32 payloads
// labeled by a Tag that encodes (kind, membership epoch, iteration,
// parameter, origin); the reduction protocol in internal/dist is
// lock-step, so a receiver always knows exactly which tag it expects
// next on each link.
//
// # Data plane and control plane
//
// Send/Recv are the data plane: lock-step, per-link FIFO, used for
// gradients, reduced slices, weights, and losses. SendCtrl/RecvCtrl are
// the out-of-band control plane used by the elastic supervisor in
// internal/dist: heartbeats (KindPing/KindPong), membership fences
// (KindFence/KindAck), and rejoin requests (KindJoin). Control frames
// bypass the data-plane queues so a heartbeat or fence gets through even
// while a data Recv is blocked; delivery is best-effort (a slow consumer
// may shed control frames) because the fencing protocol re-sends until
// acknowledged. Interrupt poisons blocked data-plane Recvs with a caller
// supplied error so a supervisor can unwind a wedged lock-step loop;
// Resume clears the interrupt for the next membership epoch.
//
// # Delivery guarantees
//
// Each ordered pair of ranks is an independent FIFO link: messages from
// one sender arrive in send order. Send is asynchronous (it enqueues and
// returns, which is what lets internal/dist overlap gradient shipping
// with backward compute) and Recv blocks until the expected message
// arrives. Links are reliable: a frame is delivered once, or the link
// fails (ErrClosed, *PeerDownError) and the error is final. Recv
// discards only stale frames — leftovers from a completed iteration or
// an abandoned membership epoch, which a fence leaves behind; any other
// unexpected tag, a repeated one included, is a protocol violation and
// fails loudly with *UnexpectedTagError rather than silently
// desynchronizing the group.
//
// # Implementations
//
// NewLocalGroup wires Size in-process endpoints (goroutine-per-replica,
// used by tests and dnncluster's single-process mode); NewCoordinator /
// DialTCP build a full mesh of TCP connections across processes via a
// coordinator rendezvous.
//
// # Payload buffers
//
// Send never keeps the caller's slice: Local copies the payload into a
// buffer from the receiving inbox's free list, TCP encodes it — the
// float32s' little-endian image, one memmove on a little-endian host —
// into a buffer from the link writer's free list, and on arrival reads
// the body straight into a buffer from the inbox's free list. Recv copies
// a payload into buf, and the frame's buffer goes back to its link's
// free list, so a warm link allocates nothing per frame. Control frames
// are the exception: RecvCtrl hands their payloads to the caller to keep.
//
// # Decorators
//
// Three types wrap another Transport: NewChaos injects one
// crash/hang/partition/straggle failure at a configured iteration
// (faultinject.ClusterScenario draws a seeded one); NewView re-ranks a subset of a
// group after an elastic membership change (ROBUSTNESS.md); NewMeter
// counts what a rank puts on the wire. Each embeds the Transport it
// wraps and defines only the methods whose behaviour it changes, so
// whatever it does not mention — and any method the interface grows —
// passes through by construction rather than by a hand-written
// forwarder (TestInjectorsPassAllKindsThrough is the audit). They stay
// three types because they compose (dnncluster stacks Chaos under dist's
// View) and each has one job.
package transport

import (
	"errors"
	"fmt"
	"sync"
	"time"
)

// Kind classifies what a message carries; it is part of the Tag so that
// the phases of one iteration can never be confused on a link.
type Kind uint8

const (
	// KindGrad is a raw gradient-slice contribution shipped to the
	// slice's owner during the scatter phase.
	KindGrad Kind = iota
	// KindGather is a reduced slice routed up the reduction tree.
	KindGather
	// KindBcast is an updated parameter tensor routed down the tree.
	KindBcast
	// KindLoss is a replica's scalar batch loss, sent to the coordinator.
	KindLoss
	// KindSync is a full parameter tensor broadcast down the tree after a
	// fence or resume, re-seeding every member with the coordinator's
	// weights before lock-step stepping restarts.
	KindSync
	// KindPing is a coordinator heartbeat probe (control plane).
	KindPing
	// KindPong answers a ping; its payload carries the worker's training
	// progress and the rank it is currently blocked on (control plane).
	KindPong
	// KindFence announces a membership change: the group abandons the
	// current iteration and re-forms at the fenced checkpoint (control
	// plane).
	KindFence
	// KindJoin asks the coordinator to admit this rank at the next
	// iteration boundary (control plane).
	KindJoin
	// KindAck acknowledges a fence; the coordinator holds the new epoch's
	// data plane until every member has acked (control plane).
	KindAck

	// KindCount is the number of message kinds. New kinds must be added
	// above it (the Tag layout holds 4 bits, so at most 16): MakeTagE
	// range-checks against KindCount rather than a named last kind, so a
	// freshly added kind is routable the moment it exists instead of
	// panicking in the tag packer — and wrappers that switch per kind
	// (Meter's byte accounting) size their tables from it so new kinds
	// pass through counted, never silently dropped.
	KindCount
)

// Ctrl reports whether the kind travels on the control plane
// (SendCtrl/RecvCtrl) rather than the data plane (Send/Recv).
func (k Kind) Ctrl() bool {
	switch k {
	case KindPing, KindPong, KindFence, KindJoin, KindAck:
		return true
	}
	return false
}

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case KindGrad:
		return "grad"
	case KindGather:
		return "gather"
	case KindBcast:
		return "bcast"
	case KindLoss:
		return "loss"
	case KindSync:
		return "sync"
	case KindPing:
		return "ping"
	case KindPong:
		return "pong"
	case KindFence:
		return "fence"
	case KindJoin:
		return "join"
	case KindAck:
		return "ack"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// Tag labels one message: kind (4 bits) | membership epoch (8 bits) |
// iteration (22 bits) | parameter index (14 bits) | origin rank
// (16 bits). The iteration field is what lets receivers recognize and
// discard stale leftovers from finished iterations; the epoch field
// does the same across elastic membership changes, where ranks are
// re-numbered and tag fields from the abandoned group would otherwise
// alias the new one's.
type Tag uint64

const (
	// MaxEpoch is the largest membership epoch a Tag can carry; each
	// fence or rejoin consumes one epoch.
	MaxEpoch = 1<<8 - 1
	// MaxIter is the largest iteration a Tag can carry.
	MaxIter = 1<<22 - 1
)

// MakeTag packs a message label for membership epoch 0 (a group that has
// never fenced). Fields out of range panic: the protocol would silently
// alias tags otherwise.
func MakeTag(k Kind, iter, param, origin int) Tag {
	return MakeTagE(k, 0, iter, param, origin)
}

// MakeTagE packs a message label carrying an explicit membership epoch.
func MakeTagE(k Kind, epoch, iter, param, origin int) Tag {
	if k >= KindCount {
		panic(fmt.Sprintf("transport: kind %d out of range", k))
	}
	if epoch < 0 || epoch > MaxEpoch {
		panic(fmt.Sprintf("transport: epoch %d out of range", epoch))
	}
	if iter < 0 || iter > MaxIter {
		panic(fmt.Sprintf("transport: iteration %d out of range", iter))
	}
	if param < 0 || param >= 1<<14 {
		panic(fmt.Sprintf("transport: parameter index %d out of range", param))
	}
	if origin < 0 || origin >= 1<<16 {
		panic(fmt.Sprintf("transport: origin rank %d out of range", origin))
	}
	return Tag(uint64(k)<<60 | uint64(epoch)<<52 | uint64(iter)<<30 | uint64(param)<<16 | uint64(origin))
}

// Kind returns the message kind field.
func (t Tag) Kind() Kind { return Kind(t >> 60) }

// Epoch returns the membership-epoch field.
func (t Tag) Epoch() int { return int(t >> 52 & MaxEpoch) }

// Iter returns the iteration field.
func (t Tag) Iter() int { return int(t >> 30 & MaxIter) }

// Param returns the parameter-index field.
func (t Tag) Param() int { return int(t >> 16 & (1<<14 - 1)) }

// Origin returns the origin-rank field.
func (t Tag) Origin() int { return int(t & (1<<16 - 1)) }

// String implements fmt.Stringer.
func (t Tag) String() string {
	if e := t.Epoch(); e != 0 {
		return fmt.Sprintf("%s{epoch %d, iter %d, param %d, origin %d}", t.Kind(), e, t.Iter(), t.Param(), t.Origin())
	}
	return fmt.Sprintf("%s{iter %d, param %d, origin %d}", t.Kind(), t.Iter(), t.Param(), t.Origin())
}

// ErrClosed is returned by operations on a closed transport.
var ErrClosed = errors.New("transport: closed")

// ErrPeerDown marks a peer the group has given up on: its link died or
// its heartbeats stopped for longer than the configured timeout. It must
// not be retried against the same membership — the caller fences and
// re-forms the group without the peer (or aborts).
// Match with errors.Is; the concrete *PeerDownError names the rank.
var ErrPeerDown = errors.New("transport: peer down")

// ErrCtrlTimeout is returned by RecvCtrl when no control frame arrived
// within the caller's timeout. It is an ordinary outcome for a
// heartbeat listener, not a failure of the transport.
var ErrCtrlTimeout = errors.New("transport: control receive timed out")

// PeerDownError reports a dead peer: a broken link, a missed heartbeat
// deadline, or an evicted straggler. errors.Is(err, ErrPeerDown) is true.
type PeerDownError struct {
	Rank  int
	Cause error
}

// Error implements error.
func (e *PeerDownError) Error() string {
	if e.Cause != nil {
		return fmt.Sprintf("transport: peer rank %d down: %v", e.Rank, e.Cause)
	}
	return fmt.Sprintf("transport: peer rank %d down", e.Rank)
}

// Unwrap exposes the underlying cause.
func (e *PeerDownError) Unwrap() error { return e.Cause }

// Is matches the ErrPeerDown sentinel.
func (e *PeerDownError) Is(target error) bool { return target == ErrPeerDown }

// UnexpectedTagError reports a protocol violation: a frame arrived that
// is neither the expected message nor a stale leftover (a repeat of a
// tag already delivered this iteration is one).
// The lock-step reduction protocol cannot recover from this; callers
// must fail the run loudly.
type UnexpectedTagError struct {
	From      int
	Got, Want Tag
}

// Error implements error.
func (e *UnexpectedTagError) Error() string {
	return fmt.Sprintf("transport: unexpected frame from rank %d: got %v, want %v", e.From, e.Got, e.Want)
}

// PeerError reports an out-of-range or self-addressed peer rank — a
// topology bug in the caller, never a transient fault.
type PeerError struct {
	Op         string
	Rank, Peer int
	Size       int
}

// Error implements error.
func (e *PeerError) Error() string {
	return fmt.Sprintf("transport: rank %d cannot %s rank %d (group size %d)", e.Rank, e.Op, e.Peer, e.Size)
}

// SizeMismatchError reports a frame whose payload length differs from
// the receiver's buffer — a wiring bug (mismatched nets), never a
// transient fault.
type SizeMismatchError struct {
	From      int
	Tag       Tag
	Got, Want int
}

// Error implements error.
func (e *SizeMismatchError) Error() string {
	return fmt.Sprintf("transport: frame %v from rank %d has %d elements, want %d", e.Tag, e.From, e.Got, e.Want)
}

// Transport is one rank's endpoint into the training group.
//
// Send enqueues a copy of payload for delivery to rank `to` and returns
// without waiting for the receiver (per-link FIFO order is preserved).
// Recv blocks until the frame labeled `tag` arrives from rank `from`
// and copies its payload into buf, whose length must equal the sender's
// payload length; the frame's own buffer then goes back to the link's
// free list for a later frame of the same length. Concurrent Sends are safe; Recv must be called by one
// goroutine per link at a time (the lock-step protocol does so
// naturally). SendCtrl/RecvCtrl move out-of-band control frames; one
// goroutine per link should consume RecvCtrl. Interrupt makes pending
// and future data-plane Recvs return err until Resume clears it — the
// elastic supervisor's handle for unwinding a lock-step loop that is
// blocked on a dead peer. Close releases the endpoint and unblocks
// pending Recvs with ErrClosed.
type Transport interface {
	// Rank returns this endpoint's rank in [0, Size).
	Rank() int
	// Size returns the group size.
	Size() int
	// Send enqueues payload for rank to under tag (data plane).
	Send(to int, tag Tag, payload []float32) error
	// Recv blocks until the frame labeled tag arrives from rank from and
	// copies its payload into buf; the frame's buffer is recycled.
	Recv(from int, tag Tag, buf []float32) error
	// SendCtrl enqueues a control frame for rank to. Best-effort: a slow
	// or dead receiver may shed it.
	SendCtrl(to int, tag Tag, payload []float32) error
	// RecvCtrl returns the next control frame from rank from, waiting at
	// most timeout (ErrCtrlTimeout on expiry). The returned payload is
	// owned by the caller.
	RecvCtrl(from int, timeout time.Duration) (Tag, []float32, error)
	// Interrupt poisons blocked and future data-plane Recvs with err.
	Interrupt(err error)
	// Resume clears a previous Interrupt.
	Resume()
	// Close shuts the endpoint down.
	Close() error
}

// frame is one in-flight message.
type frame struct {
	tag     Tag
	payload []float32
}

// ctrlQueueCap bounds each control-plane link queue. Control traffic is
// tiny (heartbeats, fences); a queue this deep only fills if the
// consumer is gone, in which case shedding is the right behavior — the
// fence protocol re-sends until acknowledged.
const ctrlQueueCap = 256

// inbox is the per-link receive queue shared by the Local and TCP
// transports: a FIFO of frames and the matching discipline of Recv. One
// writer side
// (push/fail/close) and one reader side (recv) may run concurrently;
// interrupt/resume may be called from a supervisor goroutine.
type inbox struct {
	mu     sync.Mutex
	cond   *sync.Cond
	frames fifo[frame]
	// free holds the payload buffers recv has copied out, keyed by length,
	// for the writer side's next frames on this link (take). Control
	// frames never pass through an inbox, so never through free.
	free   freeList[float32]
	err    error // permanent failure (dead link)
	intr   error // soft interrupt, cleared by resume
	closed bool
}

func newInbox() *inbox {
	ib := &inbox{free: freeList[float32]{}}
	ib.cond = sync.NewCond(&ib.mu)
	return ib
}

// take returns an n-element payload buffer for the writer side to fill
// and push: one recv has finished with, when the link has one.
func (ib *inbox) take(n int) []float32 {
	ib.mu.Lock()
	defer ib.mu.Unlock()
	return ib.free.get(n)
}

// push appends a frame (writer side). The payload must be owned by the
// inbox: a buffer from take, filled by the caller.
func (ib *inbox) push(f frame) {
	ib.mu.Lock()
	if !ib.closed {
		ib.frames.push(f)
		ib.cond.Signal()
	}
	ib.mu.Unlock()
}

// fail poisons the inbox permanently: once queued frames drain, pending
// and future recvs return err.
func (ib *inbox) fail(err error) {
	ib.mu.Lock()
	if ib.err == nil {
		ib.err = err
	}
	ib.cond.Broadcast()
	ib.mu.Unlock()
}

// interrupt poisons the inbox softly: a recv with no deliverable frame
// returns err instead of blocking, until resume clears it. Frames
// already queued still win over the interrupt, so a completed iteration
// is never torn down retroactively.
func (ib *inbox) interrupt(err error) {
	ib.mu.Lock()
	if ib.intr == nil {
		ib.intr = err
	}
	ib.cond.Broadcast()
	ib.mu.Unlock()
}

// resume clears a soft interrupt.
func (ib *inbox) resume() {
	ib.mu.Lock()
	ib.intr = nil
	ib.mu.Unlock()
}

// close marks the inbox closed; pending recvs return ErrClosed.
func (ib *inbox) close() {
	ib.mu.Lock()
	ib.closed = true
	ib.cond.Broadcast()
	ib.mu.Unlock()
}

// staleTag reports whether got belongs to an earlier (epoch, iteration)
// than want — a leftover from a finished iteration or an abandoned
// membership epoch, safe to discard.
func staleTag(got, want Tag) bool {
	if got.Epoch() != want.Epoch() {
		return got.Epoch() < want.Epoch()
	}
	return got.Iter() < want.Iter()
}

// recv implements the matching discipline documented on Transport.Recv:
// deliver want, discard stale iterations/epochs, reject anything else. from is only used for error reporting. Every frame it
// takes off the queue, delivered or not, returns its payload buffer to
// the free list.
func (ib *inbox) recv(from int, want Tag, buf []float32) error {
	ib.mu.Lock()
	defer ib.mu.Unlock()
	for {
		for ib.frames.len() == 0 {
			if ib.intr != nil {
				return ib.intr
			}
			if ib.err != nil {
				return ib.err
			}
			if ib.closed {
				return ErrClosed
			}
			ib.cond.Wait()
		}
		f := ib.frames.pop()
		var err error
		switch {
		case f.tag == want:
			if len(f.payload) != len(buf) {
				err = &SizeMismatchError{From: from, Tag: f.tag, Got: len(f.payload), Want: len(buf)}
				break
			}
			copy(buf, f.payload)
		case staleTag(f.tag, want):
			// Stale leftover from a finished iteration or an abandoned
			// epoch (lock-step traffic cut short by a fence): discard.
			ib.free.put(f.payload)
			continue
		default:
			err = &UnexpectedTagError{From: from, Got: f.tag, Want: want}
		}
		ib.free.put(f.payload)
		return err
	}
}

// ctrlQueue is a per-link control-plane queue: a bounded channel plus a
// done latch so receivers unblock on close. Senders never block — if the
// queue is full the frame is shed (heartbeats are periodic and fences
// are re-sent until acked, so shedding is safe).
type ctrlQueue struct {
	ch chan frame
}

func newCtrlQueue() *ctrlQueue {
	return &ctrlQueue{ch: make(chan frame, ctrlQueueCap)}
}

// offer enqueues f if there is room, shedding it otherwise.
func (q *ctrlQueue) offer(f frame) {
	select {
	case q.ch <- f:
	default:
	}
}

// take dequeues the next control frame, waiting at most timeout; done
// aborts the wait with ErrClosed when the endpoint closes.
func (q *ctrlQueue) take(timeout time.Duration, done <-chan struct{}) (Tag, []float32, error) {
	// Fast path: drain anything already queued without arming a timer.
	select {
	case f := <-q.ch:
		return f.tag, f.payload, nil
	default:
	}
	timer := time.NewTimer(timeout)
	defer timer.Stop()
	select {
	case f := <-q.ch:
		return f.tag, f.payload, nil
	case <-done:
		return 0, nil, ErrClosed
	case <-timer.C:
		return 0, nil, ErrCtrlTimeout
	}
}
