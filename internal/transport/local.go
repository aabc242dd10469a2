package transport

import (
	"sync/atomic"
	"time"
)

// Local is the in-process Transport: every rank lives in the same
// process (one goroutine per rank) and links are plain shared-memory
// FIFOs. It is the reference fabric — fully
// deterministic in the values it delivers, race-testable, and free of
// real I/O so simtime can model a run over it — and it is what
// dnncluster's single-process mode and the dist test suite use. The TCP
// transport must be observationally identical to it.
type Local struct {
	rank, size int
	// boxes is the group-shared link matrix: boxes[to][from] is the
	// inbox rank `to` reads frames from rank `from` out of.
	boxes [][]*inbox
	// ctrl is the group-shared control-plane matrix, ctrl[to][from].
	ctrl   [][]*ctrlQueue
	done   chan struct{}
	closed atomic.Bool
}

var _ Transport = (*Local)(nil)

// NewLocalGroup creates a fully-wired in-process group of size ranks
// and returns one endpoint per rank. size must be >= 1.
func NewLocalGroup(size int) []*Local {
	if size < 1 {
		panic("transport: group size must be >= 1")
	}
	boxes := make([][]*inbox, size)
	ctrl := make([][]*ctrlQueue, size)
	for to := range boxes {
		boxes[to] = make([]*inbox, size)
		ctrl[to] = make([]*ctrlQueue, size)
		for from := range boxes[to] {
			boxes[to][from] = newInbox()
			ctrl[to][from] = newCtrlQueue()
		}
	}
	group := make([]*Local, size)
	for r := range group {
		group[r] = &Local{rank: r, size: size, boxes: boxes, ctrl: ctrl, done: make(chan struct{})}
	}
	return group
}

// Rank implements Transport.
func (l *Local) Rank() int { return l.rank }

// Size implements Transport.
func (l *Local) Size() int { return l.size }

// Send implements Transport: it copies payload into a buffer from the
// (rank → to) link's free list and enqueues it without blocking.
func (l *Local) Send(to int, tag Tag, payload []float32) error {
	if l.closed.Load() {
		return ErrClosed
	}
	if to < 0 || to >= l.size || to == l.rank {
		return &PeerError{Op: "send", Rank: l.rank, Peer: to, Size: l.size}
	}
	ib := l.boxes[to][l.rank]
	buf := ib.take(len(payload))
	copy(buf, payload)
	ib.push(frame{tag: tag, payload: buf})
	return nil
}

// Recv implements Transport.
func (l *Local) Recv(from int, tag Tag, buf []float32) error {
	if from < 0 || from >= l.size || from == l.rank {
		return &PeerError{Op: "recv", Rank: l.rank, Peer: from, Size: l.size}
	}
	return l.boxes[l.rank][from].recv(from, tag, buf)
}

// SendCtrl implements Transport: it enqueues a control frame on the
// (rank → to) link, shedding it if the peer's queue is full.
func (l *Local) SendCtrl(to int, tag Tag, payload []float32) error {
	if l.closed.Load() {
		return ErrClosed
	}
	if to < 0 || to >= l.size || to == l.rank {
		return &PeerError{Op: "send-ctrl", Rank: l.rank, Peer: to, Size: l.size}
	}
	l.ctrl[to][l.rank].offer(frame{tag: tag, payload: append([]float32(nil), payload...)})
	return nil
}

// RecvCtrl implements Transport.
func (l *Local) RecvCtrl(from int, timeout time.Duration) (Tag, []float32, error) {
	if from < 0 || from >= l.size || from == l.rank {
		return 0, nil, &PeerError{Op: "recv-ctrl", Rank: l.rank, Peer: from, Size: l.size}
	}
	return l.ctrl[l.rank][from].take(timeout, l.done)
}

// Interrupt implements Transport: it poisons this rank's blocked
// data-plane Recvs with err until Resume.
func (l *Local) Interrupt(err error) {
	for _, ib := range l.boxes[l.rank] {
		ib.interrupt(err)
	}
}

// Resume implements Transport.
func (l *Local) Resume() {
	for _, ib := range l.boxes[l.rank] {
		ib.resume()
	}
}

// Close implements Transport: it closes this rank's inboxes, unblocking
// its pending Recvs with ErrClosed and its pending RecvCtrls. Other
// ranks' endpoints are unaffected; their sends to this rank are shed.
func (l *Local) Close() error {
	if l.closed.Swap(true) {
		return nil
	}
	close(l.done)
	for _, ib := range l.boxes[l.rank] {
		ib.close()
	}
	return nil
}
