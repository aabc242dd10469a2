package transport

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	gonet "net"
	"sync"
	"sync/atomic"
	"time"
)

// The TCP wire protocol, v1 (DISTRIBUTED.md):
//
// Rendezvous (length-prefixed JSON control messages, u32 LE length):
//
//	worker → coordinator  {"type":"join","addr":"<mesh listen addr>"}
//	coordinator → worker  {"type":"assign","rank":r,"size":k,"addrs":[...]}
//	worker → worker       {"type":"hello","rank":r}   (on each mesh dial)
//
// The coordinator is rank 0; it assigns worker ranks 1..k-1 in join
// order and its join connections become its mesh links. Workers listen
// for mesh peers before joining, then rank r dials every lower worker
// rank and accepts every higher one — an acyclic dial order, so the
// mesh always completes.
//
// Data frames (after rendezvous, both directions on every link):
//
//	tag     u64 LE   (see Tag)
//	count   u32 LE   (payload length in float32s)
//	payload count × float32 LE
//
// Everything is little-endian to match the snapshot format (CGDNN), so
// on a little-endian host a payload's wire bytes are its float32 memory
// (wire.go): a frame is encoded with one memmove into a buffer from the
// link writer's free list, and read straight into a buffer from the
// link inbox's free list.

// maxCtrlLen bounds a control message's declared length.
const maxCtrlLen = 1 << 20

// defaultRendezvousTimeout bounds how long a rendezvous read (the
// coordinator waiting for a JOIN, a worker waiting for a mesh HELLO)
// may block on one peer. A worker that connects and then dies or stalls
// mid-handshake fails the rendezvous loudly — with the peer's address —
// instead of wedging the group forever.
const defaultRendezvousTimeout = 30 * time.Second

// closeDrainTimeout bounds how long Close waits for a link's outbound
// queue to drain. A peer that stopped reading (dead process, full
// kernel buffers) would otherwise hang Close; after the bound the
// remaining frames are abandoned and the socket is torn down.
const closeDrainTimeout = 5 * time.Second

// ctrlMsg is the JSON rendezvous message.
type ctrlMsg struct {
	Type  string   `json:"type"`
	Addr  string   `json:"addr,omitempty"`
	Rank  int      `json:"rank,omitempty"`
	Size  int      `json:"size,omitempty"`
	Addrs []string `json:"addrs,omitempty"`
}

func writeCtrl(w io.Writer, m ctrlMsg) error {
	b, err := json.Marshal(m)
	if err != nil {
		return err
	}
	var hdr [4]byte
	binary.LittleEndian.PutUint32(hdr[:], uint32(len(b)))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err = w.Write(b)
	return err
}

func readCtrl(r io.Reader, wantType string) (ctrlMsg, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return ctrlMsg{}, err
	}
	n := binary.LittleEndian.Uint32(hdr[:])
	if n > maxCtrlLen {
		return ctrlMsg{}, fmt.Errorf("transport: control message length %d exceeds limit", n)
	}
	b := make([]byte, n)
	if _, err := io.ReadFull(r, b); err != nil {
		return ctrlMsg{}, err
	}
	var m ctrlMsg
	if err := json.Unmarshal(b, &m); err != nil {
		return ctrlMsg{}, fmt.Errorf("transport: bad control message: %w", err)
	}
	if m.Type != wantType {
		return ctrlMsg{}, fmt.Errorf("transport: control message type %q, want %q", m.Type, wantType)
	}
	return m, nil
}

// tcpWriter is one link's outbound queue. Send enqueues encoded frames
// and returns immediately; a dedicated goroutine drains the queue onto
// the socket, so a full kernel buffer can never block the training
// goroutine (and, because every peer's reader goroutine always drains,
// the socket itself can never jam the mesh into a deadlock).
type tcpWriter struct {
	mu    sync.Mutex
	cond  *sync.Cond
	queue fifo[[]byte]
	// free holds the frame buffers the loop has written, for Send to
	// encode the link's next frames into.
	free   freeList[byte]
	err    error
	closed bool
	exited bool // loop has returned: its bytes are flushed, or its link failed
}

func newTCPWriter() *tcpWriter {
	w := &tcpWriter{free: freeList[byte]{}}
	w.cond = sync.NewCond(&w.mu)
	return w
}

// buffer returns an n-byte frame buffer, recycled when the link has one.
func (w *tcpWriter) buffer(n int) []byte {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.free.get(n)
}

func (w *tcpWriter) enqueue(b []byte) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.err != nil {
		return w.err
	}
	if w.closed {
		return ErrClosed
	}
	w.queue.push(b)
	w.cond.Signal()
	return nil
}

// loop drains the queue onto conn until closed (after a final flush) or
// a write error (recorded for subsequent enqueues), and then marks
// itself exited for closeFlush. A frame's buffer goes back to the free
// list once bw.Write has returned: bufio has copied or sent its bytes.
func (w *tcpWriter) loop(conn gonet.Conn) {
	defer func() {
		w.mu.Lock()
		w.exited = true
		w.cond.Broadcast()
		w.mu.Unlock()
	}()
	bw := bufio.NewWriter(conn)
	var written []byte
	for {
		w.mu.Lock()
		if written != nil {
			w.free.put(written)
			written = nil
		}
		for w.queue.len() == 0 && !w.closed && w.err == nil {
			// Opportunistically flush buffered bytes before sleeping.
			w.mu.Unlock()
			if err := bw.Flush(); err != nil {
				w.fail(err)
				return
			}
			w.mu.Lock()
			if w.queue.len() == 0 && !w.closed && w.err == nil {
				w.cond.Wait()
			}
		}
		if w.err != nil || (w.closed && w.queue.len() == 0) {
			w.mu.Unlock()
			bw.Flush()
			return
		}
		b := w.queue.pop()
		w.mu.Unlock()
		if _, err := bw.Write(b); err != nil {
			w.fail(err)
			return
		}
		written = b
	}
}

func (w *tcpWriter) fail(err error) {
	w.mu.Lock()
	if w.err == nil {
		w.err = fmt.Errorf("transport: write: %w", err)
	}
	w.queue.reset()
	w.cond.Broadcast()
	w.mu.Unlock()
}

// closeFlush marks the writer closed and waits until the loop has
// drained the queue, flushed its buffer and returned (or failed), so
// Close never cuts off in-flight frames — an empty queue is not enough,
// the last frames may still sit in the loop's bufio.Writer. It waits
// only up to limit: a peer that stopped reading would otherwise park
// Close forever behind full kernel buffers. On timeout the remaining
// frames are abandoned (the caller tears the socket down next, which
// unblocks the loop goroutine's pending write).
func (w *tcpWriter) closeFlush(limit time.Duration) {
	w.mu.Lock()
	w.closed = true
	w.cond.Broadcast()
	wake := time.AfterFunc(limit, func() {
		w.mu.Lock()
		w.cond.Broadcast()
		w.mu.Unlock()
	})
	deadline := time.Now().Add(limit)
	for !w.exited && time.Now().Before(deadline) {
		w.cond.Wait()
	}
	wake.Stop()
	if w.queue.len() > 0 && w.err == nil {
		w.err = fmt.Errorf("transport: close abandoned %d undrained frames after %v: %w",
			w.queue.len(), limit, ErrClosed)
		w.queue.reset()
		w.cond.Broadcast()
	}
	w.mu.Unlock()
}

// TCP is the cross-process Transport: a full mesh of TCP connections
// carrying length-prefixed binary frames, built by a coordinator
// rendezvous (NewCoordinator on rank 0, DialTCP on workers). Delivery
// semantics are identical to Local — reliable per-link FIFO with
// stale-frame discard — so a distributed run over TCP is bit-identical
// to the same run over the in-process fabric.
type TCP struct {
	rank, size int
	conns      []gonet.Conn // conns[peer]; nil at own rank
	writers    []*tcpWriter
	inboxes    []*inbox
	ctrls      []*ctrlQueue
	done       chan struct{}
	closed     atomic.Bool
	readers    sync.WaitGroup
}

var _ Transport = (*TCP)(nil)

// newTCP wires the loops over an established mesh. conns[rank] must be
// nil and every other entry a live connection.
func newTCP(rank int, conns []gonet.Conn) *TCP {
	t := &TCP{rank: rank, size: len(conns), conns: conns,
		writers: make([]*tcpWriter, len(conns)), inboxes: make([]*inbox, len(conns)),
		ctrls: make([]*ctrlQueue, len(conns)), done: make(chan struct{})}
	for peer, conn := range conns {
		if conn == nil {
			continue
		}
		t.writers[peer] = newTCPWriter()
		t.inboxes[peer] = newInbox()
		t.ctrls[peer] = newCtrlQueue()
		//dnnlint:ignore gorolife joined by the closeFlush cond handshake: loop exits on the closed flag and Close waits (bounded) for its exited mark
		go t.writers[peer].loop(conn)
		t.readers.Add(1)
		go t.readLoop(peer, conn)
	}
	return t
}

// readLoop drains one link, pushing frames into its inbox. Always
// draining is what guarantees the mesh cannot deadlock on full socket
// buffers.
func (t *TCP) readLoop(peer int, conn gonet.Conn) {
	defer t.readers.Done()
	br := bufio.NewReader(conn)
	ib := t.inboxes[peer]
	buffer := func(tag Tag, n int) []float32 {
		// RecvCtrl hands a control payload to its caller to keep, so only
		// data frames draw on (and go back to) the inbox's free list.
		if tag.Kind().Ctrl() {
			return make([]float32, n)
		}
		return ib.take(n)
	}
	for {
		tag, payload, err := readFrame(br, buffer)
		if err != nil {
			t.linkDown(peer, err)
			return
		}
		// Control frames ride the same socket (preserving one wire format)
		// but land in the out-of-band queue so a blocked data Recv cannot
		// starve a heartbeat or fence.
		if tag.Kind().Ctrl() {
			t.ctrls[peer].offer(frame{tag: tag, payload: payload})
			continue
		}
		ib.push(frame{tag: tag, payload: payload})
	}
}

// linkDown ends a link: a close-time EOF just closes the inbox, an
// unexpected failure poisons it with *PeerDownError so pending Recvs
// fail loudly and the elastic supervisor can attribute the death.
func (t *TCP) linkDown(peer int, err error) {
	if t.closed.Load() {
		t.inboxes[peer].close()
		return
	}
	t.inboxes[peer].fail(&PeerDownError{Rank: peer, Cause: fmt.Errorf("link read: %w", err)})
}

// Rank implements Transport.
func (t *TCP) Rank() int { return t.rank }

// Size implements Transport.
func (t *TCP) Size() int { return t.size }

// Send implements Transport: it encodes the frame into a buffer from the
// link writer's free list and enqueues it without waiting for the
// socket. A payload longer than one frame may carry is refused here,
// before anything is enqueued. A link whose writer has failed reports
// *PeerDownError naming the peer.
func (t *TCP) Send(to int, tag Tag, payload []float32) error {
	if t.closed.Load() {
		return ErrClosed
	}
	if to < 0 || to >= t.size || to == t.rank {
		return &PeerError{Op: "send", Rank: t.rank, Peer: to, Size: t.size}
	}
	if err := checkFrameLen(len(payload)); err != nil {
		return err
	}
	w := t.writers[to]
	b := w.buffer(frameHeader + 4*len(payload))
	encodeFrame(b, tag, payload)
	if err := w.enqueue(b); err != nil {
		if errors.Is(err, ErrClosed) {
			return err
		}
		return &PeerDownError{Rank: to, Cause: err}
	}
	return nil
}

// Recv implements Transport.
func (t *TCP) Recv(from int, tag Tag, buf []float32) error {
	if from < 0 || from >= t.size || from == t.rank {
		return &PeerError{Op: "recv", Rank: t.rank, Peer: from, Size: t.size}
	}
	return t.inboxes[from].recv(from, tag, buf)
}

// SendCtrl implements Transport: control frames use the same socket and
// wire format as data, differing only in where the receiver routes them.
func (t *TCP) SendCtrl(to int, tag Tag, payload []float32) error {
	return t.Send(to, tag, payload)
}

// RecvCtrl implements Transport.
func (t *TCP) RecvCtrl(from int, timeout time.Duration) (Tag, []float32, error) {
	if from < 0 || from >= t.size || from == t.rank {
		return 0, nil, &PeerError{Op: "recv-ctrl", Rank: t.rank, Peer: from, Size: t.size}
	}
	return t.ctrls[from].take(timeout, t.done)
}

// Interrupt implements Transport.
func (t *TCP) Interrupt(err error) {
	for _, ib := range t.inboxes {
		if ib != nil {
			ib.interrupt(err)
		}
	}
}

// Resume implements Transport.
func (t *TCP) Resume() {
	for _, ib := range t.inboxes {
		if ib != nil {
			ib.resume()
		}
	}
}

// Close implements Transport: it flushes every outbound queue (bounded
// — a dead peer cannot park Close behind full kernel buffers), then
// tears the mesh down and waits for the readers to exit.
func (t *TCP) Close() error {
	if t.closed.Swap(true) {
		return nil
	}
	close(t.done)
	for _, w := range t.writers {
		if w != nil {
			w.closeFlush(closeDrainTimeout)
		}
	}
	for _, c := range t.conns {
		if c != nil {
			c.Close()
		}
	}
	t.readers.Wait()
	return nil
}

// Coordinator is the rendezvous point of a TCP training group: rank 0
// listens, workers DialTCP it, and Wait blocks until all size-1 workers
// have joined, then returns rank 0's wired endpoint.
type Coordinator struct {
	ln   gonet.Listener
	size int
	// JoinTimeout bounds how long Wait blocks on one accepted connection
	// for its JOIN message (zero means defaultRendezvousTimeout). A
	// worker that connects and then dies or stalls mid-handshake fails
	// the rendezvous with its address instead of wedging it.
	JoinTimeout time.Duration
}

// NewCoordinator starts listening for a group of size ranks on addr
// (e.g. "127.0.0.1:0"; use Addr for the bound address). The handshake
// itself happens in Wait, so callers can publish Addr — dnncluster's
// -addr-file — before blocking.
func NewCoordinator(addr string, size int) (*Coordinator, error) {
	if size < 1 {
		return nil, fmt.Errorf("transport: group size %d < 1", size)
	}
	if size > 1<<16 {
		return nil, fmt.Errorf("transport: group size %d exceeds tag origin field", size)
	}
	ln, err := gonet.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	return &Coordinator{ln: ln, size: size}, nil
}

// Addr returns the coordinator's bound listen address.
func (c *Coordinator) Addr() string { return c.ln.Addr().String() }

// Wait accepts the size-1 worker joins, assigns ranks in join order,
// distributes the mesh address book, and returns rank 0's Transport.
// The join connections become rank 0's mesh links.
func (c *Coordinator) Wait() (*TCP, error) {
	defer c.ln.Close()
	conns := make([]gonet.Conn, c.size)
	addrs := make([]string, c.size)
	fail := func(err error) (*TCP, error) {
		for _, conn := range conns {
			if conn != nil {
				conn.Close()
			}
		}
		return nil, err
	}
	joinTimeout := c.JoinTimeout
	if joinTimeout <= 0 {
		joinTimeout = defaultRendezvousTimeout
	}
	for r := 1; r < c.size; r++ {
		conn, err := c.ln.Accept()
		if err != nil {
			return fail(err)
		}
		// Deadline the handshake read: a joiner that dies or stalls
		// mid-JOIN must fail this rendezvous loudly, not wedge it.
		conn.SetReadDeadline(time.Now().Add(joinTimeout))
		join, err := readCtrl(conn, "join")
		if err != nil {
			addr := conn.RemoteAddr()
			conn.Close()
			return fail(fmt.Errorf("transport: join from %v: %w", addr, err))
		}
		conn.SetReadDeadline(time.Time{})
		conns[r] = conn
		addrs[r] = join.Addr
	}
	for r := 1; r < c.size; r++ {
		if err := writeCtrl(conns[r], ctrlMsg{Type: "assign", Rank: r, Size: c.size, Addrs: addrs}); err != nil {
			return fail(fmt.Errorf("transport: assign rank %d: %w", r, err))
		}
	}
	return newTCP(0, conns), nil
}

// DialTCP joins a worker to the group rendezvousing at coordAddr and
// blocks until the full mesh is wired, returning the worker's endpoint
// (rank assigned by the coordinator, in join order). The worker's mesh
// listener binds to the local interface that reaches the coordinator,
// so multi-host groups advertise a routable address.
func DialTCP(coordAddr string) (*TCP, error) {
	coord, err := gonet.Dial("tcp", coordAddr)
	if err != nil {
		return nil, err
	}
	host, _, err := gonet.SplitHostPort(coord.LocalAddr().String())
	if err != nil {
		coord.Close()
		return nil, err
	}
	ln, err := gonet.Listen("tcp", gonet.JoinHostPort(host, "0"))
	if err != nil {
		coord.Close()
		return nil, err
	}
	defer ln.Close()
	if err := writeCtrl(coord, ctrlMsg{Type: "join", Addr: ln.Addr().String()}); err != nil {
		coord.Close()
		return nil, err
	}
	assign, err := readCtrl(coord, "assign")
	if err != nil {
		coord.Close()
		return nil, fmt.Errorf("transport: waiting for assignment: %w", err)
	}
	rank, size := assign.Rank, assign.Size
	if rank < 1 || rank >= size || len(assign.Addrs) != size {
		coord.Close()
		return nil, fmt.Errorf("transport: bad assignment rank=%d size=%d addrs=%d", rank, size, len(assign.Addrs))
	}
	conns := make([]gonet.Conn, size)
	conns[0] = coord
	fail := func(err error) (*TCP, error) {
		for _, conn := range conns {
			if conn != nil {
				conn.Close()
			}
		}
		return nil, err
	}
	// Dial every lower worker rank. Their listeners were bound before
	// they joined, so the kernel backlog holds our connection even if
	// they have not reached their accept loop yet.
	for q := 1; q < rank; q++ {
		conn, err := gonet.Dial("tcp", assign.Addrs[q])
		if err != nil {
			return fail(fmt.Errorf("transport: dial rank %d at %s: %w", q, assign.Addrs[q], err))
		}
		if err := writeCtrl(conn, ctrlMsg{Type: "hello", Rank: rank}); err != nil {
			conn.Close()
			return fail(fmt.Errorf("transport: hello to rank %d: %w", q, err))
		}
		conns[q] = conn
	}
	// Accept every higher worker rank.
	for n := rank + 1; n < size; n++ {
		conn, err := ln.Accept()
		if err != nil {
			return fail(err)
		}
		// Deadline the HELLO like the coordinator deadlines JOINs: a mesh
		// peer that connects and stalls must not wedge this worker.
		conn.SetReadDeadline(time.Now().Add(defaultRendezvousTimeout))
		hello, err := readCtrl(conn, "hello")
		if err != nil {
			addr := conn.RemoteAddr()
			conn.Close()
			return fail(fmt.Errorf("transport: hello from %v: %w", addr, err))
		}
		conn.SetReadDeadline(time.Time{})
		if hello.Rank <= rank || hello.Rank >= size || conns[hello.Rank] != nil {
			addr := conn.RemoteAddr()
			conn.Close()
			return fail(fmt.Errorf("transport: unexpected hello claiming rank %d from %v", hello.Rank, addr))
		}
		conns[hello.Rank] = conn
	}
	return newTCP(rank, conns), nil
}
