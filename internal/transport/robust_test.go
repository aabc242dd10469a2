package transport

import (
	"encoding/binary"
	"errors"
	gonet "net"
	"strings"
	"testing"
	"time"
)

// --- control plane ---------------------------------------------------

func TestCtrlPlaneLocal(t *testing.T) {
	g := NewLocalGroup(2)
	defer g[0].Close()
	defer g[1].Close()
	tag := MakeTag(KindPing, 3, 0, 0)
	if err := g[0].SendCtrl(1, tag, []float32{7}); err != nil {
		t.Fatalf("SendCtrl: %v", err)
	}
	got, payload, err := g[1].RecvCtrl(0, time.Second)
	if err != nil {
		t.Fatalf("RecvCtrl: %v", err)
	}
	if got != tag || len(payload) != 1 || payload[0] != 7 {
		t.Fatalf("RecvCtrl = %v %v, want %v [7]", got, payload, tag)
	}
	if _, _, err := g[1].RecvCtrl(0, 10*time.Millisecond); !errors.Is(err, ErrCtrlTimeout) {
		t.Fatalf("empty RecvCtrl: err = %v, want ErrCtrlTimeout", err)
	}
}

func TestCtrlPlaneCloseUnblocksRecvCtrl(t *testing.T) {
	g := NewLocalGroup(2)
	defer g[0].Close()
	done := make(chan error, 1)
	go func() {
		_, _, err := g[1].RecvCtrl(0, time.Minute)
		done <- err
	}()
	time.Sleep(5 * time.Millisecond)
	g[1].Close()
	select {
	case err := <-done:
		if !errors.Is(err, ErrClosed) {
			t.Fatalf("RecvCtrl after Close: err = %v, want ErrClosed", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("RecvCtrl did not unblock after Close")
	}
}

// TestCtrlBypassesBlockedDataRecv pins the property the elastic fencing
// protocol depends on: a control frame gets through while the receiver's
// data plane is wedged mid-Recv.
func TestCtrlBypassesBlockedDataRecv(t *testing.T) {
	group := dialTCPGroup(t, 2)
	defer group[0].Close()
	defer group[1].Close()
	recvDone := make(chan error, 1)
	go func() {
		// Blocks forever: no data frame with this tag is ever sent.
		recvDone <- group[0].Recv(1, MakeTag(KindGrad, 0, 0, 1), make([]float32, 1))
	}()
	time.Sleep(5 * time.Millisecond)
	fence := MakeTagE(KindFence, 1, 4, 0, 1)
	if err := group[1].SendCtrl(0, fence, []float32{1, 2}); err != nil {
		t.Fatalf("SendCtrl: %v", err)
	}
	got, payload, err := group[0].RecvCtrl(1, 2*time.Second)
	if err != nil {
		t.Fatalf("RecvCtrl while data Recv blocked: %v", err)
	}
	if got != fence || len(payload) != 2 {
		t.Fatalf("RecvCtrl = %v (%d elems), want %v (2 elems)", got, len(payload), fence)
	}
	// Unblock and drain the pending data Recv.
	group[0].Interrupt(&PeerDownError{Rank: 1})
	if err := <-recvDone; !errors.Is(err, ErrPeerDown) {
		t.Fatalf("interrupted Recv: err = %v, want ErrPeerDown", err)
	}
}

// --- interrupt / resume ----------------------------------------------

func TestInterruptUnblocksRecvAndResumeClears(t *testing.T) {
	g := NewLocalGroup(2)
	defer g[0].Close()
	defer g[1].Close()
	tag := MakeTag(KindGrad, 0, 0, 1)
	done := make(chan error, 1)
	go func() {
		done <- g[0].Recv(1, tag, make([]float32, 1))
	}()
	time.Sleep(5 * time.Millisecond)
	cause := &PeerDownError{Rank: 1, Cause: errors.New("heartbeat timeout")}
	g[0].Interrupt(cause)
	select {
	case err := <-done:
		if !errors.Is(err, ErrPeerDown) {
			t.Fatalf("interrupted Recv: err = %v, want ErrPeerDown", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Recv did not unblock on Interrupt")
	}
	// While interrupted, an empty-queue Recv fails immediately.
	if err := g[0].Recv(1, tag, make([]float32, 1)); !errors.Is(err, ErrPeerDown) {
		t.Fatalf("Recv while interrupted: err = %v, want ErrPeerDown", err)
	}
	// Resume clears the poison: delivery works again.
	g[0].Resume()
	if err := g[1].Send(0, tag, []float32{5}); err != nil {
		t.Fatalf("Send after Resume: %v", err)
	}
	buf := make([]float32, 1)
	if err := g[0].Recv(1, tag, buf); err != nil || buf[0] != 5 {
		t.Fatalf("Recv after Resume: %v (got %v), want 5", err, buf)
	}
}

// TestInterruptDoesNotPreemptQueuedFrames pins that a frame already
// delivered to the inbox wins over a pending interrupt — a completed
// iteration is never torn down retroactively by a late fence.
func TestInterruptDoesNotPreemptQueuedFrames(t *testing.T) {
	g := NewLocalGroup(2)
	defer g[0].Close()
	defer g[1].Close()
	tag := MakeTag(KindGrad, 0, 0, 1)
	if err := g[1].Send(0, tag, []float32{9}); err != nil {
		t.Fatalf("Send: %v", err)
	}
	g[0].Interrupt(&PeerDownError{Rank: 1})
	buf := make([]float32, 1)
	if err := g[0].Recv(1, tag, buf); err != nil || buf[0] != 9 {
		t.Fatalf("Recv with queued frame under interrupt: %v (got %v), want 9", err, buf)
	}
	// Queue drained: now the interrupt surfaces.
	if err := g[0].Recv(1, tag, buf); !errors.Is(err, ErrPeerDown) {
		t.Fatalf("Recv after drain: err = %v, want ErrPeerDown", err)
	}
}

// --- epoch staleness --------------------------------------------------

func TestRecvDiscardsStaleEpochs(t *testing.T) {
	g := NewLocalGroup(2)
	defer g[0].Close()
	defer g[1].Close()
	// An abandoned epoch-0 iteration leaves frames in flight whose
	// (iter, param) coordinates alias the post-fence epoch-1 traffic.
	stale := MakeTagE(KindGrad, 0, 5, 0, 1)
	cur := MakeTagE(KindGrad, 1, 3, 0, 1)
	g[1].Send(0, stale, []float32{1})
	g[1].Send(0, cur, []float32{2})
	buf := make([]float32, 1)
	// Note the stale frame has a HIGHER iteration than the current one:
	// only the epoch ordering makes it discardable.
	if err := g[0].Recv(1, cur, buf); err != nil {
		t.Fatalf("Recv across epoch fence: %v", err)
	}
	if buf[0] != 2 {
		t.Fatalf("got %v, want 2 (stale epoch-0 frame leaked through)", buf[0])
	}
}

func TestPeerDownErrorMatchesSentinel(t *testing.T) {
	inner := errors.New("socket reset")
	err := error(&PeerDownError{Rank: 3, Cause: inner})
	if !errors.Is(err, ErrPeerDown) {
		t.Fatal("PeerDownError does not match ErrPeerDown")
	}
	if errors.Is(err, ErrTransient) {
		t.Fatal("PeerDownError must not match ErrTransient: it is not retryable")
	}
	if !errors.Is(err, inner) {
		t.Fatal("PeerDownError does not unwrap its cause")
	}
	var pd *PeerDownError
	if !errors.As(err, &pd) || pd.Rank != 3 {
		t.Fatalf("errors.As failed to recover the rank: %+v", pd)
	}
}

// TestTCPPeerDeathSurfacesPeerDown pins link-death attribution: when a
// peer's process goes away, the survivor's pending Recv fails with a
// typed *PeerDownError naming the dead rank.
func TestTCPPeerDeathSurfacesPeerDown(t *testing.T) {
	group := dialTCPGroup(t, 2)
	defer group[0].Close()
	done := make(chan error, 1)
	go func() {
		done <- group[0].Recv(1, MakeTag(KindGrad, 0, 0, 1), make([]float32, 1))
	}()
	time.Sleep(5 * time.Millisecond)
	group[1].Close() // the "process" dies
	select {
	case err := <-done:
		var pd *PeerDownError
		if !errors.As(err, &pd) || pd.Rank != 1 {
			t.Fatalf("Recv after peer death: err = %v, want *PeerDownError{Rank: 1}", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Recv did not unblock when the peer died")
	}
}

// TestTCPSendAfterPeerDeathIsPeerDown pins Send's side of link death:
// once the peer's process is gone and the link writer's socket write has
// failed, Send returns a *PeerDownError naming the peer, with the socket
// error in its chain.
func TestTCPSendAfterPeerDeathIsPeerDown(t *testing.T) {
	group := dialTCPGroup(t, 2)
	defer group[0].Close()
	group[1].Close() // the "process" dies
	tag := MakeTag(KindGrad, 0, 0, 1)
	deadline := time.Now().Add(5 * time.Second)
	for {
		err := group[0].Send(1, tag, make([]float32, 1024))
		if err != nil {
			var pd *PeerDownError
			var op *gonet.OpError
			if !errors.As(err, &pd) || pd.Rank != 1 || !errors.As(err, &op) {
				t.Fatalf("Send after peer death: err = %v, want *PeerDownError{Rank: 1} wrapping the socket error", err)
			}
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("Send kept succeeding after the peer died")
		}
		time.Sleep(time.Millisecond)
	}
}

// --- bounded close (shutdown-race satellite) -------------------------

// TestWriterCloseFlushBounded pins that closeFlush gives up after its
// bound when the drain loop cannot make progress (a peer that stopped
// reading), instead of hanging Close forever.
func TestWriterCloseFlushBounded(t *testing.T) {
	w := newTCPWriter()
	// No loop goroutine is draining: the queue can never empty.
	if err := w.enqueue(make([]byte, 64)); err != nil {
		t.Fatalf("enqueue: %v", err)
	}
	start := time.Now()
	donec := make(chan struct{})
	go func() {
		w.closeFlush(50 * time.Millisecond)
		close(donec)
	}()
	select {
	case <-donec:
	case <-time.After(5 * time.Second):
		t.Fatal("closeFlush hung past its bound")
	}
	if elapsed := time.Since(start); elapsed < 40*time.Millisecond {
		t.Fatalf("closeFlush returned after %v without waiting for the bound", elapsed)
	}
	if err := w.enqueue(nil); !errors.Is(err, ErrClosed) {
		t.Fatalf("enqueue after abandoned close: err = %v, want ErrClosed", err)
	}
}

// slowConn delays every Write, holding the writer loop inside its last
// flush while Close runs: the window in which a Close that waited only
// for an empty queue tore the socket down under unsent frames.
type slowConn struct{ gonet.Conn }

func (c slowConn) Write(b []byte) (int, error) {
	time.Sleep(20 * time.Millisecond)
	return c.Conn.Write(b)
}

// TestTCPCloseDeliversEveryFrame pins that Close sends what it was
// given: a rank that sends a few small frames and closes at once (what
// a coordinator does after its final broadcast) must still deliver every
// one of them, because Close waits for the writer loop's last flush.
func TestTCPCloseDeliversEveryFrame(t *testing.T) {
	const frames, width = 8, 50
	a, b := gonet.Pipe()
	sender := newTCP(0, []gonet.Conn{nil, slowConn{a}})
	receiver := newTCP(1, []gonet.Conn{b, nil})
	defer receiver.Close()
	for i := 0; i < frames; i++ {
		if err := sender.Send(1, MakeTag(KindGrad, 0, i, 0), make([]float32, width)); err != nil {
			t.Fatalf("send %d: %v", i, err)
		}
	}
	sender.Close()
	buf := make([]float32, width)
	for i := 0; i < frames; i++ {
		if err := receiver.Recv(0, MakeTag(KindGrad, 0, i, 0), buf); err != nil {
			t.Fatalf("frame %d of %d lost: %v", i, frames, err)
		}
	}
}

// --- rendezvous hardening --------------------------------------------

// TestCoordinatorFailsLoudOnDeadJoiner covers a worker dying mid-JOIN:
// it connects, writes half a length prefix, and vanishes. The
// coordinator must fail the rendezvous with the peer's address.
func TestCoordinatorFailsLoudOnDeadJoiner(t *testing.T) {
	coord, err := NewCoordinator("127.0.0.1:0", 2)
	if err != nil {
		t.Fatalf("NewCoordinator: %v", err)
	}
	coord.JoinTimeout = 200 * time.Millisecond
	errc := make(chan error, 1)
	go func() {
		_, err := coord.Wait()
		errc <- err
	}()
	conn, err := gonet.Dial("tcp", coord.Addr())
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	conn.Write([]byte{9, 0}) // half a length prefix
	local := conn.LocalAddr().String()
	conn.Close() // dies mid-handshake
	select {
	case err := <-errc:
		if err == nil {
			t.Fatal("Wait succeeded despite a dead joiner")
		}
		if !strings.Contains(err.Error(), local) {
			t.Fatalf("rendezvous error %q does not name the peer address %q", err, local)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("coordinator wedged on a dead joiner")
	}
}

// TestCoordinatorFailsLoudOnStalledJoiner covers the wedge case: a
// worker that connects and then sends nothing. The join deadline must
// fire and name the peer.
func TestCoordinatorFailsLoudOnStalledJoiner(t *testing.T) {
	coord, err := NewCoordinator("127.0.0.1:0", 2)
	if err != nil {
		t.Fatalf("NewCoordinator: %v", err)
	}
	coord.JoinTimeout = 100 * time.Millisecond
	errc := make(chan error, 1)
	go func() {
		_, err := coord.Wait()
		errc <- err
	}()
	conn, err := gonet.Dial("tcp", coord.Addr())
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer conn.Close()
	local := conn.LocalAddr().String()
	select {
	case err := <-errc:
		if err == nil {
			t.Fatal("Wait succeeded despite a stalled joiner")
		}
		if !strings.Contains(err.Error(), local) {
			t.Fatalf("rendezvous error %q does not name the peer address %q", err, local)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("coordinator wedged on a stalled joiner")
	}
}

// TestCoordinatorFailsLoudOnMalformedJoin covers garbage on the wire: a
// well-framed message that is not valid JSON.
func TestCoordinatorFailsLoudOnMalformedJoin(t *testing.T) {
	coord, err := NewCoordinator("127.0.0.1:0", 2)
	if err != nil {
		t.Fatalf("NewCoordinator: %v", err)
	}
	errc := make(chan error, 1)
	go func() {
		_, err := coord.Wait()
		errc <- err
	}()
	conn, err := gonet.Dial("tcp", coord.Addr())
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer conn.Close()
	local := conn.LocalAddr().String()
	garbage := []byte("this is not json")
	var hdr [4]byte
	binary.LittleEndian.PutUint32(hdr[:], uint32(len(garbage)))
	conn.Write(hdr[:])
	conn.Write(garbage)
	select {
	case err := <-errc:
		if err == nil {
			t.Fatal("Wait accepted a malformed JOIN")
		}
		if !strings.Contains(err.Error(), local) {
			t.Fatalf("rendezvous error %q does not name the peer address %q", err, local)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("coordinator wedged on a malformed JOIN")
	}
}

// TestWorkerFailsLoudOnMalformedHello covers the mesh side: a peer that
// dials a worker's mesh listener and sends a malformed HELLO must fail
// that worker's rendezvous with the dialer's address, not wedge it.
func TestWorkerFailsLoudOnMalformedHello(t *testing.T) {
	coord, err := NewCoordinator("127.0.0.1:0", 3)
	if err != nil {
		t.Fatalf("NewCoordinator: %v", err)
	}
	coordErr := make(chan error, 1)
	go func() {
		tr, err := coord.Wait()
		if tr != nil {
			tr.Close()
		}
		coordErr <- err
	}()
	// The honest worker joins first, so it is assigned rank 1 and will
	// wait for rank 2's HELLO on its mesh listener.
	workerErr := make(chan error, 1)
	go func() {
		tr, err := DialTCP(coord.Addr())
		if tr != nil {
			tr.Close()
		}
		workerErr <- err
	}()
	time.Sleep(50 * time.Millisecond)
	// The impostor joins as rank 2, learns rank 1's mesh address from the
	// assignment, dials it, and sends garbage instead of a HELLO.
	conn, err := gonet.Dial("tcp", coord.Addr())
	if err != nil {
		t.Fatalf("impostor dial: %v", err)
	}
	defer conn.Close()
	if err := writeCtrl(conn, ctrlMsg{Type: "join", Addr: "127.0.0.1:1"}); err != nil {
		t.Fatalf("impostor join: %v", err)
	}
	assign, err := readCtrl(conn, "assign")
	if err != nil {
		t.Fatalf("impostor assign: %v", err)
	}
	mesh, err := gonet.Dial("tcp", assign.Addrs[1])
	if err != nil {
		t.Fatalf("impostor mesh dial: %v", err)
	}
	defer mesh.Close()
	local := mesh.LocalAddr().String()
	if err := writeCtrl(mesh, ctrlMsg{Type: "hello", Rank: 9999}); err != nil {
		t.Fatalf("impostor hello: %v", err)
	}
	select {
	case err := <-workerErr:
		if err == nil {
			t.Fatal("worker accepted a malformed HELLO")
		}
		if !strings.Contains(err.Error(), local) {
			t.Fatalf("worker error %q does not name the dialer address %q", err, local)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("worker wedged on a malformed HELLO")
	}
	<-coordErr // coordinator outcome is irrelevant; just reap it
}

// --- chaos ------------------------------------------------------------

func TestChaosCrashAtIteration(t *testing.T) {
	g := NewLocalGroup(2)
	defer g[0].Close()
	c := NewChaos(g[1], ChaosConfig{Mode: ChaosCrash, AtIter: 2})
	defer c.Close()
	buf := make([]float32, 1)
	for iter := 0; iter < 2; iter++ {
		tag := MakeTag(KindGrad, iter, 0, 1)
		if err := c.Send(0, tag, []float32{1}); err != nil {
			t.Fatalf("Send iter %d before trigger: %v", iter, err)
		}
		if err := g[0].Recv(1, tag, buf); err != nil {
			t.Fatalf("Recv iter %d: %v", iter, err)
		}
	}
	if c.Fired() {
		t.Fatal("chaos fired before its trigger iteration")
	}
	if err := c.Send(0, MakeTag(KindGrad, 2, 0, 1), []float32{1}); !errors.Is(err, ErrClosed) {
		t.Fatalf("Send at trigger: err = %v, want ErrClosed", err)
	}
	if !c.Fired() {
		t.Fatal("chaos did not fire at its trigger iteration")
	}
	if err := c.Recv(0, MakeTag(KindBcast, 2, 0, 0), buf); !errors.Is(err, ErrClosed) {
		t.Fatalf("Recv after crash: err = %v, want ErrClosed", err)
	}
	if err := c.SendCtrl(0, MakeTag(KindPong, 0, 0, 1), nil); !errors.Is(err, ErrClosed) {
		t.Fatalf("SendCtrl after crash: err = %v, want ErrClosed", err)
	}
}

// ParseChaosMode is String's inverse on every defined mode — the two
// spell the -chaos-mode vocabulary in one place — and rejects the rest.
func TestParseChaosModeInvertsString(t *testing.T) {
	for m := ChaosNone; m <= ChaosStraggle; m++ {
		if got, err := ParseChaosMode(m.String()); err != nil || got != m {
			t.Errorf("ParseChaosMode(%q) = %v, %v; want %v", m.String(), got, err, m)
		}
	}
	for _, bad := range []string{"", "Crash", "chaos(9)"} {
		if _, err := ParseChaosMode(bad); err == nil {
			t.Errorf("ParseChaosMode(%q) accepted an undefined mode", bad)
		}
	}
}

func TestChaosHangBlocksUntilClose(t *testing.T) {
	g := NewLocalGroup(2)
	defer g[0].Close()
	c := NewChaos(g[1], ChaosConfig{Mode: ChaosHang, AtIter: 0})
	done := make(chan error, 1)
	go func() {
		done <- c.Send(0, MakeTag(KindGrad, 0, 0, 1), []float32{1})
	}()
	select {
	case err := <-done:
		t.Fatalf("hung Send returned early: %v", err)
	case <-time.After(50 * time.Millisecond):
	}
	c.Close()
	select {
	case err := <-done:
		if !errors.Is(err, ErrClosed) {
			t.Fatalf("Send after hang+Close: err = %v, want ErrClosed", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("hung Send did not unblock on Close")
	}
}

func TestChaosPartitionCutsConfiguredPeersOnly(t *testing.T) {
	g := NewLocalGroup(3)
	for _, l := range g {
		defer l.Close()
	}
	c := NewChaos(g[1], ChaosConfig{Mode: ChaosPartition, AtIter: 0, Peers: []int{0}})
	tag := MakeTag(KindGrad, 0, 0, 1)
	if err := c.Send(0, tag, []float32{1}); err != nil {
		t.Fatalf("partitioned Send must drop silently, got %v", err)
	}
	if err := c.Send(2, tag, []float32{2}); err != nil {
		t.Fatalf("Send to uncut peer: %v", err)
	}
	buf := make([]float32, 1)
	if err := g[2].Recv(1, tag, buf); err != nil || buf[0] != 2 {
		t.Fatalf("uncut peer Recv: %v (got %v), want 2", err, buf)
	}
	// The cut peer got nothing: its control queue and inbox stay empty.
	if err := c.SendCtrl(0, MakeTag(KindPong, 0, 0, 1), nil); err != nil {
		t.Fatalf("partitioned SendCtrl: %v", err)
	}
	if _, _, err := g[0].RecvCtrl(1, 50*time.Millisecond); !errors.Is(err, ErrCtrlTimeout) {
		t.Fatalf("cut peer received a control frame through the partition: %v", err)
	}
}

func TestChaosStraggleDelaysOncePerIteration(t *testing.T) {
	g := NewLocalGroup(2)
	defer g[0].Close()
	defer g[1].Close()
	const delay = 60 * time.Millisecond
	c := NewChaos(g[1], ChaosConfig{Mode: ChaosStraggle, AtIter: 1, StraggleDelay: delay})
	tag0 := MakeTag(KindGrad, 0, 0, 1)
	start := time.Now()
	if err := c.Send(0, tag0, []float32{1}); err != nil {
		t.Fatalf("Send before trigger: %v", err)
	}
	if e := time.Since(start); e >= delay {
		t.Fatalf("pre-trigger Send slept %v", e)
	}
	start = time.Now()
	tag1a := MakeTag(KindGrad, 1, 0, 1)
	tag1b := MakeTag(KindGrad, 1, 1, 1)
	if err := c.Send(0, tag1a, []float32{2}); err != nil {
		t.Fatalf("straggling Send: %v", err)
	}
	if e := time.Since(start); e < delay {
		t.Fatalf("straggling iteration slept only %v, want >= %v", e, delay)
	}
	start = time.Now()
	if err := c.Send(0, tag1b, []float32{3}); err != nil {
		t.Fatalf("second Send of straggling iteration: %v", err)
	}
	if e := time.Since(start); e >= delay {
		t.Fatalf("straggle slept twice in one iteration (%v)", e)
	}
	// Everything still arrives: straggle degrades, never drops.
	buf := make([]float32, 1)
	for i, tag := range []Tag{tag0, tag1a, tag1b} {
		if err := g[0].Recv(1, tag, buf); err != nil {
			t.Fatalf("Recv %d from straggler: %v", i, err)
		}
	}
}

// --- flaky × chaos composition ---------------------------------------

// TestFlakyDupOverPartitionDeliveryCounts composes Flaky duplication
// over a Chaos partition: duplicates of partitioned frames must all be
// shed, duplicates of unpartitioned ones must all arrive (then be
// deduped on delivery). Seeded and fully deterministic: DupProb 1.
func TestFlakyDupOverPartitionDeliveryCounts(t *testing.T) {
	g := NewLocalGroup(3)
	for _, l := range g {
		defer l.Close()
	}
	chaos := NewChaos(g[1], ChaosConfig{Mode: ChaosPartition, AtIter: 0, Peers: []int{0}})
	f := NewFlaky(chaos, FlakyConfig{DupProb: 1}, 7)
	tag := MakeTag(KindGrad, 0, 0, 1)
	if err := f.Send(0, tag, []float32{1}); err != nil {
		t.Fatalf("Send to cut peer: %v", err)
	}
	if err := f.Send(2, tag, []float32{2}); err != nil {
		t.Fatalf("Send to open peer: %v", err)
	}
	if s := f.Stats(); s.Sends != 2 || s.Dups != 2 {
		t.Fatalf("stats = %+v, want 2 sends and 2 dups", s)
	}
	// Raw delivery counts, observed at the shared inboxes before any
	// Recv dedupes them: 0 frames through the partition, 2 (original +
	// duplicate) on the open link.
	if n := g[0].boxes[0][1].frames.len(); n != 0 {
		t.Fatalf("cut link delivered %d frames, want 0", n)
	}
	if n := g[2].boxes[2][1].frames.len(); n != 2 {
		t.Fatalf("open link delivered %d frames, want 2", n)
	}
	// And the receiver still sees exactly one copy.
	buf := make([]float32, 1)
	if err := g[2].Recv(1, tag, buf); err != nil || buf[0] != 2 {
		t.Fatalf("Recv: %v (got %v), want 2", err, buf)
	}
	next := MakeTag(KindGrad, 0, 1, 1)
	g[1].Send(2, next, []float32{4})
	if err := g[2].Recv(1, next, buf); err != nil || buf[0] != 4 {
		t.Fatalf("Recv after dedupe: %v (got %v), want 4", err, buf)
	}
}

// TestFlakyDelayOverCrashDeliveryCounts composes Flaky delay over a
// Chaos crash: delayed frames before the trigger all arrive; the crash
// then dominates every later send, and the flaky layer propagates
// ErrClosed untouched.
func TestFlakyDelayOverCrashDeliveryCounts(t *testing.T) {
	g := NewLocalGroup(2)
	defer g[0].Close()
	chaos := NewChaos(g[1], ChaosConfig{Mode: ChaosCrash, AtIter: 1})
	f := NewFlaky(chaos, FlakyConfig{DelayProb: 1}, 11)
	defer f.Close()
	buf := make([]float32, 1)
	for p := 0; p < 3; p++ {
		tag := MakeTag(KindGrad, 0, p, 1)
		if err := f.Send(0, tag, []float32{float32(p)}); err != nil {
			t.Fatalf("delayed Send %d: %v", p, err)
		}
		if err := g[0].Recv(1, tag, buf); err != nil || buf[0] != float32(p) {
			t.Fatalf("Recv %d: %v (got %v)", p, err, buf)
		}
	}
	if s := f.Stats(); s.Sends != 3 || s.Delays != 3 {
		t.Fatalf("stats = %+v, want 3 delayed sends", s)
	}
	if err := f.Send(0, MakeTag(KindGrad, 1, 0, 1), []float32{9}); !errors.Is(err, ErrClosed) {
		t.Fatalf("Send after crash: err = %v, want ErrClosed", err)
	}
}

// --- views ------------------------------------------------------------

func TestViewReRanksSurvivors(t *testing.T) {
	g := NewLocalGroup(3)
	for _, l := range g {
		defer l.Close()
	}
	// Rank 1 died; 0 and 2 re-form as a 2-rank group.
	v0, err := NewView(g[0], []int{0, 2})
	if err != nil {
		t.Fatalf("NewView rank 0: %v", err)
	}
	v2, err := NewView(g[2], []int{0, 2})
	if err != nil {
		t.Fatalf("NewView rank 2: %v", err)
	}
	if v0.Rank() != 0 || v0.Size() != 2 || v2.Rank() != 1 || v2.Size() != 2 {
		t.Fatalf("view ranks: %d/%d and %d/%d, want 0/2 and 1/2", v0.Rank(), v0.Size(), v2.Rank(), v2.Size())
	}
	// v2 is view-rank 1; sending to view-rank 0 must reach base rank 0.
	tag := MakeTagE(KindGrad, 1, 0, 0, 1)
	if err := v2.Send(0, tag, []float32{42}); err != nil {
		t.Fatalf("view Send: %v", err)
	}
	buf := make([]float32, 1)
	if err := v0.Recv(1, tag, buf); err != nil || buf[0] != 42 {
		t.Fatalf("view Recv: %v (got %v), want 42", err, buf)
	}
	// Control plane translates the same way.
	ptag := MakeTagE(KindPong, 1, 0, 0, 1)
	if err := v2.SendCtrl(0, ptag, []float32{7}); err != nil {
		t.Fatalf("view SendCtrl: %v", err)
	}
	got, payload, err := v0.RecvCtrl(1, time.Second)
	if err != nil || got != ptag || payload[0] != 7 {
		t.Fatalf("view RecvCtrl = %v %v (%v), want %v [7]", got, payload, err, ptag)
	}
}

func TestViewValidation(t *testing.T) {
	g := NewLocalGroup(3)
	for _, l := range g {
		defer l.Close()
	}
	if _, err := NewView(g[0], nil); err == nil {
		t.Error("empty view accepted")
	}
	if _, err := NewView(g[0], []int{2, 0}); err == nil {
		t.Error("unsorted members accepted")
	}
	if _, err := NewView(g[0], []int{0, 0}); err == nil {
		t.Error("duplicate members accepted")
	}
	if _, err := NewView(g[0], []int{0, 3}); err == nil {
		t.Error("out-of-range member accepted")
	}
	if _, err := NewView(g[1], []int{0, 2}); err == nil {
		t.Error("view excluding its own base rank accepted")
	}
	v, err := NewView(g[0], []int{0, 2})
	if err != nil {
		t.Fatalf("NewView: %v", err)
	}
	var pe *PeerError
	if err := v.Send(2, MakeTag(KindGrad, 0, 0, 0), nil); !errors.As(err, &pe) {
		t.Errorf("send to out-of-view rank: err = %v, want *PeerError", err)
	}
}

func TestViewInterruptReachesBase(t *testing.T) {
	g := NewLocalGroup(3)
	for _, l := range g {
		defer l.Close()
	}
	v0, err := NewView(g[0], []int{0, 2})
	if err != nil {
		t.Fatalf("NewView: %v", err)
	}
	done := make(chan error, 1)
	go func() {
		done <- v0.Recv(1, MakeTagE(KindGrad, 1, 0, 0, 1), make([]float32, 1))
	}()
	time.Sleep(5 * time.Millisecond)
	v0.Interrupt(&PeerDownError{Rank: 2})
	select {
	case err := <-done:
		if !errors.Is(err, ErrPeerDown) {
			t.Fatalf("view Recv under Interrupt: err = %v, want ErrPeerDown", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("view Recv did not unblock on Interrupt")
	}
	v0.Resume()
}
