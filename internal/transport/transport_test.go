package transport

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"
)

func TestTagRoundTrip(t *testing.T) {
	cases := []struct {
		kind   Kind
		epoch  int
		iter   int
		param  int
		origin int
	}{
		{KindGrad, 0, 0, 0, 0},
		{KindGather, 0, 7, 3, 2},
		{KindBcast, 3, 199, 13, 63},
		{KindSync, 17, 4096, 9, 5},
		{KindFence, MaxEpoch, 12, 0, 0},
		{KindAck, MaxEpoch, MaxIter, 1<<14 - 1, 1<<16 - 1},
	}
	for _, c := range cases {
		tag := MakeTagE(c.kind, c.epoch, c.iter, c.param, c.origin)
		if tag.Kind() != c.kind || tag.Epoch() != c.epoch || tag.Iter() != c.iter ||
			tag.Param() != c.param || tag.Origin() != c.origin {
			t.Errorf("MakeTagE(%v,%d,%d,%d,%d) round-tripped to (%v,%d,%d,%d,%d)",
				c.kind, c.epoch, c.iter, c.param, c.origin,
				tag.Kind(), tag.Epoch(), tag.Iter(), tag.Param(), tag.Origin())
		}
	}
	// MakeTag is the epoch-0 shorthand.
	if MakeTag(KindGrad, 5, 2, 1) != MakeTagE(KindGrad, 0, 5, 2, 1) {
		t.Error("MakeTag is not MakeTagE with epoch 0")
	}
}

func TestKindCtrlClassification(t *testing.T) {
	for k, want := range map[Kind]bool{
		KindGrad: false, KindGather: false, KindBcast: false, KindLoss: false, KindSync: false,
		KindPing: true, KindPong: true, KindFence: true, KindJoin: true, KindAck: true,
	} {
		if k.Ctrl() != want {
			t.Errorf("%v.Ctrl() = %v, want %v", k, k.Ctrl(), want)
		}
	}
}

func TestTagDistinct(t *testing.T) {
	// Tags that differ in exactly one field must differ as values.
	base := MakeTag(KindGrad, 5, 2, 1)
	for _, other := range []Tag{
		MakeTag(KindGather, 5, 2, 1),
		MakeTag(KindGrad, 6, 2, 1),
		MakeTag(KindGrad, 5, 3, 1),
		MakeTag(KindGrad, 5, 2, 2),
		MakeTagE(KindGrad, 1, 5, 2, 1),
	} {
		if other == base {
			t.Errorf("tag %v collides with %v", other, base)
		}
	}
}

func TestMakeTagPanicsOutOfRange(t *testing.T) {
	for name, fn := range map[string]func(){
		"iter":      func() { MakeTag(KindGrad, -1, 0, 0) },
		"iter-high": func() { MakeTag(KindGrad, MaxIter+1, 0, 0) },
		"param":     func() { MakeTag(KindGrad, 0, 1<<14, 0) },
		"origin":    func() { MakeTag(KindGrad, 0, 0, 1<<16) },
		"epoch":     func() { MakeTagE(KindGrad, MaxEpoch+1, 0, 0, 0) },
		"kind":      func() { MakeTagE(KindAck+1, 0, 0, 0, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("MakeTag with out-of-range %s did not panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestLocalSendRecv(t *testing.T) {
	g := NewLocalGroup(2)
	tag := MakeTag(KindGrad, 0, 0, 1)
	want := []float32{1, 2, 3}
	if err := g[1].Send(0, tag, want); err != nil {
		t.Fatalf("Send: %v", err)
	}
	got := make([]float32, 3)
	if err := g[0].Recv(1, tag, got); err != nil {
		t.Fatalf("Recv: %v", err)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("payload[%d] = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestLocalSendCopiesPayload(t *testing.T) {
	g := NewLocalGroup(2)
	tag := MakeTag(KindGrad, 0, 0, 1)
	payload := []float32{1, 2, 3}
	if err := g[1].Send(0, tag, payload); err != nil {
		t.Fatalf("Send: %v", err)
	}
	payload[0] = 99 // mutate after send: the receiver must see the original
	got := make([]float32, 3)
	if err := g[0].Recv(1, tag, got); err != nil {
		t.Fatalf("Recv: %v", err)
	}
	if got[0] != 1 {
		t.Fatalf("payload[0] = %v after sender mutation, want 1 (Send must copy)", got[0])
	}
}

func TestLocalFIFOPerLink(t *testing.T) {
	g := NewLocalGroup(2)
	const n = 100
	for i := 0; i < n; i++ {
		if err := g[1].Send(0, MakeTag(KindGrad, 0, i%(1<<14), 1), []float32{float32(i)}); err != nil {
			t.Fatalf("Send %d: %v", i, err)
		}
	}
	buf := make([]float32, 1)
	for i := 0; i < n; i++ {
		if err := g[0].Recv(1, MakeTag(KindGrad, 0, i%(1<<14), 1), buf); err != nil {
			t.Fatalf("Recv %d: %v", i, err)
		}
		if buf[0] != float32(i) {
			t.Fatalf("message %d carried %v, want %v", i, buf[0], float32(i))
		}
	}
}

// TestRecvRejectsDuplicateFrame pins the reliable-link contract: a link
// delivers each frame once, so a tag repeated within an iteration is a
// protocol violation, not a copy to discard. Sending a, a, b and
// receiving a then b must fail the Recv of b naming both tags, on Local
// and on TCP alike.
func TestRecvRejectsDuplicateFrame(t *testing.T) {
	for _, fabric := range twoRanks {
		t.Run(fabric.name, func(t *testing.T) {
			g := fabric.group(t)
			defer g[0].Close()
			defer g[1].Close()
			a := MakeTag(KindGrad, 0, 0, 1)
			b := MakeTag(KindGrad, 0, 1, 1)
			for _, tag := range []Tag{a, a, b} {
				if err := g[1].Send(0, tag, []float32{1}); err != nil {
					t.Fatalf("Send %v: %v", tag, err)
				}
			}
			buf := make([]float32, 1)
			if err := g[0].Recv(1, a, buf); err != nil {
				t.Fatalf("Recv a: %v", err)
			}
			err := g[0].Recv(1, b, buf)
			var ute *UnexpectedTagError
			if !errors.As(err, &ute) {
				t.Fatalf("Recv b after a repeated a: err = %v, want *UnexpectedTagError", err)
			}
			if ute.From != 1 || ute.Got != a || ute.Want != b {
				t.Fatalf("error = %+v, want from 1, got %v, want %v", ute, a, b)
			}
		})
	}
}

func TestRecvDiscardsStaleIterations(t *testing.T) {
	g := NewLocalGroup(2)
	old := MakeTag(KindGrad, 0, 0, 1)
	cur := MakeTag(KindGrad, 1, 0, 1)
	// Iter-0 frame delivered, then a stale iter-0 duplicate arrives while
	// the receiver has moved on to iter 1.
	g[1].Send(0, old, []float32{1})
	buf := make([]float32, 1)
	if err := g[0].Recv(1, old, buf); err != nil {
		t.Fatalf("Recv iter 0: %v", err)
	}
	g[1].Send(0, old, []float32{1}) // stale duplicate
	g[1].Send(0, cur, []float32{2})
	if err := g[0].Recv(1, cur, buf); err != nil {
		t.Fatalf("Recv iter 1 after stale frame: %v", err)
	}
	if buf[0] != 2 {
		t.Fatalf("got %v, want 2", buf[0])
	}
}

func TestRecvFailsOnUnexpectedTag(t *testing.T) {
	g := NewLocalGroup(2)
	g[1].Send(0, MakeTag(KindBcast, 2, 0, 1), []float32{1})
	err := g[0].Recv(1, MakeTag(KindGrad, 1, 0, 1), make([]float32, 1))
	var ute *UnexpectedTagError
	if !errors.As(err, &ute) {
		t.Fatalf("Recv of wrong tag: err = %v, want *UnexpectedTagError", err)
	}
}

func TestRecvFailsOnSizeMismatch(t *testing.T) {
	g := NewLocalGroup(2)
	tag := MakeTag(KindGrad, 0, 0, 1)
	g[1].Send(0, tag, []float32{1, 2, 3})
	err := g[0].Recv(1, tag, make([]float32, 2))
	var sme *SizeMismatchError
	if !errors.As(err, &sme) {
		t.Fatalf("Recv with short buffer: err = %v, want *SizeMismatchError", err)
	}
}

func TestPeerErrors(t *testing.T) {
	g := NewLocalGroup(2)
	var pe *PeerError
	if err := g[0].Send(0, MakeTag(KindGrad, 0, 0, 0), nil); !errors.As(err, &pe) {
		t.Errorf("self-send: err = %v, want *PeerError", err)
	}
	if err := g[0].Send(5, MakeTag(KindGrad, 0, 0, 0), nil); !errors.As(err, &pe) {
		t.Errorf("out-of-range send: err = %v, want *PeerError", err)
	}
	if err := g[0].Recv(-1, MakeTag(KindGrad, 0, 0, 0), nil); !errors.As(err, &pe) {
		t.Errorf("out-of-range recv: err = %v, want *PeerError", err)
	}
}

func TestCloseUnblocksRecv(t *testing.T) {
	g := NewLocalGroup(2)
	done := make(chan error, 1)
	go func() {
		done <- g[0].Recv(1, MakeTag(KindGrad, 0, 0, 1), make([]float32, 1))
	}()
	time.Sleep(5 * time.Millisecond)
	g[0].Close()
	select {
	case err := <-done:
		if !errors.Is(err, ErrClosed) {
			t.Fatalf("Recv after Close: err = %v, want ErrClosed", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Recv did not unblock after Close")
	}
	if err := g[0].Send(1, MakeTag(KindGrad, 0, 0, 0), nil); !errors.Is(err, ErrClosed) {
		t.Fatalf("Send after Close: err = %v, want ErrClosed", err)
	}
}

// exchangeAllPairs runs a full all-pairs exchange over the given group:
// every rank sends a distinct payload to every other rank, then receives
// and checks what every peer sent it. It is the shared conformance body
// for Local and TCP.
func exchangeAllPairs(t *testing.T, group []Transport, iters int) {
	t.Helper()
	size := len(group)
	value := func(iter, from, to, i int) float32 {
		return float32(iter*1000 + from*100 + to*10 + i)
	}
	var wg sync.WaitGroup
	errc := make(chan error, size)
	for r := range group {
		wg.Add(1)
		go func(r int, tr Transport) {
			defer wg.Done()
			for iter := 0; iter < iters; iter++ {
				for to := 0; to < size; to++ {
					if to == r {
						continue
					}
					payload := []float32{value(iter, r, to, 0), value(iter, r, to, 1)}
					if err := tr.Send(to, MakeTag(KindGrad, iter, 0, r), payload); err != nil {
						errc <- fmt.Errorf("rank %d send to %d: %w", r, to, err)
						return
					}
				}
				buf := make([]float32, 2)
				for from := 0; from < size; from++ {
					if from == r {
						continue
					}
					if err := tr.Recv(from, MakeTag(KindGrad, iter, 0, from), buf); err != nil {
						errc <- fmt.Errorf("rank %d recv from %d: %w", r, from, err)
						return
					}
					for i := range buf {
						if buf[i] != value(iter, from, r, i) {
							errc <- fmt.Errorf("rank %d got %v from %d at iter %d, want %v",
								r, buf[i], from, iter, value(iter, from, r, i))
							return
						}
					}
				}
			}
		}(r, group[r])
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
}

func TestLocalAllPairs(t *testing.T) {
	for _, size := range []int{2, 3, 4} {
		t.Run(fmt.Sprintf("size%d", size), func(t *testing.T) {
			locals := NewLocalGroup(size)
			group := make([]Transport, size)
			for i, l := range locals {
				group[i] = l
			}
			exchangeAllPairs(t, group, 5)
			for _, l := range locals {
				l.Close()
			}
		})
	}
}

// dialTCPGroup rendezvouses a size-rank TCP group on loopback and
// returns all endpoints (index = rank).
func dialTCPGroup(t testing.TB, size int) []Transport {
	t.Helper()
	coord, err := NewCoordinator("127.0.0.1:0", size)
	if err != nil {
		t.Fatalf("NewCoordinator: %v", err)
	}
	group := make([]Transport, size)
	var wg sync.WaitGroup
	errs := make([]error, size)
	wg.Add(1)
	go func() {
		defer wg.Done()
		tr, err := coord.Wait()
		group[0], errs[0] = tr, err
	}()
	for w := 1; w < size; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			tr, err := DialTCP(coord.Addr())
			if err != nil {
				errs[w] = err
				return
			}
			group[tr.Rank()] = tr
		}(w)
	}
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			t.Fatalf("rendezvous (slot %d): %v", r, err)
		}
	}
	for r, tr := range group {
		if tr == nil || tr.Rank() != r || tr.Size() != size {
			t.Fatalf("rank %d endpoint missing or mislabeled: %+v", r, tr)
		}
	}
	return group
}

func TestTCPAllPairs(t *testing.T) {
	for _, size := range []int{2, 4} {
		t.Run(fmt.Sprintf("size%d", size), func(t *testing.T) {
			group := dialTCPGroup(t, size)
			exchangeAllPairs(t, group, 5)
			for _, tr := range group {
				tr.Close()
			}
		})
	}
}

func TestTCPCloseFlushesInFlight(t *testing.T) {
	group := dialTCPGroup(t, 2)
	const n = 200
	payload := make([]float32, 256)
	for i := range payload {
		payload[i] = float32(i)
	}
	for i := 0; i < n; i++ {
		if err := group[1].Send(0, MakeTag(KindGrad, 0, i%(1<<14), 1), payload); err != nil {
			t.Fatalf("Send %d: %v", i, err)
		}
	}
	// Close the sender immediately: every enqueued frame must still
	// arrive (Close flushes before tearing the socket down).
	group[1].Close()
	buf := make([]float32, 256)
	for i := 0; i < n; i++ {
		if err := group[0].Recv(1, MakeTag(KindGrad, 0, i%(1<<14), 1), buf); err != nil {
			t.Fatalf("Recv %d after sender Close: %v", i, err)
		}
	}
	if buf[255] != 255 {
		t.Fatalf("last frame corrupted: %v", buf[255])
	}
	group[0].Close()
}
