package transport

import (
	"errors"
	"math"
	"testing"
	"time"
)

// TestInjectorsPassAllKindsThrough is the future-proofing audit for the
// fault injector: Chaos must forward every message kind — including ones
// added after it was written — byte-for-byte when no fault fires. The
// wrapper is deliberately kind-agnostic (it switches on its ChaosMode),
// and this test iterates 0..KindCount so adding a kind
// without passthrough coverage is impossible: the new kind lands here
// automatically.
func TestInjectorsPassAllKindsThrough(t *testing.T) {
	wrap := map[string]func(tr Transport) Transport{
		"chaos-none": func(tr Transport) Transport {
			return NewChaos(tr, ChaosConfig{Mode: ChaosNone})
		},
	}
	for name, w := range wrap {
		t.Run(name, func(t *testing.T) {
			locals := NewLocalGroup(2)
			a, b := w(locals[0]), w(locals[1])
			defer a.Close()
			defer b.Close()
			for k := Kind(0); k < KindCount; k++ {
				payload := []float32{float32(k) + 0.5, -1, 2}
				tag := MakeTagE(k, 1, 2, 3, 1)
				if k.Ctrl() {
					if err := b.SendCtrl(0, tag, payload); err != nil {
						t.Fatalf("%v: SendCtrl: %v", k, err)
					}
					gotTag, got, err := a.RecvCtrl(1, time.Second)
					if err != nil {
						t.Fatalf("%v: RecvCtrl: %v", k, err)
					}
					if gotTag != tag {
						t.Fatalf("%v: ctrl tag %v, want %v", k, gotTag, tag)
					}
					requireSameWords(t, k, got, payload)
					continue
				}
				if err := b.Send(0, tag, payload); err != nil {
					t.Fatalf("%v: Send: %v", k, err)
				}
				got := make([]float32, len(payload))
				if err := a.Recv(1, tag, got); err != nil {
					t.Fatalf("%v: Recv: %v", k, err)
				}
				requireSameWords(t, k, got, payload)
			}
		})
	}
}

func requireSameWords(t *testing.T, k Kind, got, want []float32) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%v: payload length %d, want %d", k, len(got), len(want))
	}
	for i := range want {
		if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
			t.Fatalf("%v: payload word %d = %g, want %g", k, i, got[i], want[i])
		}
	}
}

// TestMeterCountsPerKind pins the transport-layer byte accounting that
// backs the compression measurements: words are attributed to the tag's
// kind, only successful sends count, and GradBytes counts the scatter
// frames (KindGrad) alone — reduced slices travelling up the tree
// (KindGather) are f32 master state, not codec traffic.
func TestMeterCountsPerKind(t *testing.T) {
	locals := NewLocalGroup(2)
	m := NewMeter(locals[1])
	defer m.Close()
	defer locals[0].Close()

	send := func(k Kind, n int) {
		t.Helper()
		if err := m.Send(0, MakeTag(k, 0, 0, 1), make([]float32, n)); err != nil {
			t.Fatalf("send %v: %v", k, err)
		}
	}
	send(KindGrad, 100)
	send(KindGrad, 28)
	send(KindGather, 64)
	send(KindBcast, 1000)

	if got := m.SentWords(KindGrad); got != 128 {
		t.Errorf("SentWords(KindGrad) = %d, want 128", got)
	}
	if got := m.SentFrames(KindGrad); got != 2 {
		t.Errorf("SentFrames(KindGrad) = %d, want 2", got)
	}
	if got := m.GradBytes(); got != 4*128 {
		t.Errorf("GradBytes = %d, want %d", got, 4*128)
	}
	if got := m.SentBytes(KindBcast); got != 4000 {
		t.Errorf("SentBytes(KindBcast) = %d, want 4000", got)
	}
	if got := m.SentWords(KindLoss); got != 0 {
		t.Errorf("SentWords(KindLoss) = %d, want 0", got)
	}

	// A failed send must not count: send through a closed endpoint.
	fm := NewMeter(NewLocalGroup(2)[1])
	fm.Close()
	if err := fm.Send(0, MakeTag(KindGrad, 0, 0, 1), make([]float32, 50)); !errors.Is(err, ErrClosed) {
		t.Fatalf("Send on a closed endpoint: err = %v, want ErrClosed", err)
	}
	if got := fm.SentWords(KindGrad); got != 0 {
		t.Errorf("failed send counted: SentWords = %d, want 0", got)
	}
}
