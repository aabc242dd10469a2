package transport

import (
	"fmt"
	"sync"
	"time"

	"coarsegrain/internal/rng"
)

// FlakyConfig sets the per-Send fault probabilities of a Flaky wrapper.
// The probabilities are evaluated independently in the order drop, then
// duplicate, then delay; a dropped frame is never also duplicated.
type FlakyConfig struct {
	// DropProb is the probability a Send silently loses the frame and
	// reports ErrTransient, exercising the caller's retry loop.
	DropProb float32
	// DupProb is the probability a Send transmits the frame twice,
	// exercising the receiver's dedupe.
	DupProb float32
	// DelayProb is the probability a Send sleeps up to MaxDelay first,
	// exercising ordering under skew.
	DelayProb float32
	// MaxDelay bounds the injected delay (default 2ms when zero and
	// DelayProb > 0).
	MaxDelay time.Duration
}

// FlakyStats counts the faults a Flaky wrapper has injected.
type FlakyStats struct {
	Sends, Drops, Dups, Delays int
}

// Flaky wraps a Transport with seeded, reproducible message faults —
// the network analogue of faultinject.FlakyOpener. Because every fault
// decision comes from a private internal/rng stream, a failing scenario
// replays exactly under the same seed (ROBUSTNESS.md); and because the
// receiving side's dedupe plus the sender's bounded retry absorb every
// injected fault, a flaky run must still converge to the bit-identical
// training result — asserted by the dist test suite.
type Flaky struct {
	// Transport is the wrapped endpoint. Flaky redefines only Send, so
	// everything else — Recv, the control plane (the fault model targets
	// the lock-step data plane, and the fencing protocol already
	// tolerates shed control frames by re-sending), Interrupt, Resume,
	// Close — reaches it through the embedding.
	Transport
	cfg FlakyConfig

	mu    sync.Mutex
	r     *rng.RNG
	stats FlakyStats
}

var _ Transport = (*Flaky)(nil)

// NewFlaky wraps t with seeded faults. A zero config injects nothing.
func NewFlaky(t Transport, cfg FlakyConfig, seed uint64) *Flaky {
	if cfg.MaxDelay <= 0 {
		cfg.MaxDelay = 2 * time.Millisecond
	}
	return &Flaky{Transport: t, cfg: cfg, r: rng.New(seed, 0xF1A2B)}
}

// Stats returns the fault counts so far.
func (f *Flaky) Stats() FlakyStats {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.stats
}

// Send implements Transport, possibly dropping, duplicating or delaying
// the frame first.
func (f *Flaky) Send(to int, tag Tag, payload []float32) error {
	f.mu.Lock()
	f.stats.Sends++
	drop := f.r.Bernoulli(f.cfg.DropProb)
	dup := !drop && f.r.Bernoulli(f.cfg.DupProb)
	var delay time.Duration
	if !drop && f.r.Bernoulli(f.cfg.DelayProb) {
		delay = time.Duration(f.r.Intn(int(f.cfg.MaxDelay)))
		f.stats.Delays++
	}
	if drop {
		f.stats.Drops++
	}
	if dup {
		f.stats.Dups++
	}
	f.mu.Unlock()

	if drop {
		return fmt.Errorf("flaky: dropped %v to rank %d: %w", tag, to, ErrTransient)
	}
	if delay > 0 {
		time.Sleep(delay)
	}
	if err := f.Transport.Send(to, tag, payload); err != nil {
		return err
	}
	if dup {
		return f.Transport.Send(to, tag, payload)
	}
	return nil
}
