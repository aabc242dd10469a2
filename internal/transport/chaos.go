package transport

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// ChaosMode selects the failure a Chaos wrapper injects.
type ChaosMode int

const (
	// ChaosNone injects nothing.
	ChaosNone ChaosMode = iota
	// ChaosCrash kills the endpoint at the trigger iteration: the
	// underlying transport is closed and every subsequent operation
	// returns ErrClosed — the in-process analogue of kill -9.
	ChaosCrash
	// ChaosHang freezes the endpoint at the trigger iteration: every
	// subsequent operation blocks until Close. The rank looks alive at
	// the TCP level but goes silent — the failure heartbeats exist for.
	ChaosHang
	// ChaosPartition cuts this endpoint's outbound traffic (data and
	// control) to the configured peers from the trigger iteration on;
	// frames are silently dropped, as a one-way network partition would.
	// Wrap both endpoints to model a symmetric cut.
	ChaosPartition
	// ChaosStraggle slows the endpoint down: from the trigger iteration
	// on, the first data-plane send of every iteration sleeps for
	// StraggleDelay. Heartbeats still flow, so the rank is demonstrably
	// alive — just too slow — which is exactly what separates the
	// straggler-deadline path from the dead-peer path.
	ChaosStraggle
)

// String implements fmt.Stringer.
func (m ChaosMode) String() string {
	switch m {
	case ChaosNone:
		return "none"
	case ChaosCrash:
		return "crash"
	case ChaosHang:
		return "hang"
	case ChaosPartition:
		return "partition"
	case ChaosStraggle:
		return "straggle"
	default:
		return fmt.Sprintf("chaos(%d)", int(m))
	}
}

// ParseChaosMode is the inverse of ChaosMode.String over the defined
// modes: the spelling a drill is configured with ("none", "crash", ...).
func ParseChaosMode(name string) (ChaosMode, error) {
	for m := ChaosNone; m <= ChaosStraggle; m++ {
		if m.String() == name {
			return m, nil
		}
	}
	return ChaosNone, fmt.Errorf("transport: unknown chaos mode %q (none|crash|hang|partition|straggle)", name)
}

// ChaosConfig configures one injected cluster failure.
type ChaosConfig struct {
	Mode ChaosMode
	// AtIter is the training iteration whose first data-plane operation
	// triggers the failure. A seeded drill draws it (and the victim)
	// with faultinject.ClusterScenario.
	AtIter int
	// Peers lists the base ranks a partition cuts (ChaosPartition only).
	Peers []int
	// StraggleDelay is the per-iteration slowdown (ChaosStraggle only,
	// default 250ms).
	StraggleDelay time.Duration
}

// Chaos wraps a Transport with one reproducible failure —
// crash, hang, partition, or straggle — triggered when the data plane
// first touches the configured iteration. It is the cluster-level
// member of the faultinject family: Chaos removes (or degrades) a whole
// rank, which is what the elastic fault-tolerance layer in internal/dist
// exists to survive.
type Chaos struct {
	// Transport is the wrapped endpoint; Rank, Size, Interrupt and
	// Resume are its own, every operation a failure can bite is
	// redefined below.
	Transport
	cfg ChaosConfig
	cut map[int]bool

	fired     atomic.Bool
	lastSlept atomic.Int64 // last iteration a straggle sleep ran for
	stopped   chan struct{}
	closeOnce sync.Once
}

var _ Transport = (*Chaos)(nil)

// NewChaos wraps t with the configured failure.
func NewChaos(t Transport, cfg ChaosConfig) *Chaos {
	if cfg.StraggleDelay <= 0 {
		cfg.StraggleDelay = 250 * time.Millisecond
	}
	cut := make(map[int]bool, len(cfg.Peers))
	for _, p := range cfg.Peers {
		cut[p] = true
	}
	c := &Chaos{Transport: t, cfg: cfg, cut: cut, stopped: make(chan struct{})}
	c.lastSlept.Store(-1)
	return c
}

// TriggerIter returns the configured trigger iteration.
func (c *Chaos) TriggerIter() int { return c.cfg.AtIter }

// Fired reports whether the failure has triggered.
func (c *Chaos) Fired() bool { return c.fired.Load() }

// arm fires the failure if tag has reached the trigger iteration and
// reports whether the failure is active.
func (c *Chaos) arm(tag Tag) bool {
	if c.cfg.Mode == ChaosNone {
		return false
	}
	if c.fired.Load() {
		return true
	}
	if tag.Iter() >= c.cfg.AtIter {
		c.fired.Store(true)
		return true
	}
	return false
}

// crash closes the wrapped endpoint exactly once.
func (c *Chaos) crash() {
	c.closeOnce.Do(func() {
		close(c.stopped)
		c.Transport.Close()
	})
}

// hang blocks until the endpoint is closed.
func (c *Chaos) hang() {
	<-c.stopped
}

// straggleSleep sleeps once per iteration, interruptibly.
func (c *Chaos) straggleSleep(iter int) {
	if int(c.lastSlept.Load()) >= iter {
		return
	}
	c.lastSlept.Store(int64(iter))
	t := time.NewTimer(c.cfg.StraggleDelay)
	defer t.Stop()
	select {
	case <-t.C:
	case <-c.stopped:
	}
}

// Send implements Transport, injecting the configured failure first.
func (c *Chaos) Send(to int, tag Tag, payload []float32) error {
	if c.arm(tag) {
		switch c.cfg.Mode {
		case ChaosCrash:
			c.crash()
			return ErrClosed
		case ChaosHang:
			c.hang()
			return ErrClosed
		case ChaosPartition:
			if c.cut[to] {
				return nil // dropped on the floor, as a partition would
			}
		case ChaosStraggle:
			c.straggleSleep(tag.Iter())
		}
	}
	return c.Transport.Send(to, tag, payload)
}

// Recv implements Transport.
func (c *Chaos) Recv(from int, tag Tag, buf []float32) error {
	if c.arm(tag) {
		switch c.cfg.Mode {
		case ChaosCrash:
			c.crash()
			return ErrClosed
		case ChaosHang:
			c.hang()
			return ErrClosed
		}
	}
	return c.Transport.Recv(from, tag, buf)
}

// SendCtrl implements Transport. Control sends obey the current failure
// state but never trigger it: arming is a data-plane event keyed to the
// training iteration, which heartbeat tags do not carry.
func (c *Chaos) SendCtrl(to int, tag Tag, payload []float32) error {
	if c.fired.Load() {
		switch c.cfg.Mode {
		case ChaosCrash:
			return ErrClosed
		case ChaosHang:
			c.hang()
			return ErrClosed
		case ChaosPartition:
			if c.cut[to] {
				return nil
			}
		}
	}
	return c.Transport.SendCtrl(to, tag, payload)
}

// RecvCtrl implements Transport.
func (c *Chaos) RecvCtrl(from int, timeout time.Duration) (Tag, []float32, error) {
	if c.fired.Load() {
		switch c.cfg.Mode {
		case ChaosCrash:
			return 0, nil, ErrClosed
		case ChaosHang:
			c.hang()
			return 0, nil, ErrClosed
		}
	}
	return c.Transport.RecvCtrl(from, timeout)
}

// Close implements Transport; it also unblocks a hung or straggling
// endpoint.
func (c *Chaos) Close() error {
	var err error
	c.closeOnce.Do(func() {
		close(c.stopped)
		err = c.Transport.Close()
	})
	return err
}
