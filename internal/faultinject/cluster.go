package faultinject

// This file is the cluster arm of the injector: where the rest of the
// package breaks one process (a torn checkpoint, a poisoned gradient),
// ClusterScenario breaks one *rank* of a distributed group — crash,
// hang, partition or straggle, via transport.Chaos — with every choice
// (victim, trigger iteration, partition cut) drawn from the same seeded
// stream, so a cluster failure drill replays bit-identically from its
// seed. The elastic supervisor (internal/dist.RunElastic) is the code
// under test; dnncluster's -chaos-* flags (internal/cluster) feed these
// plans into real runs.

import (
	"fmt"
	"time"

	"coarsegrain/internal/transport"
)

// ClusterScenario is one fully resolved cluster failure: which rank
// fails, how, and at which training iteration.
type ClusterScenario struct {
	// Victim is the failing base rank — never 0: killing the
	// coordinator is unrecoverable by design (it owns the solver), so
	// seeded drills always target a worker.
	Victim int
	// Mode is the injected failure.
	Mode transport.ChaosMode
	// AtIter is the iteration whose first data-plane operation triggers
	// the failure.
	AtIter int
	// Peers is the outbound cut for ChaosPartition (always includes the
	// coordinator, so the failure is detectable); nil otherwise.
	Peers []int
	// Delay is the per-iteration slowdown for ChaosStraggle (zero means
	// the transport.Chaos default).
	Delay time.Duration
}

// ClusterScenario draws a scenario from the injector's stream: a victim
// in [1, ranks) and a trigger in [1, iters) — never iteration 0, so the
// group always commits work before the failure, which is what makes the
// recovery's bit-identity claim non-vacuous.
func (in *Injector) ClusterScenario(ranks, iters int, mode transport.ChaosMode) (ClusterScenario, error) {
	if ranks < 2 {
		return ClusterScenario{}, fmt.Errorf("faultinject: cluster scenario needs >= 2 ranks, got %d", ranks)
	}
	if iters < 2 {
		return ClusterScenario{}, fmt.Errorf("faultinject: cluster scenario needs >= 2 iterations, got %d", iters)
	}
	s := ClusterScenario{
		Victim: 1 + in.r.Intn(ranks-1),
		Mode:   mode,
		AtIter: 1 + in.r.Intn(iters-1),
	}
	if mode == transport.ChaosPartition {
		s.Peers = []int{0}
	}
	return s, nil
}

// Chaos wraps one endpoint — the victim's — in the transport.Chaos
// carrying the planned failure: the single place a scenario becomes a
// transport.ChaosConfig, for a whole in-process group (Wrap) and for a
// TCP worker that is told it is the victim (internal/cluster) alike.
func (s ClusterScenario) Chaos(t transport.Transport) *transport.Chaos {
	return transport.NewChaos(t, transport.ChaosConfig{
		Mode:          s.Mode,
		AtIter:        s.AtIter,
		Peers:         s.Peers,
		StraggleDelay: s.Delay,
	})
}

// Wrap applies the scenario to a group's transports (index = base
// rank): the victim's endpoint is replaced by its Chaos wrapper, every
// other endpoint is untouched. Returns the victim's Chaos handle so
// tests can assert on TriggerIter and Fired.
func (s ClusterScenario) Wrap(group []transport.Transport) (*transport.Chaos, error) {
	if s.Victim <= 0 || s.Victim >= len(group) {
		return nil, fmt.Errorf("faultinject: victim rank %d outside group of %d", s.Victim, len(group))
	}
	ch := s.Chaos(group[s.Victim])
	group[s.Victim] = ch
	return ch, nil
}

// String renders the scenario for logs and drill output.
func (s ClusterScenario) String() string {
	return fmt.Sprintf("rank %d %s at iteration %d", s.Victim, s.Mode, s.AtIter)
}
