// Elastic fault tolerance for the distributed trainer (ROBUSTNESS.md,
// "Cluster failures"): RunElastic wraps the lockstep Node protocol in a
// supervisor that detects dead peers with coordinator-driven heartbeats,
// fences the group at the last committed iteration when membership must
// change, and resumes the survivors (or a grown group, on rejoin) from
// the fenced checkpoint — bit-identical to a clean run of the new
// membership resumed at that same checkpoint.
//
// # Failure model
//
// Rank 0 (the coordinator) pings every member on the control plane and
// declares a peer dead when its pongs stop for PeerTimeout. A peer that
// keeps answering pings but stops making training progress is a
// straggler, not a corpse: the optional per-iteration deadline evicts
// it explicitly, by following the lockstep wait chain (each rank
// reports which rank it is blocked on in its pong) to the rank that is
// holding everyone up. The two paths are deliberately distinct — a
// straggler's link still works, so only the deadline may remove it.
//
// # The fence
//
// A fence is the single recovery primitive, used for deaths, eviction
// and rejoin alike:
//
//  1. The coordinator picks the fence point F — the number of solver
//     updates actually applied — and checkpoints the solver at F.
//  2. It bumps the membership epoch and broadcasts KindFence (epoch and
//     F in the tag, the new member list in the payload) to every peer,
//     re-sending until every *new* member has acknowledged. Interrupt
//     unwinds any lockstep loop still blocked on the old membership.
//  3. Only after the ACK barrier does any epoch-N+1 data frame exist,
//     so a surviving rank can never see new-epoch traffic before it has
//     abandoned the old epoch; leftovers from the old epoch are
//     discarded as stale by the transport's (epoch, iter) ordering.
//  4. Every member rebuilds its Node for the new (rank, size) over a
//     transport.View, with StartIter F and the data pipeline skipped to
//     F batches; the coordinator reloads the fenced checkpoint and
//     SyncWeights re-seeds the group bitwise.
//
// Step 4 is literally the clean-resume code path, which is the whole
// determinism argument: after a fence the group is indistinguishable
// from a fresh k'-rank run resumed from that checkpoint, so everything
// the lockstep protocol guarantees about bit-identical training holds
// for the degraded (or re-grown) run too.
//
// # The rigid case
//
// RunElastic is the one loop that drives a rank to its target
// iteration, and a plain fixed-membership run is its degenerate
// configuration rather than a second loop. A run is supervised exactly
// when its configuration leaves the supervisor something to do: the
// group may shrink (MinRanks below the initial membership), evicted
// ranks may come back (Rejoin), stragglers may be evicted
// (IterDeadline), or a base rank starts outside the membership and will
// ask to join. When none of that holds, no failure is survivable and no
// membership change can ever be decided, so nothing watches: no
// listener, pinger or responder goroutine runs, no control frame
// crosses the wire, no FenceDir is needed, and a lockstep error is
// returned at once instead of after a FenceTimeout spent waiting for a
// fence that cannot come. What is left is build, (on resume) load and
// SyncWeights, Step to the target, snapshot — wire traffic and timing
// of a hand-written NewRoot/NewWorker + Step loop, which
// TestUnsupervisedRunIsThePlainLoop pins bitwise.
//
// # Commit rule under stragglers
//
// An iteration either commits — every contribution folded in ascending
// rank order, solver updated — or it is abandoned at the fence and
// re-run by the new membership from the checkpoint. A slow rank's
// contribution is therefore never silently dropped: it is either in
// the committed fold, or the whole iteration is rolled back with it.
package dist

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"coarsegrain/internal/net"
	"coarsegrain/internal/snapshot"
	"coarsegrain/internal/solver"
	"coarsegrain/internal/trace"
	"coarsegrain/internal/transport"
)

// RebuildFunc builds the network a given view rank of a size-rank group
// trains when iteration numbering starts at startIter. It must produce
// the same seeded architecture as the original build, sharded for
// (rank, size), with the data pipeline already skipped startIter batches
// (layers.Data.Skip) — the elastic supervisor calls it at every
// membership change, and a clean-resume run must be able to call it with
// identical arguments and get an identical net. RunElastic only ever
// calls it on the goroutine RunElastic itself was called on.
type RebuildFunc func(rank, size, startIter int) (*net.Net, error)

// ElasticConfig configures RunElastic. Every rank of the base mesh must
// pass identical values (rank-independent fields only).
type ElasticConfig struct {
	// Iters is the absolute target iteration count: the run ends when
	// the committed-update counter reaches it.
	Iters int
	// Rebuild builds the per-membership network (see RebuildFunc).
	Rebuild RebuildFunc
	// Solver configures the coordinator's solver.
	Solver solver.Config
	// Opts carries the dist options (fanout, gradient wire format).
	Opts Options
	// Members lists the initial base-rank membership (must include 0,
	// ascending). Nil means every base rank. A base rank outside the
	// initial membership starts in the joining state and is admitted at
	// the next iteration boundary.
	Members []int
	// StartIter resumes iteration numbering at this point (0 = fresh).
	StartIter int
	// ResumePath is the solver snapshot the coordinator loads before the
	// first iteration; the initial weight sync ships its weights. Every
	// rank passes it (only rank 0 opens the file): in the rigid case its
	// presence is what tells a worker that a sync precedes the first
	// step.
	ResumePath string
	// FenceDir is where the coordinator writes fence checkpoints
	// (required on rank 0 of a supervised run).
	FenceDir string
	// SnapshotPath, when set on the coordinator, receives the final
	// solver state on successful completion (dnntrain-compatible).
	SnapshotPath string
	// MinRanks aborts the run when a fence would shrink the membership
	// below it (default 1 — degrade all the way to solo). At or above
	// the initial membership size no shrink is allowed at all, which —
	// absent Rejoin, IterDeadline and joiners — is the rigid case.
	MinRanks int
	// Rejoin makes an evicted rank re-enter the joining state instead of
	// returning; a crashed rank can never rejoin (its endpoint is gone).
	Rejoin bool
	// Heartbeat is the coordinator's ping period (default 20ms).
	Heartbeat time.Duration
	// PeerTimeout is the silence after which a member is declared dead
	// (default 10 heartbeats). Stragglers answer pings, so they never
	// trip this; only IterDeadline can evict them.
	PeerTimeout time.Duration
	// IterDeadline, when positive, bounds one lockstep iteration at the
	// coordinator; on expiry the wait chain's straggler is evicted and
	// the iteration re-runs at the reduced membership.
	IterDeadline time.Duration
	// FenceTimeout bounds the fence's ACK barrier, a worker's wait for a
	// fence after its lockstep loop unwound, and how long a non-member
	// keeps asking to join (default 10s).
	FenceTimeout time.Duration
	// OnCommit, when set, is called on the coordinator's run goroutine
	// after every committed iteration with the committed-update count
	// and that iteration's global loss — a live view of Report.Losses.
	OnCommit func(iter int, loss float64)
}

func (c ElasticConfig) withDefaults(size int) ElasticConfig {
	if c.Heartbeat <= 0 {
		c.Heartbeat = 20 * time.Millisecond
	}
	if c.PeerTimeout <= 0 {
		c.PeerTimeout = 10 * c.Heartbeat
	}
	if c.FenceTimeout <= 0 {
		c.FenceTimeout = 10 * time.Second
	}
	if c.MinRanks < 1 {
		c.MinRanks = 1
	}
	if c.Members == nil {
		c.Members = make([]int, size)
		for i := range c.Members {
			c.Members[i] = i
		}
	}
	return c
}

// FenceEvent records one membership change.
type FenceEvent struct {
	// Epoch is the membership epoch the fence established.
	Epoch int
	// Iter is the fence point: committed updates when the fence fired.
	Iter int
	// Members is the new membership (base ranks, ascending).
	Members []int
	// Removed and Joined list the base ranks the fence dropped/admitted.
	Removed []int
	Joined  []int
	// Checkpoint is the fenced solver snapshot the new membership
	// resumed from.
	Checkpoint string
}

// Report summarizes one rank's elastic run.
type Report struct {
	// Losses are the committed global losses (coordinator only), in
	// commit order. Iterations abandoned at a fence do not appear.
	Losses []float64
	// Fences lists membership changes in order (coordinator only).
	Fences []FenceEvent
	// FinalSize is the membership size at the end of the run.
	FinalSize int
	// Evicted is set on a worker that was fenced out and did not rejoin.
	Evicted bool
	// Weights is a copy of this rank's final parameter values.
	Weights [][]float32
}

// errFencePending is the interrupt a worker's control responder injects
// when a fence arrives: the lockstep loop unwinds and adopts it.
var errFencePending = errors.New("dist: fence pending")

// errStraggler annotates a deadline eviction's PeerDownError cause.
var errStraggler = errors.New("dist: straggler exceeded iteration deadline")

// itof/ftoi move small integers through float32 control payloads as raw
// bits — no rounding, sign-preserving (so -1 "not waiting" survives).
func itof(v int) float32 { return math.Float32frombits(uint32(int32(v))) }
func ftoi(f float32) int { return int(int32(math.Float32bits(f))) }

func encodeMembers(members []int) []float32 {
	out := make([]float32, len(members))
	for i, m := range members {
		out[i] = itof(m)
	}
	return out
}

func decodeMembers(payload []float32) []int {
	out := make([]int, len(payload))
	for i, f := range payload {
		out[i] = ftoi(f)
	}
	return out
}

// Supervised reports whether the configuration leaves a supervisor
// anything to decide over a base mesh of size ranks — see "The rigid
// case" in the package comment. RunElastic computes it; it is exported
// so a caller can tell its user which kind of run they asked for.
func (c ElasticConfig) Supervised(size int) bool {
	c = c.withDefaults(size)
	return c.MinRanks < len(c.Members) || c.Rejoin || c.IterDeadline > 0 || len(c.Members) < size
}

// opensWithSync reports whether the run's first act is a weight sync —
// asked by the coordinator and by every worker, who must agree. A
// supervised group always syncs; a rigid one only has weights to ship
// when the coordinator just loaded some, since every rank seeded the
// same initial values.
func opensWithSync(c ElasticConfig, supervised bool) bool {
	return supervised || c.ResumePath != ""
}

func containsRank(members []int, r int) bool {
	for _, m := range members {
		if m == r {
			return true
		}
	}
	return false
}

func weightsCopy(n *net.Net) [][]float32 {
	out := make([][]float32, len(n.Params()))
	for i, p := range n.Params() {
		out[i] = append([]float32(nil), p.Data()...)
	}
	return out
}

// RunElastic runs fault-tolerant distributed training over the base
// mesh t (all ranks of the original rendezvous, alive or not). Rank 0
// coordinates; every process calls RunElastic with the same config.
// It returns this rank's Report, or an error when the run cannot
// continue (coordinator lost, membership below MinRanks, this rank's
// own endpoint dead).
func RunElastic(t transport.Transport, cfg ElasticConfig) (*Report, error) {
	cfg = cfg.withDefaults(t.Size())
	if cfg.Iters <= cfg.StartIter {
		return nil, fmt.Errorf("dist: target %d iterations not beyond start %d", cfg.Iters, cfg.StartIter)
	}
	if cfg.Rebuild == nil {
		return nil, fmt.Errorf("dist: elastic run needs a Rebuild function")
	}
	if !containsRank(cfg.Members, 0) {
		return nil, fmt.Errorf("dist: initial membership %v must include the coordinator", cfg.Members)
	}
	if !sort.IntsAreSorted(cfg.Members) {
		return nil, fmt.Errorf("dist: initial membership %v not ascending", cfg.Members)
	}
	supervised := cfg.Supervised(t.Size())
	if t.Rank() == 0 {
		if supervised && cfg.FenceDir == "" {
			return nil, fmt.Errorf("dist: coordinator of a supervised run needs a FenceDir for fence checkpoints")
		}
		c := &coordinator{base: t, cfg: cfg, supervised: supervised}
		return c.run()
	}
	w := &elasticWorker{base: t, cfg: cfg, supervised: supervised}
	return w.run()
}

// buildNode constructs the Node one membership epoch trains with: a
// re-ranked view over the base mesh, a freshly rebuilt net positioned at
// startIter, and tags carrying the epoch.
func buildNode(base transport.Transport, cfg ElasticConfig, members []int, epoch, startIter int) (*Node, *transport.View, error) {
	view, err := transport.NewView(base, members)
	if err != nil {
		return nil, nil, err
	}
	n, err := cfg.Rebuild(view.Rank(), len(members), startIter)
	if err != nil {
		return nil, nil, fmt.Errorf("dist: rebuild rank %d/%d at iter %d: %w", view.Rank(), len(members), startIter, err)
	}
	var sc *solver.Config
	if view.Rank() == 0 {
		sc = &cfg.Solver
	}
	nd, err := newNode(view, n, sc, cfg.Opts, epoch, startIter)
	if err != nil {
		return nil, nil, err
	}
	return nd, view, nil
}

// recoverSpan records a PhaseRecover span on the (possibly nil) tracer:
// the fence iteration in Lo, the new membership size in Hi.
func recoverSpan(tr *trace.Tracer, name string, fenceIter, newSize int, start time.Time) {
	if !tr.Enabled() {
		return
	}
	tr.Record(trace.Span{
		Name: name, Phase: trace.PhaseRecover, Rank: trace.RankDriver, Band: -1,
		Lo: fenceIter, Hi: newSize, Start: tr.Stamp(start), Dur: time.Since(start),
	})
}

// ---------------------------------------------------------------------
// Coordinator (base rank 0)
// ---------------------------------------------------------------------

type ackMsg struct {
	peer, epoch int
}

type coordinator struct {
	base       transport.Transport
	cfg        ElasticConfig
	supervised bool

	mu       sync.Mutex
	members  []int // current membership, base ranks ascending
	lastSeen map[int]time.Time
	progress map[int]int // last reported committed iteration per peer
	waitOn   map[int]int // base rank each peer reports being blocked on
	down     map[int]error
	joinReq  map[int]bool

	ackCh chan ackMsg
	stop  chan struct{}
	wg    sync.WaitGroup

	node  *Node
	epoch int
	// committed mirrors the main loop's committed-update count for the
	// deadline callback, which must not read the Node's plain counters.
	committed atomic.Int64

	report Report
}

func (c *coordinator) run() (*Report, error) {
	size := c.base.Size()
	c.members = append([]int(nil), c.cfg.Members...)
	c.lastSeen = make(map[int]time.Time, size)
	c.progress = make(map[int]int, size)
	c.waitOn = make(map[int]int, size)
	c.down = make(map[int]error)
	c.joinReq = make(map[int]bool)
	c.ackCh = make(chan ackMsg, 8*size)
	c.stop = make(chan struct{})
	now := time.Now()
	for _, m := range c.members {
		c.lastSeen[m] = now
		c.waitOn[m] = -1
	}
	c.committed.Store(int64(c.cfg.StartIter))

	nd, _, err := buildNode(c.base, c.cfg, c.members, 0, c.cfg.StartIter)
	if err != nil {
		return nil, err
	}
	c.node = nd
	if c.cfg.ResumePath != "" {
		if err := snapshot.LoadSolverFile(c.cfg.ResumePath, nd.Solver()); err != nil {
			return nil, fmt.Errorf("dist: resume from %s: %w", c.cfg.ResumePath, err)
		}
		if nd.Solver().Iter() != c.cfg.StartIter {
			return nil, fmt.Errorf("dist: checkpoint %s is at iteration %d, run configured to start at %d",
				c.cfg.ResumePath, nd.Solver().Iter(), c.cfg.StartIter)
		}
	}

	// Monitoring goroutines: one control listener per base peer (the
	// single consumer of that link's control queue) plus the pinger.
	if c.supervised {
		for p := 1; p < size; p++ {
			c.wg.Add(1)
			go c.listen(p)
		}
		c.wg.Add(1)
		go c.ping()
	}
	defer func() {
		close(c.stop)
		c.wg.Wait()
	}()

	needSync := opensWithSync(c.cfg, c.supervised)
	for c.node.Iter() < c.cfg.Iters {
		if downs, joins := c.pendingChanges(); len(downs)+len(joins) > 0 {
			if err := c.fence(downs, joins); err != nil {
				return &c.report, err
			}
			needSync = false
			continue
		}
		if needSync {
			if err := c.node.SyncWeights(); err != nil {
				if ferr := c.recover(err); ferr != nil {
					return &c.report, ferr
				}
			}
			// recover ends in a fence, which re-syncs internally.
			needSync = false
			continue
		}
		timer := c.armDeadline()
		ls, err := c.node.Step(1)
		if timer != nil {
			timer.Stop()
		}
		if err != nil {
			if ferr := c.recover(err); ferr != nil {
				return &c.report, ferr
			}
			continue
		}
		c.committed.Store(int64(c.node.Iter()))
		c.report.Losses = append(c.report.Losses, ls...)
		if c.cfg.OnCommit != nil {
			c.cfg.OnCommit(c.node.Iter(), ls[0])
		}
	}
	c.report.FinalSize = c.node.Size()
	c.report.Weights = weightsCopy(c.node.Net())
	if c.cfg.SnapshotPath != "" {
		if err := snapshot.SaveSolverFile(c.cfg.SnapshotPath, c.node.Solver()); err != nil {
			return &c.report, fmt.Errorf("dist: final snapshot: %w", err)
		}
	}
	return &c.report, nil
}

// recover attributes a lockstep failure to membership changes and
// fences; when no peer can be blamed within the fence timeout — or at
// once in the rigid case, where nobody is looking for one — the original
// error is returned: fail loud, never spin.
func (c *coordinator) recover(err error) error {
	if !c.supervised {
		return err
	}
	var pde *transport.PeerDownError
	if errors.As(err, &pde) && pde.Rank != 0 {
		c.markDown(pde.Rank, pde.Cause)
	}
	deadline := time.Now().Add(c.cfg.FenceTimeout)
	for {
		downs, joins := c.pendingChanges()
		if len(downs)+len(joins) > 0 {
			return c.fence(downs, joins)
		}
		if time.Now().After(deadline) {
			return err
		}
		time.Sleep(c.cfg.Heartbeat)
	}
}

// armDeadline starts the straggler deadline for the iteration about to
// run, or returns nil when disabled. If the iteration has not committed
// when it fires, the wait chain's culprit is evicted and the lockstep
// loop interrupted; an iteration that commits first cancels it (its
// contributions were folded in rank order — the other arm of the
// commit rule).
func (c *coordinator) armDeadline() *time.Timer {
	if c.cfg.IterDeadline <= 0 {
		return nil
	}
	nd := c.node
	iterAt := nd.Iter()
	epochAt := nd.Epoch()
	return time.AfterFunc(c.cfg.IterDeadline, func() {
		if int(c.committed.Load()) > iterAt {
			return // the iteration committed just before the deadline
		}
		c.mu.Lock()
		stale := c.epoch != epochAt
		c.mu.Unlock()
		if stale {
			return // a fence already superseded this iteration
		}
		victim := c.pickStraggler(nd, iterAt)
		if victim <= 0 {
			return
		}
		c.markDown(victim, fmt.Errorf("%w (no commit within %v at iteration %d)",
			errStraggler, c.cfg.IterDeadline, iterAt))
	})
}

// pickStraggler follows the lockstep wait chain from the coordinator to
// the base rank actually holding the iteration up: each rank's pong
// reports who it is blocked on, and the chain's last waiting-on-nobody
// rank is the straggler. Falls back to the least-progressed member when
// the chain gives nothing usable. Returns -1 (or 0) when no peer should
// be evicted.
func (c *coordinator) pickStraggler(nd *Node, iterAt int) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	seen := map[int]bool{0: true}
	cur := -1
	if v := nd.WaitingOn(); v >= 0 && v < len(c.members) {
		cur = c.members[v]
	}
	for cur > 0 && !seen[cur] {
		seen[cur] = true
		next, ok := c.waitOn[cur]
		if !ok || next < 0 || next == cur {
			return cur
		}
		cur = next
	}
	if cur > 0 {
		return cur // cycle: evict where the chain closed
	}
	// Chain unusable (coordinator not blocked, or it pointed home):
	// evict the member with the least reported progress.
	victim, worst := -1, 1<<62
	for _, m := range c.members {
		if m == 0 || c.down[m] != nil {
			continue
		}
		p := c.progress[m]
		if p < worst || (p == worst && m > victim) {
			victim, worst = m, p
		}
	}
	if worst > iterAt {
		return -1 // everyone has moved past the stalled iteration
	}
	return victim
}

func (c *coordinator) currentMembers() []int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]int(nil), c.members...)
}

// markDown declares a member dead (or evicted) exactly once and unwinds
// the coordinator's lockstep loop.
func (c *coordinator) markDown(rank int, cause error) {
	c.mu.Lock()
	if rank == 0 || !containsRank(c.members, rank) || c.down[rank] != nil {
		c.mu.Unlock()
		return
	}
	c.down[rank] = cause
	c.mu.Unlock()
	c.base.Interrupt(&transport.PeerDownError{Rank: rank, Cause: cause})
}

// pendingChanges snapshots the accumulated deaths and join requests.
func (c *coordinator) pendingChanges() (downs map[int]error, joins []int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.down) > 0 {
		downs = make(map[int]error, len(c.down))
		for r, e := range c.down {
			downs[r] = e
		}
	}
	for r := range c.joinReq {
		if !containsRank(c.members, r) {
			joins = append(joins, r)
		}
	}
	sort.Ints(joins)
	return downs, joins
}

// listen is the single consumer of the control link from base peer p:
// it dispatches pongs into the liveness maps, join requests into the
// pending set, and fence acks to the barrier.
func (c *coordinator) listen(p int) {
	defer c.wg.Done()
	poll := c.cfg.Heartbeat
	for {
		select {
		case <-c.stop:
			return
		default:
		}
		tag, payload, err := c.base.RecvCtrl(p, poll)
		if errors.Is(err, transport.ErrCtrlTimeout) {
			continue
		}
		if err != nil {
			return // endpoint closed
		}
		switch tag.Kind() {
		case transport.KindPong:
			c.mu.Lock()
			c.lastSeen[p] = time.Now()
			if len(payload) >= 2 {
				c.progress[p] = ftoi(payload[0])
				c.waitOn[p] = ftoi(payload[1])
			}
			c.mu.Unlock()
		case transport.KindJoin:
			c.mu.Lock()
			c.joinReq[p] = true
			c.mu.Unlock()
		case transport.KindAck:
			select {
			case c.ackCh <- ackMsg{peer: p, epoch: tag.Epoch()}:
			default: // barrier not draining: stale ack, shed
			}
		}
	}
}

// ping probes every member each heartbeat and declares the silent ones
// dead after PeerTimeout.
func (c *coordinator) ping() {
	defer c.wg.Done()
	tick := time.NewTicker(c.cfg.Heartbeat)
	defer tick.Stop()
	for {
		select {
		case <-c.stop:
			return
		case <-tick.C:
		}
		c.mu.Lock()
		epoch := c.epoch
		members := append([]int(nil), c.members...)
		type suspect struct {
			rank    int
			silence time.Duration
		}
		var suspects []suspect
		for _, m := range members {
			if m == 0 || c.down[m] != nil {
				continue
			}
			if s := time.Since(c.lastSeen[m]); s > c.cfg.PeerTimeout {
				suspects = append(suspects, suspect{rank: m, silence: s})
			}
		}
		c.mu.Unlock()
		tag := transport.MakeTagE(transport.KindPing, epoch, 0, 0, 0)
		for _, m := range members {
			if m == 0 {
				continue
			}
			// Best-effort probe: a dead peer's queue sheds it, and the
			// silence is what the timeout below detects.
			//dnnlint:ignore transerr heartbeat probes are fire-and-forget by design
			_ = c.base.SendCtrl(m, tag, nil)
		}
		for _, s := range suspects {
			c.markDown(s.rank, fmt.Errorf("no heartbeat for %v (timeout %v)", s.silence, c.cfg.PeerTimeout))
		}
	}
}

// fence executes one membership change end to end: checkpoint at the
// fence point, FENCE broadcast with ACK barrier (non-ackers are dropped
// and the fence retried), rebuild over the new view, reload, re-sync.
func (c *coordinator) fence(downs map[int]error, joins []int) error {
	start := time.Now()
	fenceIter := c.node.Solver().Iter()
	// keep = 0: every fence checkpoint stays, each a resume point.
	ckpt, err := snapshot.SaveCheckpoint(c.cfg.FenceDir, c.node.Solver(), 0)
	if err != nil {
		return fmt.Errorf("dist: fence checkpoint at iteration %d: %w", fenceIter, err)
	}

	oldMembers := c.currentMembers()
	admitted := append([]int(nil), joins...)
	for {
		var newMembers []int
		for _, m := range oldMembers {
			if downs[m] == nil {
				newMembers = append(newMembers, m)
			}
		}
		for _, j := range admitted {
			if downs[j] == nil && !containsRank(newMembers, j) {
				newMembers = append(newMembers, j)
			}
		}
		sort.Ints(newMembers)
		if len(newMembers) < c.cfg.MinRanks {
			return fmt.Errorf("dist: fence at iteration %d leaves %d ranks, below MinRanks %d",
				fenceIter, len(newMembers), c.cfg.MinRanks)
		}
		c.mu.Lock()
		if c.epoch+1 > transport.MaxEpoch {
			c.mu.Unlock()
			return fmt.Errorf("dist: membership epochs exhausted (%d fences)", c.epoch)
		}
		c.epoch++
		epoch := c.epoch
		c.mu.Unlock()
		c.base.Resume()

		acked, err := c.fenceBarrier(epoch, newMembers, fenceIter)
		if err != nil {
			return err
		}
		if len(acked) == len(newMembers)-1 {
			// Barrier complete: commit the membership.
			var removed []int
			c.mu.Lock()
			for r := range c.down {
				removed = append(removed, r)
			}
			sort.Ints(removed)
			c.members = newMembers
			c.down = make(map[int]error)
			now := time.Now()
			for _, m := range newMembers {
				c.lastSeen[m] = now
				c.waitOn[m] = -1
				delete(c.joinReq, m)
			}
			c.mu.Unlock()

			nd, _, err := buildNode(c.base, c.cfg, newMembers, c.epoch, fenceIter)
			if err != nil {
				return err
			}
			if err := snapshot.LoadSolverFile(ckpt, nd.Solver()); err != nil {
				return fmt.Errorf("dist: reload fenced checkpoint %s: %w", ckpt, err)
			}
			c.node = nd
			c.committed.Store(int64(fenceIter))
			if err := nd.SyncWeights(); err != nil {
				// A member died between ack and sync: recover with a
				// fresh fence rather than giving up.
				return c.recover(err)
			}
			joined := make([]int, 0, len(admitted))
			for _, j := range admitted {
				if containsRank(newMembers, j) {
					joined = append(joined, j)
				}
			}
			c.report.Fences = append(c.report.Fences, FenceEvent{
				Epoch: epoch, Iter: fenceIter, Members: newMembers,
				Removed: removed, Joined: joined, Checkpoint: ckpt,
			})
			recoverSpan(nd.Net().Tracer(), "fence", fenceIter, len(newMembers), start)
			return nil
		}
		// Some member never acked within the barrier timeout: treat it
		// as down and fence again without it.
		for _, m := range newMembers {
			if m != 0 && !acked[m] {
				cause := fmt.Errorf("no fence ack for epoch %d within %v", epoch, c.cfg.FenceTimeout)
				downs[m] = cause
				c.mu.Lock()
				if containsRank(c.members, m) {
					c.down[m] = cause
				}
				c.mu.Unlock()
			}
		}
	}
}

// fenceBarrier broadcasts the fence and collects acks from every new
// non-coordinator member, re-sending each heartbeat until the barrier
// completes or times out. It returns the set of peers that acked.
func (c *coordinator) fenceBarrier(epoch int, newMembers []int, fenceIter int) (map[int]bool, error) {
	tag := transport.MakeTagE(transport.KindFence, epoch, fenceIter, 0, 0)
	payload := encodeMembers(newMembers)
	need := make(map[int]bool, len(newMembers))
	for _, m := range newMembers {
		if m != 0 {
			need[m] = true
		}
	}
	acked := make(map[int]bool, len(need))
	broadcast := func() {
		// Every base peer hears the fence: survivors adopt it, evictees
		// learn they are out, joiners learn they are in. Sends to dead
		// endpoints shed harmlessly; the barrier below is the guarantee.
		for p := 1; p < c.base.Size(); p++ {
			//dnnlint:ignore transerr fence broadcast is re-sent until acked; the barrier is the guarantee
			_ = c.base.SendCtrl(p, tag, payload)
		}
	}
	broadcast()
	deadline := time.NewTimer(c.cfg.FenceTimeout)
	defer deadline.Stop()
	resend := time.NewTicker(c.cfg.Heartbeat * 4)
	defer resend.Stop()
	for len(acked) < len(need) {
		select {
		case ack := <-c.ackCh:
			if ack.epoch == epoch && need[ack.peer] {
				acked[ack.peer] = true
			}
		case <-resend.C:
			broadcast()
		case <-deadline.C:
			return acked, nil
		case <-c.stop:
			return acked, fmt.Errorf("dist: coordinator stopped during fence barrier")
		}
	}
	return acked, nil
}

// ---------------------------------------------------------------------
// Worker (base rank >= 1)
// ---------------------------------------------------------------------

// fenceOrder is one decoded KindFence announcement.
type fenceOrder struct {
	epoch   int
	iter    int
	members []int
}

// memberInfo is what the worker's control responder reads to answer
// pings: the live node (whose WaitingOn is the lockstep wait pointer)
// and the membership that maps its view ranks back to base ranks.
type memberInfo struct {
	node    *Node
	members []int
}

type elasticWorker struct {
	base       transport.Transport
	cfg        ElasticConfig
	supervised bool

	info     atomic.Pointer[memberInfo]
	progress atomic.Int64
	adopted  atomic.Int64 // highest membership epoch adopted (acked)

	mu      sync.Mutex
	pending *fenceOrder
	fenceCh chan struct{}

	// ctrlDead is closed when respond exits on a dead control link: no
	// fence can ever arrive, so takeFence must give up immediately
	// instead of burning the full FenceTimeout on a crashed endpoint.
	ctrlDead chan struct{}

	stop chan struct{}
	wg   sync.WaitGroup
}

func (w *elasticWorker) run() (*Report, error) {
	w.fenceCh = make(chan struct{}, 1)
	w.ctrlDead = make(chan struct{})
	w.stop = make(chan struct{})
	w.adopted.Store(-1)
	w.progress.Store(int64(w.cfg.StartIter))

	if w.supervised {
		w.wg.Add(1)
		go w.respond()
	}
	defer func() {
		close(w.stop)
		w.wg.Wait()
	}()

	me := w.base.Rank()
	var nd *Node
	if containsRank(w.cfg.Members, me) {
		var err error
		nd, _, err = buildNode(w.base, w.cfg, w.cfg.Members, 0, w.cfg.StartIter)
		if err != nil {
			return nil, err
		}
		w.setInfo(nd, w.cfg.Members)
		w.adopted.Store(0)
		if opensWithSync(w.cfg, w.supervised) {
			if err := nd.SyncWeights(); err != nil {
				var out adoptOutcome
				if nd, out = w.awaitAndAdopt(); out == adoptEvicted {
					return &Report{Evicted: true}, nil
				} else if out == adoptNoFence {
					return nil, err
				}
			}
		}
	}

	joinStart := time.Now()
	for {
		if nd == nil {
			// Joining: ask, then wait a beat for the admitting fence.
			if time.Since(joinStart) > w.cfg.FenceTimeout {
				return nil, fmt.Errorf("dist: rank %d not admitted within %v", me, w.cfg.FenceTimeout)
			}
			joinTag := transport.MakeTagE(transport.KindJoin, 0, 0, 0, me)
			//dnnlint:ignore transerr join requests repeat until a fence admits this rank
			_ = w.base.SendCtrl(0, joinTag, nil)
			if f := w.takeFence(4 * w.cfg.Heartbeat); f != nil {
				var out adoptOutcome
				if nd, out = w.adopt(f); out == adoptEvicted {
					return &Report{Evicted: true}, nil
				}
			}
			continue
		}
		if nd.Iter() >= w.cfg.Iters {
			return &Report{FinalSize: nd.Size(), Weights: weightsCopy(nd.Net())}, nil
		}
		_, err := nd.Step(1)
		if err == nil {
			w.progress.Store(int64(nd.Iter()))
			continue
		}
		var out adoptOutcome
		if nd, out = w.awaitAndAdopt(); out == adoptEvicted {
			return &Report{Evicted: true}, nil
		} else if out == adoptNoFence {
			return nil, err
		}
		joinStart = time.Now()
	}
}

// adoptOutcome classifies how a fence (or its absence) left this rank.
type adoptOutcome int

const (
	// adoptMember: this rank is a member of the new epoch (node != nil).
	adoptMember adoptOutcome = iota
	// adoptJoining: fenced out with Rejoin — back to the joining state.
	adoptJoining
	// adoptEvicted: fenced out for good; the run is over for this rank.
	adoptEvicted
	// adoptNoFence: no fence arrived; the triggering error stands.
	adoptNoFence
)

// awaitAndAdopt handles a lockstep failure: wait for the fence that
// explains it and adopt it. No fence can come in the rigid case.
func (w *elasticWorker) awaitAndAdopt() (*Node, adoptOutcome) {
	if !w.supervised {
		return nil, adoptNoFence
	}
	deadline := time.Now().Add(w.cfg.FenceTimeout)
	for {
		remain := time.Until(deadline)
		if remain <= 0 {
			return nil, adoptNoFence
		}
		f := w.takeFence(remain)
		if f == nil {
			return nil, adoptNoFence
		}
		if nd, out := w.adopt(f); out != adoptNoFence {
			return nd, out
		}
	}
}

// adopt applies one fence: resume the interrupted transport, then
// either rebuild-ack-resync as a member of the new epoch, flip to the
// joining state (eviction with Rejoin), or end the run for this rank
// (eviction without Rejoin).
func (w *elasticWorker) adopt(f *fenceOrder) (*Node, adoptOutcome) {
	start := time.Now()
	w.base.Resume()
	me := w.base.Rank()
	w.adopted.Store(int64(f.epoch))
	if !containsRank(f.members, me) {
		w.setInfo(nil, nil)
		if w.cfg.Rejoin {
			return nil, adoptJoining
		}
		return nil, adoptEvicted
	}
	nd, _, err := buildNode(w.base, w.cfg, f.members, f.epoch, f.iter)
	if err != nil {
		// Cannot rebuild (should not happen with a well-formed fence):
		// stay silent; the coordinator's ACK barrier will evict this
		// rank and a follow-up fence decides its fate.
		w.setInfo(nil, nil)
		return nil, adoptNoFence
	}
	w.setInfo(nd, f.members)
	w.progress.Store(int64(f.iter))
	ackTag := transport.MakeTagE(transport.KindAck, f.epoch, f.iter, 0, me)
	//dnnlint:ignore transerr a shed ack is recovered by the coordinator's fence re-send
	_ = w.base.SendCtrl(0, ackTag, nil)
	if err := nd.SyncWeights(); err != nil {
		// Another fence raced the re-sync; the caller's loop picks it
		// up on the next Step failure.
		return nd, adoptMember
	}
	recoverSpan(nd.Net().Tracer(), "adopt", f.iter, len(f.members), start)
	return nd, adoptMember
}

func (w *elasticWorker) setInfo(nd *Node, members []int) {
	if nd == nil {
		w.info.Store(&memberInfo{})
		return
	}
	w.info.Store(&memberInfo{node: nd, members: append([]int(nil), members...)})
}

// takeFence waits up to timeout for an unadopted fence announcement.
func (w *elasticWorker) takeFence(timeout time.Duration) *fenceOrder {
	deadline := time.NewTimer(timeout)
	defer deadline.Stop()
	for {
		w.mu.Lock()
		f := w.pending
		w.pending = nil
		w.mu.Unlock()
		if f != nil && int64(f.epoch) > w.adopted.Load() {
			return f
		}
		select {
		case <-w.fenceCh:
		case <-deadline.C:
			return nil
		case <-w.ctrlDead:
			return nil
		case <-w.stop:
			return nil
		}
	}
}

// respond is the worker's control responder — the single consumer of
// the coordinator's control link. It answers pings with (progress,
// blocked-on base rank), stashes fences and interrupts the lockstep
// loop so they get adopted, and re-acks fence re-sends whose original
// ack was shed. It also watches for coordinator silence: a member that
// has heard nothing for several timeouts unwinds with ErrPeerDown
// rather than blocking forever.
func (w *elasticWorker) respond() {
	defer w.wg.Done()
	lastCoord := time.Now()
	coordDeclaredDown := false
	for {
		select {
		case <-w.stop:
			return
		default:
		}
		tag, payload, err := w.base.RecvCtrl(0, w.cfg.Heartbeat)
		if errors.Is(err, transport.ErrCtrlTimeout) {
			info := w.info.Load()
			member := info != nil && info.node != nil
			if member && !coordDeclaredDown && time.Since(lastCoord) > 5*w.cfg.PeerTimeout {
				coordDeclaredDown = true
				w.base.Interrupt(&transport.PeerDownError{
					Rank: 0, Cause: fmt.Errorf("no coordinator traffic for %v", time.Since(lastCoord)),
				})
			}
			continue
		}
		if err != nil {
			close(w.ctrlDead) // endpoint closed: no fence will ever arrive
			return
		}
		lastCoord = time.Now()
		coordDeclaredDown = false
		switch tag.Kind() {
		case transport.KindPing:
			info := w.info.Load()
			prog := int(w.progress.Load())
			waiting := -1
			if info != nil && info.node != nil {
				if v := info.node.WaitingOn(); v >= 0 && v < len(info.members) {
					waiting = info.members[v]
				}
			}
			pong := transport.MakeTagE(transport.KindPong, tag.Epoch(), 0, 0, w.base.Rank())
			//dnnlint:ignore transerr pong loss is indistinguishable from ping loss; the next heartbeat retries
			_ = w.base.SendCtrl(0, pong, []float32{itof(prog), itof(waiting)})
		case transport.KindFence:
			f := &fenceOrder{epoch: tag.Epoch(), iter: tag.Iter(), members: decodeMembers(payload)}
			adopted := w.adopted.Load()
			if int64(f.epoch) <= adopted {
				// Re-sent fence this rank already adopted: the ack was
				// shed, so answer again (members only; an evictee has
				// nothing to ack).
				if int64(f.epoch) == adopted && containsRank(f.members, w.base.Rank()) {
					ackTag := transport.MakeTagE(transport.KindAck, f.epoch, f.iter, 0, w.base.Rank())
					//dnnlint:ignore transerr ack re-send mirrors the fence re-send it answers
					_ = w.base.SendCtrl(0, ackTag, nil)
				}
				continue
			}
			w.mu.Lock()
			if w.pending == nil || w.pending.epoch < f.epoch {
				w.pending = f
			}
			w.mu.Unlock()
			select {
			case w.fenceCh <- struct{}{}:
			default:
			}
			w.base.Interrupt(errFencePending)
		}
	}
}
