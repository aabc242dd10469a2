package cluster

import (
	"fmt"
	"io"
	"os"
	"strings"
	"sync"
	"time"

	"coarsegrain/internal/core"
	"coarsegrain/internal/dist"
	"coarsegrain/internal/net"
	"coarsegrain/internal/snapshot"
	"coarsegrain/internal/trace"
	"coarsegrain/internal/transport"
	"coarsegrain/internal/zoo"
)

// Rank drives this process's rank of the base mesh t from its start
// iteration (0, or the -resume snapshot's) to c.Iters under
// dist.RunElastic. The Rebuild callback reconstructs the rank's network
// for whatever membership each fence settles on — for a rigid run that
// is exactly once — with the tracer attached, so the comm spans and a
// supervised run's PhaseRecover fence/adopt spans land in one -trace
// file. Rank 0 also prints the losses as they commit, the fences, and
// writes the final snapshot.
func (c Config) Rank(t transport.Transport, m *zoo.Model, out io.Writer) (*dist.Report, error) {
	cfg := c.elasticConfig(t.Size())
	cfg.Solver = m.Solver
	if c.Resume != "" {
		var err error
		if cfg.StartIter, err = snapshot.PeekSolverIter(c.Resume); err != nil {
			return nil, err
		}
	}
	var tr *trace.Tracer
	if c.Trace != "" {
		tr = trace.New(c.Workers)
	}
	// One engine per membership this rank lives through, closed after
	// the run; RunElastic calls Rebuild on this goroutine only.
	var engines []core.Engine
	defer func() {
		for _, e := range engines {
			e.Close()
		}
	}()
	cfg.Rebuild = func(rank, size, iter int) (*net.Net, error) {
		n, eng, err := c.buildRankNet(m, rank, size, iter)
		if err != nil {
			return nil, err
		}
		engines = append(engines, eng)
		n.SetTracer(tr)
		return n, nil
	}
	if t.Rank() == 0 {
		cfg.FenceDir = c.FenceDir
		cfg.SnapshotPath = c.Snapshot
		cfg.OnCommit = func(iter int, loss float64) {
			if iter == c.Iters || (c.Display > 0 && (iter-cfg.StartIter)%c.Display == 0) {
				fmt.Fprintf(out, "iter %5d  loss %.6f\n", iter, loss)
			}
		}
		if c.Resume != "" {
			fmt.Fprintf(out, "resuming from %s at iteration %d\n", c.Resume, cfg.StartIter)
		}
		kind := "rigid: no supervisor, any rank's failure ends the run"
		if cfg.Supervised(t.Size()) {
			kind = fmt.Sprintf("supervised: heartbeats and fences, down to %d rank(s)", cfg.MinRanks)
		}
		tree := dist.NewTree(t.Size(), c.Fanout)
		fmt.Fprintf(out, "training to iteration %d: %d replicas, %s wire, fanout %d, tree depth %d (%s)\n",
			c.Iters, t.Size(), c.GradWire, tree.Fanout(), tree.Depth(), kind)
	}
	rpt, err := dist.RunElastic(t, cfg)
	if err != nil {
		return rpt, fmt.Errorf("rank %d: %w", t.Rank(), err)
	}
	if t.Rank() == 0 {
		for _, f := range rpt.Fences {
			fmt.Fprintf(out, "fence: epoch %d at iteration %d -> members %v (removed %v, joined %v), checkpoint %s\n",
				f.Epoch, f.Iter, f.Members, f.Removed, f.Joined, f.Checkpoint)
		}
		fmt.Fprintf(out, "run complete: %d ranks at finish, %d fence(s)\n", rpt.FinalSize, len(rpt.Fences))
		if c.Snapshot != "" {
			fmt.Fprintf(out, "snapshot written to %s (iteration %d)\n", c.Snapshot, c.Iters)
		}
	} else if rpt.Evicted {
		fmt.Fprintf(out, "rank %d: evicted by fence, exiting cleanly\n", t.Rank())
	}
	if tr.Enabled() {
		if err := tr.WriteChromeTraceFile(c.Trace); err != nil {
			return rpt, err
		}
		fmt.Fprintf(out, "trace: %d spans written to %s\n", tr.Len(), c.Trace)
	}
	return rpt, nil
}

// GroupResult is what an in-process group run leaves behind besides its
// files.
type GroupResult struct {
	// Report is rank 0's report: committed losses, fences, final size.
	Report *dist.Report
	// Victim is the rank the -chaos-* drill broke (-1: no drill) and
	// VictimErr what it failed with — the injection working, not a run
	// failure (nil for a victim that was evicted cleanly or only slowed).
	Victim    int
	VictimErr error
	// Elapsed is the wall time of the run proper, from launching the
	// ranks (dataset already loaded, nets not yet built) to the last
	// one's return.
	Elapsed time.Duration
}

// RunGroup trains c.Replicas ranks in this process over the Local
// transport — the single-process form of the exact protocol the TCP
// roles run — optionally with one seeded failure injected via -chaos-*.
// The first rank to fail, other than the drill's victim, fails the run:
// every endpoint is closed at once so no peer is left blocked on it, and
// its error is returned once all ranks have unwound.
func RunGroup(c Config, out io.Writer) (*GroupResult, error) {
	if c.Replicas < 1 {
		return nil, fmt.Errorf("need -replicas >= 1")
	}
	m, err := c.load(c.Replicas, out)
	if err != nil {
		return nil, err
	}
	return runGroup(c, m, out)
}

// runGroup is RunGroup over an already loaded dataset (Predict runs
// several groups over one).
func runGroup(c Config, m *zoo.Model, out io.Writer) (*GroupResult, error) {
	k := c.Replicas
	scenario, err := c.chaosScenario(k)
	if err != nil {
		return nil, err
	}
	trs := make([]transport.Transport, k)
	for r, l := range transport.NewLocalGroup(k) {
		trs[r] = c.wrapFlaky(l)
	}
	res := &GroupResult{Victim: -1}
	if scenario != nil {
		if _, err := scenario.Wrap(trs); err != nil {
			return nil, err
		}
		res.Victim = scenario.Victim
		fmt.Fprintf(out, "chaos: %s\n", scenario)
	}
	var closeOnce sync.Once
	closeAll := func() {
		closeOnce.Do(func() {
			for _, t := range trs {
				t.Close()
			}
		})
	}

	type outcome struct {
		rank int
		rpt  *dist.Report
		err  error
	}
	outcomes := make(chan outcome, k) // one send per rank: none ever blocks
	start := time.Now()
	for r := range trs {
		go func(r int) {
			rc := c
			if r != 0 {
				rc.Trace = "" // one trace file: the root's
			}
			rpt, err := rc.Rank(trs[r], m, out)
			outcomes <- outcome{r, rpt, err}
		}(r)
	}
	// A hung victim stays blocked until its endpoint closes, so the
	// endpoints close as soon as nobody else is left to wait for.
	var firstErr error
	others := k
	if res.Victim >= 0 {
		others--
	}
	for done := 0; done < k; done++ {
		o := <-outcomes
		if o.rank == res.Victim {
			res.VictimErr = o.err
			continue
		}
		if o.rank == 0 {
			res.Report = o.rpt
		}
		if o.err != nil && firstErr == nil {
			firstErr = o.err
		}
		if others--; others == 0 || o.err != nil {
			closeAll()
		}
	}
	res.Elapsed = time.Since(start)
	if res.VictimErr != nil {
		fmt.Fprintf(out, "rank %d failed as injected: %v\n", res.Victim, res.VictimErr)
	}
	return res, firstErr
}

// RunCoordinator is TCP rank 0: listen, publish the address, wait for
// the other replicas to join, then train as the root.
func RunCoordinator(c Config, out io.Writer) error {
	if c.Replicas < 2 {
		return fmt.Errorf("coordinator needs -replicas >= 2")
	}
	addr := c.Addr
	if addr == "" {
		addr = "127.0.0.1:0"
	}
	coord, err := transport.NewCoordinator(addr, c.Replicas)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "coordinator listening on %s (%d replicas)\n", coord.Addr(), c.Replicas)
	if c.AddrFile != "" {
		if err := writeAddrFile(c.AddrFile, coord.Addr()); err != nil {
			return err
		}
	}
	m, err := c.load(c.Replicas, out)
	if err != nil {
		return err
	}
	t, err := coord.Wait()
	if err != nil {
		return err
	}
	defer t.Close()
	_, err = c.Rank(c.wrapFlaky(t), m, out)
	return err
}

// RunWorker dials the coordinator (address from -addr or -addr-file),
// learns its rank from the rendezvous, and trains as a worker — as the
// drill's victim when -chaos-rank names the rank it was assigned.
func RunWorker(c Config, out io.Writer) error {
	addr := c.Addr
	if addr == "" {
		if c.AddrFile == "" {
			return fmt.Errorf("worker needs -addr or -addr-file")
		}
		var err error
		if addr, err = waitAddrFile(c.AddrFile, 30*time.Second); err != nil {
			return err
		}
	}
	tcp, err := transport.DialTCP(addr)
	if err != nil {
		return err
	}
	defer tcp.Close()
	fmt.Fprintf(out, "joined as rank %d of %d\n", tcp.Rank(), tcp.Size())
	m, err := c.load(tcp.Size(), out)
	if err != nil {
		return err
	}
	t := c.wrapFlaky(tcp)
	if s, err := c.chaosScenario(tcp.Size()); err != nil {
		return err
	} else if s != nil && s.Victim == tcp.Rank() {
		fmt.Fprintf(out, "chaos: %s (this rank)\n", s)
		t = s.Chaos(t)
	}
	_, err = c.Rank(t, m, out)
	return err
}

// writeAddrFile publishes the rendezvous address atomically (write to a
// temp name, rename) so a polling worker never reads a partial file.
func writeAddrFile(path, addr string) error {
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, []byte(addr+"\n"), 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}

func waitAddrFile(path string, timeout time.Duration) (string, error) {
	deadline := time.Now().Add(timeout)
	for {
		raw, err := os.ReadFile(path)
		if err == nil && len(strings.TrimSpace(string(raw))) > 0 {
			return strings.TrimSpace(string(raw)), nil
		}
		if time.Now().After(deadline) {
			return "", fmt.Errorf("no coordinator address in %s after %s", path, timeout)
		}
		time.Sleep(50 * time.Millisecond)
	}
}
