package dist

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"coarsegrain/internal/data"
	"coarsegrain/internal/faultinject"
	"coarsegrain/internal/layers"
	"coarsegrain/internal/net"
	"coarsegrain/internal/snapshot"
	"coarsegrain/internal/transport"
)

// elasticBatch is the elastic tests' global batch: divisible by every
// membership size they pass through (3 -> 2 on eviction, 2 -> 3 on
// rejoin), unlike the 2-power globalBatch the fixed-k tests use.
const (
	elasticBatch     = 24
	elasticSourceLen = 120 // divisible by elasticBatch, unlike sourceLen
)

// elasticShardNetE builds rank r's net of a k-rank elastic group:
// the seeded tiny architecture over shard r of elasticBatch.
func elasticShardNetE(r, k int) (*net.Net, error) {
	src := data.NewSyntheticMNIST(elasticSourceLen, dataSeed)
	shard, err := data.NewShard(src, r, k, elasticBatch)
	if err != nil {
		return nil, err
	}
	specs, err := tinySpecsE(shard, shard.LocalBatch())
	if err != nil {
		return nil, err
	}
	return net.New(specs, nil)
}

// skipData advances every data layer's cursor by batches whole batches,
// positioning a freshly built net where a clean run's would be after
// that many iterations.
func skipData(n *net.Net, batches int) {
	for _, l := range n.Layers() {
		if d, ok := l.(*layers.Data); ok {
			d.Skip(batches)
		}
	}
}

// elasticRebuild is the RebuildFunc every elastic test uses: the same
// seeded tiny net the bit-identity tests train, sharded for whatever
// membership the fence established, with the data cursor skipped to
// the fence point.
func elasticRebuild() RebuildFunc {
	return func(rank, size, startIter int) (*net.Net, error) {
		n, err := elasticShardNetE(rank, size)
		if err != nil {
			return nil, err
		}
		skipData(n, startIter)
		return n, nil
	}
}

// elasticCfg is the shared test configuration: fast heartbeats so
// failure detection fits in test time, generous fence timeout so slow
// CI machines don't flake.
func elasticCfg(iters int, dir string) ElasticConfig {
	return ElasticConfig{
		Iters:        iters,
		Rebuild:      elasticRebuild(),
		Solver:       solverCfg(),
		FenceDir:     dir,
		Heartbeat:    5 * time.Millisecond,
		PeerTimeout:  80 * time.Millisecond,
		FenceTimeout: 5 * time.Second,
	}
}

// startElastic launches RunElastic for every rank and returns the
// result slots plus per-rank done channels, so tests with a hung rank
// can unblock it (by closing its transport) before waiting on it.
func startElastic(trs []transport.Transport, cfg ElasticConfig) ([]*Report, []error, []chan struct{}) {
	k := len(trs)
	reports := make([]*Report, k)
	errs := make([]error, k)
	done := make([]chan struct{}, k)
	for r := 0; r < k; r++ {
		done[r] = make(chan struct{})
		go func(r int) {
			defer close(done[r])
			reports[r], errs[r] = RunElastic(trs[r], cfg)
		}(r)
	}
	return reports, errs, done
}

// cleanResume is the reference the fence protocol must match: a fresh
// k-rank group built at startIter, root solver loaded from the fenced
// checkpoint, weights synced down the tree, then trained to total.
// The elastic run's post-fence losses and final weights must be
// bit-identical to what this returns.
func cleanResume(t *testing.T, k, startIter, total int, ckpt string, opts Options) ([][]float32, []float64) {
	t.Helper()
	opts.StartIter = startIter
	trs := localGroup(k)
	var (
		wg      sync.WaitGroup
		weights [][]float32
		losses  []float64
		mu      sync.Mutex
		errs    []error
	)
	for r := 0; r < k; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			defer trs[r].Close()
			fail := func(err error) {
				mu.Lock()
				errs = append(errs, fmt.Errorf("resume rank %d: %w", r, err))
				mu.Unlock()
			}
			n, err := elasticShardNetE(r, k)
			if err != nil {
				fail(err)
				return
			}
			skipData(n, startIter)
			var nd *Node
			if r == 0 {
				nd, err = NewRoot(trs[r], n, solverCfg(), opts)
				if err == nil {
					err = snapshot.LoadSolverFile(ckpt, nd.Solver())
				}
			} else {
				nd, err = NewWorker(trs[r], n, opts)
			}
			if err == nil {
				err = nd.SyncWeights()
			}
			if err == nil {
				var ls []float64
				ls, err = nd.Step(total - startIter)
				if r == 0 {
					losses = ls
					weights = copyWeights(n)
				}
			}
			if err != nil {
				fail(err)
			}
		}(r)
	}
	wg.Wait()
	for _, err := range errs {
		t.Fatal(err)
	}
	return weights, losses
}

func requireSameLosses(t *testing.T, label string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d losses vs %d", label, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: loss %d: %v vs %v (not bit-identical)", label, i, got[i], want[i])
		}
	}
}

// requireOneFence asserts the coordinator recorded exactly one
// membership change and returns it.
func requireOneFence(t *testing.T, rpt *Report) FenceEvent {
	t.Helper()
	if rpt == nil {
		t.Fatal("coordinator returned no report")
	}
	if len(rpt.Fences) != 1 {
		t.Fatalf("coordinator recorded %d fences, want 1: %+v", len(rpt.Fences), rpt.Fences)
	}
	return rpt.Fences[0]
}

func requireMembers(t *testing.T, label string, got, want []int) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %v, want %v", label, got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: %v, want %v", label, got, want)
		}
	}
}

// The tentpole contract: seeded crash of 1 of k=3 mid-run. The
// coordinator detects the dead rank by heartbeat silence, fences at
// the last committed iteration, re-forms as a 2-rank group, and the
// rest of the run is bit-identical — losses and weights — to a clean
// 2-rank run resumed from the fenced checkpoint.
func TestElasticCrashKillOneOfThreeBitIdentical(t *testing.T) {
	const total = 10
	dir := t.TempDir()

	_, ref3L := replicaBaseline(t, 3, total, elasticShardNetE)

	// The drill is drawn the way dnncluster's -chaos-seed draws it.
	s, err := faultinject.New(6).ClusterScenario(3, 5, transport.ChaosCrash)
	if err != nil {
		t.Fatal(err)
	}
	if s.Victim != 2 || s.AtIter != 3 {
		t.Fatalf("seeded scenario = %v, want rank 2 at iteration 3 (seeded chaos must replay exactly)", s)
	}
	trs := localGroup(3)
	chaos, err := s.Wrap(trs)
	if err != nil {
		t.Fatal(err)
	}

	reports, errs, done := startElastic(trs, elasticCfg(total, dir))
	for _, d := range done {
		<-d
	}
	for _, tr := range trs {
		tr.Close()
	}

	if errs[0] != nil || errs[1] != nil {
		t.Fatalf("survivors errored: rank0=%v rank1=%v", errs[0], errs[1])
	}
	if !errors.Is(errs[2], transport.ErrClosed) {
		t.Fatalf("crashed rank err = %v, want ErrClosed", errs[2])
	}

	f := requireOneFence(t, reports[0])
	if f.Iter != chaos.TriggerIter() {
		t.Fatalf("fence at iteration %d, want trigger %d (last committed update)", f.Iter, chaos.TriggerIter())
	}
	requireMembers(t, "fence members", f.Members, []int{0, 1})
	requireMembers(t, "fence removed", f.Removed, []int{2})
	if reports[0].FinalSize != 2 || reports[1].FinalSize != 2 {
		t.Fatalf("final sizes %d/%d, want 2/2", reports[0].FinalSize, reports[1].FinalSize)
	}

	if len(reports[0].Losses) != total {
		t.Fatalf("coordinator committed %d losses, want %d", len(reports[0].Losses), total)
	}
	// Pre-fence losses match the uninterrupted 3-rank reference ...
	requireSameLosses(t, "pre-fence losses", reports[0].Losses[:f.Iter], ref3L[:f.Iter])
	// ... and everything after the fence matches a clean 2-rank run
	// resumed from the fenced checkpoint.
	refW, refL := cleanResume(t, 2, f.Iter, total, f.Checkpoint, Options{})
	requireSameLosses(t, "post-fence losses", reports[0].Losses[f.Iter:], refL)
	requireBitIdentical(t, "coordinator weights", reports[0].Weights, refW)
	requireBitIdentical(t, "survivor weights", reports[1].Weights, refW)
}

// Elastic growth: a rank outside the initial membership asks to join,
// is admitted at an iteration boundary, and the enlarged group's
// remaining run is bit-identical to a clean 3-rank run resumed from
// the admitting fence's checkpoint.
func TestElasticRejoinGrowsTreeBack(t *testing.T) {
	const total = 12
	dir := t.TempDir()

	trs := localGroup(3)
	cfg := elasticCfg(total, dir)
	cfg.Members = []int{0, 1}

	// Start the joiner first so its join request is queued before the
	// coordinator's first iteration boundary.
	reports := make([]*Report, 3)
	errs := make([]error, 3)
	done := make([]chan struct{}, 3)
	start := func(r int) {
		done[r] = make(chan struct{})
		go func() {
			defer close(done[r])
			reports[r], errs[r] = RunElastic(trs[r], cfg)
		}()
	}
	start(2)
	time.Sleep(50 * time.Millisecond)
	start(0)
	start(1)
	for _, d := range done {
		<-d
	}
	for _, tr := range trs {
		tr.Close()
	}

	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", r, err)
		}
	}
	f := requireOneFence(t, reports[0])
	requireMembers(t, "fence members", f.Members, []int{0, 1, 2})
	requireMembers(t, "fence joined", f.Joined, []int{2})
	if len(f.Removed) != 0 {
		t.Fatalf("join fence removed %v", f.Removed)
	}
	for r, rpt := range reports {
		if rpt.FinalSize != 3 || rpt.Evicted {
			t.Fatalf("rank %d report: size %d evicted %v", r, rpt.FinalSize, rpt.Evicted)
		}
	}

	if len(reports[0].Losses) != total {
		t.Fatalf("coordinator committed %d losses, want %d", len(reports[0].Losses), total)
	}
	refW, refL := cleanResume(t, 3, f.Iter, total, f.Checkpoint, Options{})
	requireSameLosses(t, "post-join losses", reports[0].Losses[f.Iter:], refL)
	for r := 0; r < 3; r++ {
		requireBitIdentical(t, fmt.Sprintf("rank %d weights", r), reports[r].Weights, refW)
	}
}

// Straggler tolerance: a rank that keeps answering heartbeats but
// blows the iteration deadline is evicted deterministically — the
// abandoned iteration re-runs at the reduced membership, so the
// committed loss trace and weights still match a clean degraded run.
// The long PeerTimeout proves the eviction came from the deadline
// path, not from being mistaken for dead.
func TestElasticStragglerEvictedDeterministically(t *testing.T) {
	const total = 10
	dir := t.TempDir()

	locals := localGroup(3)
	chaos := transport.NewChaos(locals[2], transport.ChaosConfig{
		Mode: transport.ChaosStraggle, AtIter: 4, StraggleDelay: 1500 * time.Millisecond,
	})
	trs := []transport.Transport{locals[0], locals[1], chaos}

	cfg := elasticCfg(total, dir)
	cfg.Heartbeat = 10 * time.Millisecond
	cfg.PeerTimeout = 2 * time.Second
	cfg.IterDeadline = 300 * time.Millisecond

	reports, errs, done := startElastic(trs, cfg)
	for _, d := range done {
		<-d
	}
	for _, tr := range trs {
		tr.Close()
	}

	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v (straggler eviction must be clean on every rank)", r, err)
		}
	}
	if !reports[2].Evicted {
		t.Fatal("straggler was not reported evicted")
	}
	f := requireOneFence(t, reports[0])
	if f.Iter != 4 {
		t.Fatalf("fence at iteration %d, want 4 (the stalled iteration is abandoned, not committed)", f.Iter)
	}
	requireMembers(t, "fence removed", f.Removed, []int{2})
	requireMembers(t, "fence members", f.Members, []int{0, 1})

	if len(reports[0].Losses) != total {
		t.Fatalf("coordinator committed %d losses, want %d", len(reports[0].Losses), total)
	}
	refW, refL := cleanResume(t, 2, f.Iter, total, f.Checkpoint, Options{})
	requireSameLosses(t, "post-eviction losses", reports[0].Losses[f.Iter:], refL)
	requireBitIdentical(t, "coordinator weights", reports[0].Weights, refW)
	requireBitIdentical(t, "survivor weights", reports[1].Weights, refW)
}

// A hung rank (alive at the transport level, silent on heartbeats) is
// indistinguishable from dead and must be fenced out the same way.
// The hung rank itself stays blocked until its endpoint is closed,
// then unwinds with a hard error — never a silent success.
func TestElasticHangDetectedAsDead(t *testing.T) {
	const total = 10
	dir := t.TempDir()

	locals := localGroup(3)
	chaos := transport.NewChaos(locals[1], transport.ChaosConfig{
		Mode: transport.ChaosHang, AtIter: 3,
	})
	trs := []transport.Transport{locals[0], chaos, locals[2]}

	cfg := elasticCfg(total, dir)
	reports, errs, done := startElastic(trs, cfg)
	<-done[0]
	<-done[2]
	// The hung rank is blocked inside the injected hang; closing its
	// endpoint is the only way out, exactly like killing the process.
	trs[1].Close()
	<-done[1]
	trs[0].Close()
	trs[2].Close()

	if errs[0] != nil || errs[2] != nil {
		t.Fatalf("survivors errored: rank0=%v rank2=%v", errs[0], errs[2])
	}
	if errs[1] == nil {
		t.Fatal("hung rank returned success; want a hard error after Close")
	}

	f := requireOneFence(t, reports[0])
	if f.Iter != 3 {
		t.Fatalf("fence at iteration %d, want 3", f.Iter)
	}
	requireMembers(t, "fence removed", f.Removed, []int{1})
	requireMembers(t, "fence members", f.Members, []int{0, 2})

	refW, refL := cleanResume(t, 2, f.Iter, total, f.Checkpoint, Options{})
	requireSameLosses(t, "post-fence losses", reports[0].Losses[f.Iter:], refL)
	requireBitIdentical(t, "coordinator weights", reports[0].Weights, refW)
	requireBitIdentical(t, "survivor weights", reports[2].Weights, refW)
}

// One-way partition: the victim's outbound traffic to the coordinator
// is cut, so its pongs vanish and it is declared dead — but the
// coordinator's fence still reaches it inbound, so it learns of its
// own eviction and returns a clean evicted report instead of hanging.
func TestElasticPartitionDetected(t *testing.T) {
	const total = 8
	dir := t.TempDir()

	locals := localGroup(3)
	chaos := transport.NewChaos(locals[1], transport.ChaosConfig{
		Mode: transport.ChaosPartition, Peers: []int{0}, AtIter: 2,
	})
	trs := []transport.Transport{locals[0], chaos, locals[2]}

	reports, errs, done := startElastic(trs, elasticCfg(total, dir))
	for _, d := range done {
		<-d
	}
	for _, tr := range trs {
		tr.Close()
	}

	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", r, err)
		}
	}
	if !reports[1].Evicted {
		t.Fatal("partitioned rank was not reported evicted")
	}
	f := requireOneFence(t, reports[0])
	if f.Iter != 2 {
		t.Fatalf("fence at iteration %d, want 2", f.Iter)
	}
	requireMembers(t, "fence removed", f.Removed, []int{1})
	requireMembers(t, "fence members", f.Members, []int{0, 2})

	refW, refL := cleanResume(t, 2, f.Iter, total, f.Checkpoint, Options{})
	requireSameLosses(t, "post-fence losses", reports[0].Losses[f.Iter:], refL)
	requireBitIdentical(t, "coordinator weights", reports[0].Weights, refW)
	requireBitIdentical(t, "survivor weights", reports[2].Weights, refW)
}

// Shutdown-race pin (satellite S1 at the dist level): Close during a
// Step blocked in a data-plane Recv must unblock promptly with an
// error wrapping ErrClosed — not hang, not return success.
func TestElasticStepCloseUnblocksTyped(t *testing.T) {
	g := localGroup(2)
	defer g[1].Close()
	nd, err := NewRoot(g[0], shardNet(t, 0, 2), solverCfg(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		_, err := nd.Step(1)
		done <- err
	}()
	time.Sleep(50 * time.Millisecond) // let Step reach the blocked Recv
	g[0].Close()
	select {
	case err := <-done:
		if !errors.Is(err, transport.ErrClosed) {
			t.Fatalf("Step after Close returned %v, want an error wrapping ErrClosed", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Step did not return within 2s of Close")
	}
}

func TestRunElasticValidation(t *testing.T) {
	g := localGroup(2)
	defer g[0].Close()
	defer g[1].Close()
	ok := elasticCfg(4, t.TempDir())

	bad := ok
	bad.Iters = 0
	if _, err := RunElastic(g[0], bad); err == nil {
		t.Fatal("accepted Iters <= StartIter")
	}
	bad = ok
	bad.Rebuild = nil
	if _, err := RunElastic(g[0], bad); err == nil {
		t.Fatal("accepted nil Rebuild")
	}
	bad = ok
	bad.Members = []int{1}
	if _, err := RunElastic(g[0], bad); err == nil {
		t.Fatal("accepted membership without the coordinator")
	}
	bad = ok
	bad.Members = []int{1, 0}
	if _, err := RunElastic(g[0], bad); err == nil {
		t.Fatal("accepted unsorted membership")
	}
	bad = ok
	bad.FenceDir = ""
	if _, err := RunElastic(g[0], bad); err == nil {
		t.Fatal("accepted coordinator without FenceDir")
	}
}

// Elastic recovery composes with a compressed wire: a crash of 1 of k=3
// at iteration 3 under the f16 wire must fence and resume exactly like
// the f32 path does — and the post-fence run must be bit-identical to a
// clean 2-rank resume using the same codec. The load-bearing detail is
// the error-feedback residual: survivors rebuild their Node at the
// fence, which zeroes the residual, exactly matching the fresh residual
// a clean resume starts with. A residual carried across the fence would
// diverge from the reference on the first post-fence iteration.
func TestElasticCrashCompressedBitIdentical(t *testing.T) {
	const total = 10
	dir := t.TempDir()
	opts := Options{GradWire: "f16"}

	locals := localGroup(3)
	chaos := transport.NewChaos(locals[2], transport.ChaosConfig{Mode: transport.ChaosCrash, AtIter: 3})
	trs := []transport.Transport{locals[0], locals[1], chaos}

	cfg := elasticCfg(total, dir)
	cfg.Opts = opts
	reports, errs, done := startElastic(trs, cfg)
	for _, d := range done {
		<-d
	}
	for _, tr := range trs {
		tr.Close()
	}

	if errs[0] != nil || errs[1] != nil {
		t.Fatalf("survivors errored: rank0=%v rank1=%v", errs[0], errs[1])
	}
	if !errors.Is(errs[2], transport.ErrClosed) {
		t.Fatalf("crashed rank err = %v, want ErrClosed", errs[2])
	}

	f := requireOneFence(t, reports[0])
	requireMembers(t, "fence members", f.Members, []int{0, 1})
	if len(reports[0].Losses) != total {
		t.Fatalf("coordinator committed %d losses, want %d", len(reports[0].Losses), total)
	}

	refW, refL := cleanResume(t, 2, f.Iter, total, f.Checkpoint, opts)
	requireSameLosses(t, "post-fence losses", reports[0].Losses[f.Iter:], refL)
	requireBitIdentical(t, "coordinator weights", reports[0].Weights, refW)
	requireBitIdentical(t, "survivor weights", reports[1].Weights, refW)
}

// rigidCfg is the degenerate configuration: MinRanks at the group size,
// no Rejoin, no deadline, everyone a member — and no FenceDir, which only
// a supervised coordinator needs. The fence timeout is far beyond any
// test's patience, so a run that waited on it would be caught.
func rigidCfg(k, iters int) ElasticConfig {
	return ElasticConfig{
		Iters: iters,
		Rebuild: func(rank, size, startIter int) (*net.Net, error) {
			n, err := shardNetE(rank, size)
			if err == nil {
				skipData(n, startIter)
			}
			return n, err
		},
		Solver:       solverCfg(),
		MinRanks:     k,
		FenceTimeout: time.Minute,
	}
}

// The rigid case of RunElastic is the plain lockstep loop: at every k
// its losses and every rank's weights are bit-identical to a
// hand-written NewRoot/NewWorker + Step loop (runDist), and the control
// plane stays silent — no ping, pong, fence or ack ever crosses a link.
func TestUnsupervisedRunIsThePlainLoop(t *testing.T) {
	for _, k := range []int{1, 2, 3} {
		refW, refL := runDist(t, localGroup(k), Options{}, testIters)

		cfg := rigidCfg(k, testIters)
		if cfg.Supervised(k) {
			t.Fatalf("k=%d: MinRanks = group size must not be supervised", k)
		}
		meters := make([]*transport.Meter, k)
		trs := make([]transport.Transport, k)
		for r, l := range transport.NewLocalGroup(k) {
			meters[r] = transport.NewMeter(l)
			trs[r] = meters[r]
		}
		var commits []int
		cfg.OnCommit = func(iter int, loss float64) {
			commits = append(commits, iter)
			if loss != refL[iter-1] {
				t.Errorf("k=%d: OnCommit(%d) loss %v, want %v", k, iter, loss, refL[iter-1])
			}
		}
		reports, errs, done := startElastic(trs, cfg)
		for _, d := range done {
			<-d
		}
		for r, tr := range trs {
			tr.Close()
			if errs[r] != nil {
				t.Fatalf("k=%d rank %d: %v", k, r, errs[r])
			}
			requireBitIdentical(t, fmt.Sprintf("k=%d rank %d weights", k, r), reports[r].Weights, refW)
			if n := meters[r].CtrlFrames(); n != 0 {
				t.Fatalf("k=%d rank %d sent %d control frames, want none", k, r, n)
			}
			if n := meters[r].SentFrames(transport.KindSync); n != 0 {
				t.Fatalf("k=%d rank %d sent %d weight-sync frames on a fresh run, want none", k, r, n)
			}
		}
		requireSameLosses(t, fmt.Sprintf("k=%d losses", k), reports[0].Losses, refL)
		if len(commits) != testIters || commits[0] != 1 || commits[testIters-1] != testIters {
			t.Fatalf("k=%d: OnCommit saw iterations %v, want 1..%d", k, commits, testIters)
		}
		if len(reports[0].Fences) != 0 || reports[0].FinalSize != k {
			t.Fatalf("k=%d: report %+v, want no fences at size %d", k, reports[0], k)
		}
	}
}

// A rigid run has nobody to fence a failure away, so a lockstep error
// comes back at once: here rank 1 hangs at iteration 2, the operator
// (the group runner, in dnncluster) closes the endpoints, and both ranks
// return their typed errors long before FenceTimeout.
func TestUnsupervisedRunFailsAtOnce(t *testing.T) {
	locals := localGroup(2)
	hung := transport.NewChaos(locals[1], transport.ChaosConfig{Mode: transport.ChaosHang, AtIter: 2})
	trs := []transport.Transport{locals[0], hung}
	_, errs, done := startElastic(trs, rigidCfg(2, testIters))
	for !hung.Fired() {
		time.Sleep(time.Millisecond)
	}
	for r, tr := range trs {
		tr.Close()
		select {
		case <-done[r]:
		case <-time.After(2 * time.Second):
			t.Fatalf("rank %d still running 2s after its endpoint closed", r)
		}
		if !errors.Is(errs[r], transport.ErrClosed) {
			t.Fatalf("rank %d returned %v, want an error wrapping ErrClosed", r, errs[r])
		}
	}
}
