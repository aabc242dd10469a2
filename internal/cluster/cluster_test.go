package cluster

import (
	"bytes"
	"errors"
	"io"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"coarsegrain/internal/data"
	"coarsegrain/internal/dist"
	"coarsegrain/internal/net"
	"coarsegrain/internal/prototxt"
	"coarsegrain/internal/trace"
	"coarsegrain/internal/transport"
	"coarsegrain/internal/zoo"
)

// testConfig is dnncluster's flag defaults scaled down to test time:
// LeNet on a 6-sample global batch (divisible by the 2- and 3-rank
// groups the tests form), 5 iterations.
func testConfig() Config {
	return Config{
		Role: "local", Replicas: 3, Fanout: 2, GradWire: "f32",
		Iters: 5, Display: 2, Workers: 1,
		Ref:       zoo.Ref{Zoo: "lenet", Batch: 6, Samples: 12, Seed: 1},
		ChaosMode: "none", ChaosRank: -1, ChaosIter: -1, ChaosSeed: 1,
	}
}

// logWriter sends a run's progress lines to the test log; every rank
// goroutine has returned by the time the call that was given it does.
type logWriter struct{ t *testing.T }

func (w logWriter) Write(p []byte) (int, error) {
	w.t.Log(strings.TrimRight(string(p), "\n"))
	return len(p), nil
}

func mustRunGroup(t *testing.T, c Config) *GroupResult {
	t.Helper()
	res, err := RunGroup(c, logWriter{t})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func requireSameFile(t *testing.T, label, got, want string) {
	t.Helper()
	g, err := os.ReadFile(got)
	if err != nil {
		t.Fatal(err)
	}
	w, err := os.ReadFile(want)
	if err != nil {
		t.Fatal(err)
	}
	if len(w) == 0 || !bytes.Equal(g, w) {
		t.Fatalf("%s: %s (%d bytes) is not byte-identical to %s (%d bytes)", label, got, len(g), want, len(w))
	}
}

// (a) A coordinator and two workers over loopback TCP — the roles as
// separate processes run them, here as goroutines — write the snapshot
// bytes the in-process group writes.
func TestTCPRolesMatchLocalGroup(t *testing.T) {
	dir := t.TempDir()
	local := testConfig()
	local.Snapshot = filepath.Join(dir, "local.cgdnn")
	mustRunGroup(t, local)

	coord := local
	coord.Role, coord.Addr = "coordinator", "127.0.0.1:0"
	coord.AddrFile = filepath.Join(dir, "coord.addr")
	coord.Snapshot = filepath.Join(dir, "tcp.cgdnn")
	worker := coord
	worker.Role, worker.Addr, worker.Snapshot = "worker", "", ""

	errs := make(chan error, 3)
	for _, c := range []Config{coord, worker, worker} {
		go func(c Config) { errs <- Run(c, logWriter{t}) }(c)
	}
	for i := 0; i < 3; i++ {
		if err := <-errs; err != nil {
			t.Errorf("a TCP role failed: %v", err)
		}
	}
	if t.Failed() {
		t.FailNow()
	}
	requireSameFile(t, "TCP vs local", coord.Snapshot, local.Snapshot)
}

// Ranks compose with the coarse engine: with -workers 2 each rank runs
// batch-level parallel workers inside its shard, and the group's loss
// trace stays the -workers 1 trace within float rounding (the engine's
// band merge reorders sums; the cross-rank fold does not).
func TestRanksComposeWithCoarseEngine(t *testing.T) {
	serial := mustRunGroup(t, testConfig())
	c := testConfig()
	c.Workers = 2
	banded := mustRunGroup(t, c)
	for i, want := range serial.Report.Losses {
		got := banded.Report.Losses[i]
		if rel := math.Abs(got-want) / want; rel > 1e-5 {
			t.Fatalf("iteration %d: -workers 2 loss %v vs -workers 1 %v (rel %g)", i, got, want, rel)
		}
	}
}

// (b) Stopping at iteration F and resuming from that snapshot is the
// uninterrupted run, byte for byte.
func TestResumeMatchesUninterruptedRun(t *testing.T) {
	dir := t.TempDir()
	whole := testConfig()
	whole.Snapshot = filepath.Join(dir, "whole.cgdnn")
	mustRunGroup(t, whole)

	first := testConfig()
	first.Iters = 2
	first.Snapshot = filepath.Join(dir, "at2.cgdnn")
	mustRunGroup(t, first)

	rest := testConfig()
	rest.Resume = first.Snapshot
	rest.Snapshot = filepath.Join(dir, "resumed.cgdnn")
	res := mustRunGroup(t, rest)
	if got := len(res.Report.Losses); got != whole.Iters-first.Iters {
		t.Fatalf("resumed run committed %d iterations, want %d", got, whole.Iters-first.Iters)
	}
	requireSameFile(t, "resumed vs uninterrupted", rest.Snapshot, whole.Snapshot)
}

// (c) + (e) The crash drill: rank 2 of 3 dies at iteration 2 of a
// supervised run. The structured result names the fence, the survivors'
// snapshot is a clean 2-rank resume from the fence checkpoint, and
// -trace wrote the root's trace with the fence's PhaseRecover span in it.
func TestCrashDrillRecoversToCleanResume(t *testing.T) {
	dir := t.TempDir()
	drill := testConfig()
	drill.MinRanks, drill.FenceDir = 1, filepath.Join(dir, "fences")
	drill.ChaosMode, drill.ChaosRank, drill.ChaosIter = "crash", 2, 2
	// Generous against a loaded (race-detector) scheduler: only a rank
	// silent for a full second is dead, which the crashed one is.
	drill.PeerTimeout = time.Second
	drill.Snapshot = filepath.Join(dir, "drill.cgdnn")
	drill.Trace = filepath.Join(dir, "drill.json")
	res := mustRunGroup(t, drill)

	if res.Victim != 2 || !errors.Is(res.VictimErr, transport.ErrClosed) {
		t.Fatalf("victim %d failed with %v, want rank 2 with ErrClosed", res.Victim, res.VictimErr)
	}
	if len(res.Report.Fences) != 1 {
		t.Fatalf("%d fences, want 1: %+v", len(res.Report.Fences), res.Report.Fences)
	}
	f := res.Report.Fences[0]
	wantCkpt := filepath.Join(drill.FenceDir, "ckpt-00000002.cgdnn")
	if f.Epoch != 1 || f.Iter != 2 || !reflect.DeepEqual(f.Members, []int{0, 1}) ||
		!reflect.DeepEqual(f.Removed, []int{2}) || f.Checkpoint != wantCkpt {
		t.Fatalf("fence %+v, want epoch 1 at iteration 2, members [0 1], removed [2], checkpoint %s", f, wantCkpt)
	}
	if res.Report.FinalSize != 2 || len(res.Report.Losses) != drill.Iters {
		t.Fatalf("finished with %d ranks and %d committed losses, want 2 and %d",
			res.Report.FinalSize, len(res.Report.Losses), drill.Iters)
	}

	clean := testConfig()
	clean.Replicas = 2
	clean.Resume = f.Checkpoint
	clean.Snapshot = filepath.Join(dir, "clean.cgdnn")
	mustRunGroup(t, clean)
	requireSameFile(t, "crash recovery vs clean 2-rank resume", drill.Snapshot, clean.Snapshot)

	if _, err := trace.ValidateChromeTraceFile(drill.Trace); err != nil {
		t.Fatalf("-trace under a fence: %v", err)
	}
	raw, err := os.ReadFile(drill.Trace)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(raw, []byte(`"name":"fence rcv"`)) {
		t.Fatal("trace has no PhaseRecover fence span")
	}
}

// A drill in a rigid run is refused up front: nothing would notice the
// victim, and the survivors would wait on it forever.
func TestChaosNeedsSupervisedRun(t *testing.T) {
	c := testConfig()
	c.ChaosMode, c.ChaosRank, c.ChaosIter = "crash", 2, 2
	if _, err := RunGroup(c, logWriter{t}); err == nil || !strings.Contains(err.Error(), "supervised") {
		t.Fatalf("rigid run accepted a chaos drill: %v", err)
	}
}

// A fan-out below 1 is refused before any rank starts, in every mode that
// loads the model, and the error names the flag; 1 is a chain and runs.
func TestFanoutBelowOneRefused(t *testing.T) {
	for _, tc := range []struct {
		fanout  int
		predict bool
	}{{0, false}, {-1, false}, {-3, true}, {0, true}} {
		c := testConfig()
		c.Fanout, c.Predict = tc.fanout, tc.predict
		err := Run(c, io.Discard)
		if err == nil || !strings.Contains(err.Error(), "-fanout") {
			t.Errorf("fanout %d (predict %v): got %v, want an error naming -fanout", tc.fanout, tc.predict, err)
		}
	}
	c := testConfig()
	c.Fanout, c.Iters = 1, 1
	if _, err := RunGroup(c, io.Discard); err != nil {
		t.Errorf("fanout 1: %v", err)
	}
}

// (d) One rank failing in set-up — rank 0 cannot load a LeNet snapshot
// into a CIFAR net — fails the run promptly with that rank's error, rigid
// and supervised alike, instead of leaving rank 1 blocked in its first
// Recv (the hang this runner was written to fix).
func TestRankFailureFailsRunPromptly(t *testing.T) {
	dir := t.TempDir()
	lenet := testConfig()
	lenet.Replicas, lenet.Iters = 2, 2
	lenet.Snapshot = filepath.Join(dir, "lenet.cgdnn")
	mustRunGroup(t, lenet)

	for _, supervised := range []bool{false, true} {
		c := testConfig()
		c.Replicas, c.Zoo, c.Resume = 2, "cifar10-full", lenet.Snapshot
		if supervised {
			c.MinRanks, c.FenceDir = 1, filepath.Join(dir, "fences")
		}
		done := make(chan error, 1)
		go func() {
			_, err := RunGroup(c, logWriter{t})
			done <- err
		}()
		select {
		case err := <-done:
			if err == nil || !strings.Contains(err.Error(), "rank 0") || !strings.Contains(err.Error(), "size mismatch") {
				t.Fatalf("supervised=%v: got %v, want rank 0's snapshot size mismatch", supervised, err)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("supervised=%v: run still blocked 5s after rank 0 failed", supervised)
		}
	}
}

// A -model run is the same nets through dist directly: two ranks over
// configs/lenet.prototxt, no -batch — so the file's batch_size 64 is the
// global batch — commit the losses and leave the weights that NewRoot +
// NewWorker stepping prototxt.ParseNet's shard nets do, bit for bit. The
// same file cannot be split three ways, and says so before any rank runs.
func TestModelRunMatchesDistDirectly(t *testing.T) {
	const model, k, iters = "../../configs/lenet.prototxt", 2, 2
	c := testConfig()
	c.Ref = zoo.Ref{Model: model, Zoo: "lenet", Seed: 3} // dnncluster's -zoo default stays set
	c.Replicas, c.Iters = k, iters
	res := mustRunGroup(t, c)

	raw, err := os.ReadFile(model)
	if err != nil {
		t.Fatal(err)
	}
	src := data.NewSyntheticMNIST(32*64, 3) // the run's default: 32 global batches
	trs := transport.NewLocalGroup(k)
	var want dist.Report
	errs := make(chan error, k)
	for r := 0; r < k; r++ {
		go func(r int) {
			errs <- func() error {
				defer trs[r].Close()
				shard, err := data.NewShard(src, r, k, 64)
				if err != nil {
					return err
				}
				specs, err := prototxt.ParseNet(string(raw), prototxt.BuildOptions{Source: shard, Seed: 3, BatchOverride: 32})
				if err != nil {
					return err
				}
				n, err := net.New(specs, nil)
				if err != nil {
					return err
				}
				if r != 0 {
					nd, err := dist.NewWorker(trs[r], n, dist.Options{Fanout: 2})
					if err == nil {
						_, err = nd.Step(iters)
					}
					return err
				}
				nd, err := dist.NewRoot(trs[r], n, zoo.LeNetSolver(), dist.Options{Fanout: 2})
				if err != nil {
					return err
				}
				if want.Losses, err = nd.Step(iters); err != nil {
					return err
				}
				for _, p := range n.Params() {
					want.Weights = append(want.Weights, append([]float32(nil), p.Data()...))
				}
				return nil
			}()
		}(r)
	}
	for r := 0; r < k; r++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	if !reflect.DeepEqual(res.Report.Losses, want.Losses) || !reflect.DeepEqual(res.Report.Weights, want.Weights) {
		t.Fatalf("-model run diverged from dist: losses %v vs %v", res.Report.Losses, want.Losses)
	}

	c.Replicas = 3
	if _, err := RunGroup(c, logWriter{t}); err == nil || !strings.Contains(err.Error(), "global batch 64") ||
		!strings.Contains(err.Error(), "not divisible by 3 replicas") {
		t.Fatalf("batch_size 64 over 3 replicas: %v", err)
	}
}
