package dist

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"coarsegrain/internal/data"
	"coarsegrain/internal/net"
	"coarsegrain/internal/trace"
	"coarsegrain/internal/transport"
	"coarsegrain/internal/zoo"
)

// Compressed training must stay deterministic run-to-run (same seed ⇒
// same bits) and transport-independent — the cluster contract does not
// weaken just because the wire is quantized. Also pins the overlap
// ablation under a codec: the backward-hook scatter must not change
// which values get encoded.
func TestDistCodecDeterministicAcrossRunsAndTransports(t *testing.T) {
	for _, wire := range []string{"f16", "int8"} {
		t.Run(wire, func(t *testing.T) {
			opts := Options{GradWire: wire}
			w1, l1 := runDist(t, localGroup(3), opts, testIters)
			w2, _ := runDist(t, localGroup(3), opts, testIters)
			requireBitIdentical(t, "rerun weights", w2, w1)

			w3, l3 := runDist(t, tcpGroup(t, 3), opts, testIters)
			requireBitIdentical(t, "tcp weights", w3, w1)
			requireSameLosses(t, "tcp losses", l3, l1)

			w4, _ := runDist(t, localGroup(3), Options{GradWire: wire, NoOverlap: true}, testIters)
			requireBitIdentical(t, "no-overlap weights", w4, w1)
		})
	}
}

// Encoded gradient frames ride the same retry/dedupe machinery as raw
// ones: seeded drop/duplicate/delay faults on every link of an int8 run
// must be absorbed without changing a bit — including duplicated
// encoded frames, which the receiver's tag dedupe discards.
func TestDistCompressedFlakyConvergesBitwise(t *testing.T) {
	opts := Options{GradWire: "int8"}
	refW, refL := runDist(t, localGroup(3), opts, testIters)

	locals := transport.NewLocalGroup(3)
	flaky := make([]transport.Transport, 3)
	for i, l := range locals {
		flaky[i] = transport.NewFlaky(l, transport.FlakyConfig{
			DropProb: 0.15, DupProb: 0.15, DelayProb: 0.05,
		}, uint64(40+i))
	}
	w, l := runDist(t, flaky, opts, testIters)
	requireBitIdentical(t, "weights", w, refW)
	requireSameLosses(t, "flaky losses", l, refL)
}

// lenetLosses builds a k-rank LeNet group over synthetic MNIST and runs
// it, returning the root's loss trace — the convergence harness for the
// error-feedback pin.
func lenetLosses(t *testing.T, k, iters int, opts Options) []float64 {
	t.Helper()
	const globalBatch, samples = 8, 32
	src, _ := data.LoadMNIST("", samples, 11)
	trs := localGroup(k)
	var (
		wg     sync.WaitGroup
		losses []float64
		mu     sync.Mutex
		errs   []error
	)
	for r := 0; r < k; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			fail := func(err error) {
				mu.Lock()
				errs = append(errs, fmt.Errorf("rank %d: %w", r, err))
				mu.Unlock()
			}
			shard, err := data.NewShard(src, r, k, globalBatch)
			if err != nil {
				fail(err)
				return
			}
			specs, err := zoo.Build("lenet", shard, zoo.Options{BatchSize: shard.LocalBatch(), Seed: 11})
			if err != nil {
				fail(err)
				return
			}
			n, err := net.New(specs, nil)
			if err != nil {
				fail(err)
				return
			}
			var nd *Node
			if r == 0 {
				cfg := zoo.LeNetSolver()
				nd, err = NewRoot(trs[r], n, cfg, opts)
			} else {
				nd, err = NewWorker(trs[r], n, opts)
			}
			if err == nil {
				var ls []float64
				ls, err = nd.Step(iters)
				if r == 0 {
					losses = ls
				}
			}
			if err != nil {
				fail(err)
			}
			trs[r].Close()
		}(r)
	}
	wg.Wait()
	for _, err := range errs {
		t.Fatal(err)
	}
	return losses
}

// The error-feedback convergence pin: LeNet trained with a lossy wire
// format must reach the f32 baseline's loss. The residual is what makes
// this work — without it, int8's quantization error (up to maxabs/254
// per element per iteration) accumulates as a bias; with it, whatever
// one iteration failed to transmit is re-sent the next, and the
// compressed loss curve tracks the baseline within quantization noise.
func TestDistCompressedLeNetReachesBaselineLoss(t *testing.T) {
	if testing.Short() {
		t.Skip("LeNet convergence run")
	}
	const iters = 25
	tail := func(ls []float64) float64 {
		s := 0.0
		for _, v := range ls[len(ls)-5:] {
			s += v
		}
		return s / 5
	}
	base := lenetLosses(t, 2, iters, Options{})
	baseTail := tail(base)
	if baseTail >= base[0] {
		t.Fatalf("f32 baseline did not converge: first loss %v, tail mean %v", base[0], baseTail)
	}
	for _, wire := range []string{"f16", "int8"} {
		t.Run(wire, func(t *testing.T) {
			ls := lenetLosses(t, 2, iters, Options{GradWire: wire})
			got := tail(ls)
			// Reaching baseline: the compressed tail must be within 10%
			// of the f32 tail's progress from the initial loss.
			slack := 0.10 * (base[0] - baseTail)
			if got > baseTail+slack {
				t.Fatalf("%s tail loss %v did not reach f32 baseline %v (slack %v); trace %v",
					wire, got, baseTail, slack, ls)
			}
		})
	}
}

// The transport-layer byte accounting behind the ≥3.5x compression
// claim: identical runs, identical traffic pattern, only the codec
// changes — int8 must cut the gradient bytes a Meter counts on the wire
// by at least 3.5x.
func TestDistInt8CutsGradBytesOnWire(t *testing.T) {
	// The tree is the one gradient route; the subtest keeps its name.
	t.Run("tree", func(t *testing.T) {
		measure := func(wire string) int64 {
			locals := transport.NewLocalGroup(3)
			meters := make([]*transport.Meter, 3)
			trs := make([]transport.Transport, 3)
			for i, l := range locals {
				meters[i] = transport.NewMeter(l)
				trs[i] = meters[i]
			}
			runDist(t, trs, Options{GradWire: wire}, testIters)
			var total int64
			for _, m := range meters {
				total += m.GradBytes()
			}
			return total
		}
		f32 := measure("f32")
		int8 := measure("int8")
		if f32 == 0 || int8 == 0 {
			t.Fatalf("no gradient traffic metered (f32 %d, int8 %d)", f32, int8)
		}
		ratio := float64(f32) / float64(int8)
		if ratio < 3.5 {
			t.Fatalf("int8 gradient bytes-on-wire reduction %.2fx < 3.5x (f32 %d B, int8 %d B)", ratio, f32, int8)
		}
		t.Logf("f32 %d B, int8 %d B, reduction %.2fx", f32, int8, ratio)
	})
}

// Construction-time validation of the tree shape and the wire format:
// a fan-out is honored, an unknown wire format is refused, and a lossy
// format on a single rank (which never touches the wire) is accepted.
func TestNodeValidationTopologyAndCodec(t *testing.T) {
	trs := localGroup(1)
	n := shardNet(t, 0, 1)
	nd, err := NewRoot(trs[0], n, solverCfg(), Options{Fanout: 3})
	if err != nil {
		t.Fatal(err)
	}
	if nd.Tree().Fanout() != 3 {
		t.Errorf("fan-out 3 built a fan-out %d tree", nd.Tree().Fanout())
	}
	if _, err := NewRoot(trs[0], n, solverCfg(), Options{GradWire: "bf16"}); err == nil {
		t.Error("unknown wire format accepted")
	}
	if _, err := NewRoot(trs[0], n, solverCfg(), Options{GradWire: "f16"}); err != nil {
		t.Errorf("f16 rejected on k=1: %v", err)
	}
}

// BenchmarkGradWire times one lockstep iteration of a 4-rank group on
// the in-process transport per wire format — the step-time side of the
// EXPERIMENTS.md comm table (bytes are measured by
// TestDistInt8CutsGradBytesOnWire and dnnbench -figure comm).
func BenchmarkGradWire(b *testing.B) {
	for _, wire := range []string{"f32", "f16", "int8"} {
		b.Run(wire, func(b *testing.B) {
			runDist(b, localGroup(4), Options{GradWire: wire}, b.N)
		})
	}
}

// A traced compressed run must expose the codec's encode/decode cost as
// comm rows in the utilization report, beside the scatter, fold, gather
// and bcast rows of the exchange itself — the overhead is measurable,
// not inferred.
func TestDistTraceShowsCodecPhases(t *testing.T) {
	trs := localGroup(2)
	tracer := trace.New(1)
	var wg sync.WaitGroup
	errs := make([]error, 2)
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			defer trs[r].Close()
			n := shardNet(t, r, 2)
			if r == 0 {
				n.SetTracer(tracer)
			}
			var nd *Node
			var err error
			opts := Options{GradWire: "int8"}
			if r == 0 {
				nd, err = NewRoot(trs[r], n, solverCfg(), opts)
			} else {
				nd, err = NewWorker(trs[r], n, opts)
			}
			if err == nil {
				_, err = nd.Step(2)
			}
			errs[r] = err
		}(r)
	}
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", r, err)
		}
	}

	rows := trace.ComputeUtilization(tracer.Snapshot(), 1)
	wall := map[string]bool{}
	for _, u := range rows {
		if u.Phase == trace.PhaseComm && u.Wall > 0 {
			wall[u.Name] = true
		}
	}
	for _, want := range []string{"encode", "decode", "scatter", "fold", "gather", "bcast"} {
		if !wall[want] {
			t.Errorf("comm phase %q missing from utilization rows (got %v)", want, wall)
		}
	}

	var buf strings.Builder
	trace.WriteUtilizationReport(&buf, tracer.Snapshot(), 1)
	if out := buf.String(); !strings.Contains(out, "encode") || !strings.Contains(out, "decode") {
		t.Errorf("utilization report does not show codec overhead:\n%s", out)
	}
}
