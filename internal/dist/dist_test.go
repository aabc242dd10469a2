package dist

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"testing"
	"time"

	"coarsegrain/internal/data"
	"coarsegrain/internal/layers"
	"coarsegrain/internal/net"
	"coarsegrain/internal/rng"
	"coarsegrain/internal/solver"
	"coarsegrain/internal/transport"
)

const (
	globalBatch = 16
	sourceLen   = 128
	dataSeed    = 55
	weightSeed  = 77
	testIters   = 8
)

func solverCfg() solver.Config {
	return solver.Config{Type: solver.SGD, BaseLR: 0.01, Momentum: 0.9}
}

// tinySpecsE is the equivalence-test network: conv 4x5x5/2 -> relu ->
// ip 10 -> loss, seeded weights. Error-returning so elastic Rebuild
// closures (which run off the test goroutine) can use it; tinySpecs
// wraps it for direct test use.
func tinySpecsE(src layers.Source, batch int) ([]net.LayerSpec, error) {
	d, err := layers.NewData("data", src, batch)
	if err != nil {
		return nil, err
	}
	conv, err := layers.NewConvolution("conv1", layers.ConvConfig{
		NumOutput: 4, Kernel: 5, Stride: 2,
		WeightFiller: layers.XavierFiller{}, RNG: rng.New(weightSeed, 1),
	})
	if err != nil {
		return nil, err
	}
	ip, err := layers.NewInnerProduct("ip1", layers.IPConfig{
		NumOutput: 10, WeightFiller: layers.XavierFiller{}, RNG: rng.New(weightSeed, 2),
	})
	if err != nil {
		return nil, err
	}
	return []net.LayerSpec{
		{Layer: d, Tops: []string{"data", "label"}},
		{Layer: conv, Bottoms: []string{"data"}, Tops: []string{"conv1"}},
		{Layer: layers.NewReLU("relu1", 0), Bottoms: []string{"conv1"}, Tops: []string{"relu1"}},
		{Layer: ip, Bottoms: []string{"relu1"}, Tops: []string{"ip1"}},
		{Layer: layers.NewSoftmaxWithLoss("loss"), Bottoms: []string{"ip1", "label"}, Tops: []string{"loss"}},
	}, nil
}

func tinySpecs(t testing.TB, src layers.Source, batch int) []net.LayerSpec {
	t.Helper()
	specs, err := tinySpecsE(src, batch)
	if err != nil {
		t.Fatal(err)
	}
	return specs
}

// shardNetE builds the net rank r of a k-rank group trains: the same
// seeded architecture over shard r of the global batch.
func shardNetE(r, k int) (*net.Net, error) {
	// Round the global batch down to a multiple of k so odd group sizes
	// (k=3) shard evenly, and trim the source to a whole number of
	// batches; powers of two keep the original batch of 16 over the full
	// source exactly.
	gb := globalBatch - globalBatch%k
	src := data.NewSyntheticMNIST(gb*(sourceLen/globalBatch), dataSeed)
	shard, err := data.NewShard(src, r, k, gb)
	if err != nil {
		return nil, err
	}
	specs, err := tinySpecsE(shard, shard.LocalBatch())
	if err != nil {
		return nil, err
	}
	return net.New(specs, nil)
}

func shardNet(t testing.TB, r, k int) *net.Net {
	t.Helper()
	n, err := shardNetE(r, k)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// runDist trains a k-rank group over the given transports (index =
// rank) for iters iterations and returns the root's final weights and
// global loss trace.
func runDist(t testing.TB, trs []transport.Transport, opts Options, iters int) ([][]float32, []float64) {
	t.Helper()
	k := len(trs)
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
			n := shardNet(t, r, k)
			var (
				nd  *Node
				err error
			)
			if r == 0 {
				nd, err = NewRoot(trs[r], n, solverCfg(), opts)
			} else {
				nd, err = NewWorker(trs[r], n, opts)
			}
			if err == nil {
				var ls []float64
				ls, err = nd.Step(iters)
				if r == 0 {
					losses = ls
					weights = copyWeights(n)
				}
			}
			if err != nil {
				mu.Lock()
				errs = append(errs, fmt.Errorf("rank %d: %w", r, err))
				mu.Unlock()
			}
			trs[r].Close()
		}(r)
	}
	wg.Wait()
	for _, err := range errs {
		t.Fatal(err)
	}
	return weights, losses
}

func copyWeights(n *net.Net) [][]float32 {
	out := make([][]float32, len(n.Params()))
	for i, p := range n.Params() {
		out[i] = append([]float32(nil), p.Data()...)
	}
	return out
}

// requireBitIdentical fails unless two weight sets match to the last bit.
func requireBitIdentical(t testing.TB, label string, got, want [][]float32) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d params vs %d", label, len(got), len(want))
	}
	for pi := range want {
		for j := range want[pi] {
			if got[pi][j] != want[pi][j] {
				t.Fatalf("%s: param %d element %d: %v vs %v (not bit-identical)",
					label, pi, j, got[pi][j], want[pi][j])
			}
		}
	}
}

func localGroup(k int) []transport.Transport {
	locals := transport.NewLocalGroup(k)
	out := make([]transport.Transport, k)
	for i, l := range locals {
		out[i] = l
	}
	return out
}

// tcpGroup rendezvouses a k-rank loopback-TCP group.
func tcpGroup(t testing.TB, k int) []transport.Transport {
	t.Helper()
	coord, err := transport.NewCoordinator("127.0.0.1:0", k)
	if err != nil {
		t.Fatal(err)
	}
	trs := make([]transport.Transport, k)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		tr, err := coord.Wait()
		if err == nil {
			trs[0] = tr
		}
	}()
	for w := 1; w < k; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			tr, err := transport.DialTCP(coord.Addr())
			if err == nil {
				trs[tr.Rank()] = tr
			}
		}()
	}
	wg.Wait()
	for r, tr := range trs {
		if tr == nil {
			t.Fatalf("rank %d failed to rendezvous", r)
		}
	}
	return trs
}

// replicaBaseline is the reference every distributed run must match
// bitwise: k shard nets built by build in one process, each running
// ForwardBackward, their gradients added into rank 0's in ascending
// rank order, scaled by 1/k, one solver update on rank 0, and the new
// weights copied to the other shards. It shares no code with Node — it
// is the ordered fold written out, the oracle the reduce-scatter and
// the tree must reproduce. Returns rank 0's final weights and the loss
// trace (the rank-ordered mean of shard losses).
func replicaBaseline(t testing.TB, k, iters int, build func(r, k int) (*net.Net, error)) ([][]float32, []float64) {
	t.Helper()
	nets := make([]*net.Net, k)
	for r := range nets {
		n, err := build(r, k)
		if err != nil {
			t.Fatal(err)
		}
		nets[r] = n
	}
	s, err := solver.New(solverCfg(), nets[0])
	if err != nil {
		t.Fatal(err)
	}
	losses := make([]float64, iters)
	for it := range losses {
		var sum float64
		for _, n := range nets {
			n.ZeroParamDiffs()
			sum += n.ForwardBackward()
		}
		for pi, p := range nets[0].Params() {
			for _, n := range nets[1:] {
				p.AccumulateDiffFrom(n.Params()[pi])
			}
			p.ScaleDiff(1 / float32(k))
		}
		s.UpdateFromGradients()
		for _, n := range nets[1:] {
			for pi, p := range n.Params() {
				p.CopyDataFrom(nets[0].Params()[pi])
			}
		}
		losses[it] = sum / float64(k)
	}
	return copyWeights(nets[0]), losses
}

// The tentpole contract: a k-replica distributed run is bit-identical —
// weights and loss trace — to the in-process ordered fold
// (replicaBaseline), for every k, tree fan-out and transport.
func TestDistMatchesReplicaTrainerBitwise(t *testing.T) {
	for _, k := range []int{2, 3, 4} {
		refW, refL := replicaBaseline(t, k, testIters, shardNetE)
		for _, fanout := range []int{1, 2, 3} {
			for _, tc := range []struct {
				suffix string
				group  func() []transport.Transport
			}{
				{"", func() []transport.Transport { return localGroup(k) }},
				{"_tcp", func() []transport.Transport { return tcpGroup(t, k) }},
			} {
				t.Run(fmt.Sprintf("k%d_fanout%d%s", k, fanout, tc.suffix), func(t *testing.T) {
					w, l := runDist(t, tc.group(), Options{Fanout: fanout}, testIters)
					requireBitIdentical(t, "weights", w, refW)
					requireSameLosses(t, "losses", l, refL)
				})
			}
		}
	}
}

// k=1 degenerates to plain solver stepping: bit-identical to what
// cmd/dnntrain computes on the same seed (no scaling, no communication).
func TestDistSingleRankMatchesSolverBitwise(t *testing.T) {
	src := data.NewSyntheticMNIST(sourceLen, dataSeed)
	single, err := net.New(tinySpecs(t, src, globalBatch), nil)
	if err != nil {
		t.Fatal(err)
	}
	s, err := solver.New(solverCfg(), single)
	if err != nil {
		t.Fatal(err)
	}
	refL := s.Step(testIters)
	refW := copyWeights(single)

	w, l := runDist(t, localGroup(1), Options{}, testIters)
	requireBitIdentical(t, "weights", w, refW)
	requireSameLosses(t, "losses", l, refL)
}

// The multi-device convergence-invariance claim: k ranks over shards of
// the global batch follow the loss trace of one device over the whole
// batch. Not bitwise — the sum is parenthesized per shard — but within
// float rounding.
func TestDistMatchesSingleDevice(t *testing.T) {
	const iters = 12
	src := data.NewSyntheticMNIST(sourceLen, dataSeed)
	single, err := net.New(tinySpecs(t, src, globalBatch), nil)
	if err != nil {
		t.Fatal(err)
	}
	s, err := solver.New(solverCfg(), single)
	if err != nil {
		t.Fatal(err)
	}
	ref := s.Step(iters)
	for _, k := range []int{2, 4} {
		_, got := runDist(t, localGroup(k), Options{}, iters)
		for i := range ref {
			if rel := math.Abs(got[i]-ref[i]) / math.Max(ref[i], 1e-12); rel > 1e-4 {
				t.Fatalf("k=%d: trace diverged at iter %d: %v vs %v (rel %g)", k, i, got[i], ref[i], rel)
			}
		}
	}
}

// The TCP transport changes the fabric, not the values: a k-rank run
// over real loopback sockets matches the in-process run bitwise.
func TestDistTCPMatchesLocalBitwise(t *testing.T) {
	for _, k := range []int{2, 4} {
		t.Run(fmt.Sprintf("k%d", k), func(t *testing.T) {
			refW, refL := runDist(t, localGroup(k), Options{}, testIters)
			w, l := runDist(t, tcpGroup(t, k), Options{}, testIters)
			requireBitIdentical(t, "weights", w, refW)
			requireSameLosses(t, "TCP losses", l, refL)
		})
	}
}

// Disabling the comm/compute overlap must not change a single bit —
// the overlap is a latency optimization, not a semantic one.
func TestDistOverlapAblationBitwise(t *testing.T) {
	refW, _ := runDist(t, localGroup(4), Options{}, testIters)
	w, _ := runDist(t, localGroup(4), Options{NoOverlap: true}, testIters)
	requireBitIdentical(t, "weights", w, refW)
}

// Seeded drop/duplicate/delay faults on every link: the bounded retry
// plus receiver dedupe must absorb them all and converge to the
// bit-identical result (satellite: flaky-transport coverage, run under
// -race by check.sh).
func TestDistFlakyConvergesBitwise(t *testing.T) {
	refW, refL := runDist(t, localGroup(4), Options{}, testIters)

	locals := transport.NewLocalGroup(4)
	flaky := make([]transport.Transport, 4)
	for i, l := range locals {
		flaky[i] = transport.NewFlaky(l, transport.FlakyConfig{
			DropProb: 0.15, DupProb: 0.15, DelayProb: 0.05, MaxDelay: 200 * time.Microsecond,
		}, uint64(100+i))
	}
	w, l := runDist(t, flaky, Options{}, testIters)
	requireBitIdentical(t, "weights", w, refW)
	requireSameLosses(t, "flaky losses", l, refL)
}

// When faults exceed the retry budget the run must fail loudly, not
// silently diverge: a 100% drop rate with a tiny budget aborts Step.
func TestDistExhaustedRetriesFailLoudly(t *testing.T) {
	locals := transport.NewLocalGroup(2)
	trs := []transport.Transport{
		transport.NewFlaky(locals[0], transport.FlakyConfig{DropProb: 1}, 1),
		transport.NewFlaky(locals[1], transport.FlakyConfig{DropProb: 1}, 2),
	}
	opts := Options{Retry: RetryConfig{MaxAttempts: 3, BaseBackoff: time.Microsecond, MaxBackoff: time.Microsecond}}
	var wg sync.WaitGroup
	errs := make([]error, 2)
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			n := shardNet(t, r, 2)
			var nd *Node
			var err error
			if r == 0 {
				nd, err = NewRoot(trs[r], n, solverCfg(), opts)
			} else {
				nd, err = NewWorker(trs[r], n, opts)
			}
			if err == nil {
				_, err = nd.Step(1)
			}
			errs[r] = err
			locals[r].Close()
		}(r)
	}
	wg.Wait()
	for r, err := range errs {
		if !errors.Is(err, transport.ErrTransient) {
			t.Fatalf("rank %d: err = %v, want a retry-exhaustion error wrapping ErrTransient", r, err)
		}
	}
}

func TestNodeValidation(t *testing.T) {
	g := transport.NewLocalGroup(2)
	n0 := shardNet(t, 0, 2)
	if _, err := NewWorker(g[0], n0, Options{}); err == nil {
		t.Fatal("NewWorker accepted rank 0")
	}
	if _, err := NewRoot(g[1], shardNet(t, 1, 2), solverCfg(), Options{}); err == nil {
		t.Fatal("NewRoot accepted rank 1")
	}
	nd, err := NewRoot(g[0], n0, solverCfg(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if nd.Rank() != 0 || nd.Size() != 2 || nd.Solver() == nil || nd.Net() != n0 {
		t.Fatalf("root accessors wrong: %+v", nd)
	}
	if nd.Tree().Fanout() != 2 {
		t.Fatalf("default fanout %d", nd.Tree().Fanout())
	}
}

func TestLossBitsRoundTrip(t *testing.T) {
	for _, v := range []float64{0, 1, -1, 2.3892185e-7, 1e300, -4.56e-300} {
		if got := decodeF64(encodeF64(v)); got != v {
			t.Fatalf("loss %v round-tripped to %v", v, got)
		}
	}
}
