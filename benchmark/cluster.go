package main

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"coarsegrain/internal/core"
	"coarsegrain/internal/data"
	"coarsegrain/internal/dist"
	"coarsegrain/internal/net"
	"coarsegrain/internal/transport"
	"coarsegrain/internal/zoo"
)

const (
	clusterBatch = 16 // global; small on purpose, so exchange is a large share of the step
	clusterWarm  = 5
)

// clusterRanks is k: one rank per core up to four, and never fewer than
// two, or there would be no exchange to measure.
func clusterRanks() int { return max(hostP(), 2) }

// tracedTransport embeds the real endpoint and overrides only the two
// data-plane calls, timing each from outside.
type tracedTransport struct {
	transport.Transport
	rec *recorder
	// step is the span of the rank's current Step, set by its driver.
	step   atomic.Int32
	iter   atomic.Int64
	sendNS atomic.Int64
	recvNS atomic.Int64
}

func (t *tracedTransport) Send(to int, tag transport.Tag, payload []float32) error {
	if t.rec.off.Load() {
		return t.Transport.Send(to, tag, payload)
	}
	id := t.rec.open(t.step.Load(), t.iter.Load(), "transport", "send")
	err := t.Transport.Send(to, tag, payload)
	t.sendNS.Add(int64(t.rec.close(id)))
	return err
}

func (t *tracedTransport) Recv(from int, tag transport.Tag, buf []float32) error {
	if t.rec.off.Load() {
		return t.Transport.Recv(from, tag, buf)
	}
	id := t.rec.open(t.step.Load(), t.iter.Load(), "transport", "recv")
	err := t.Transport.Recv(from, tag, buf)
	t.recvNS.Add(int64(t.rec.close(id)))
	return err
}

// rank is one member of the in-process group.
type rank struct {
	// stepSpan is the name of this rank's Step spans.
	stepSpan string
	node     *dist.Node
	meter    *transport.Meter
	traced   *tracedTransport // nil unless tracing
	engine   *tracedEngine    // rank 0 only, nil unless tracing
}

// cluster is k lock-stepped ranks, each driven by its own goroutine.
type cluster struct {
	ranks []*rank
	ends  []transport.Transport // the raw endpoints, for Close
	rec   *recorder             // nil unless tracing
}

func (c *cluster) close() {
	for _, e := range c.ends {
		e.Close()
	}
}

// buildRankNet is rank r's replica: the seeded LeNet (lowered conv, one
// sequential engine per rank) over shard r of the global batch.
func buildRankNet(seed int64, r, k int, eng core.Engine) (*net.Net, error) {
	src := data.NewSyntheticMNIST(32*clusterBatch, uint64(seed))
	shard, err := data.NewShard(src, r, k, clusterBatch)
	if err != nil {
		return nil, err
	}
	specs, err := zoo.LeNet(shard, zoo.Options{BatchSize: shard.LocalBatch(), Seed: uint64(seed), LoweredConv: true})
	if err != nil {
		return nil, err
	}
	return net.New(specs, eng)
}

// buildCluster wires k nodes over the given endpoints: tree reduction,
// f32 wire, overlap on (the dist defaults). With a recorder, every
// endpoint is wrapped in a tracedTransport and rank 0's engine in a
// tracedEngine.
func buildCluster(seed int64, ends []transport.Transport, rec *recorder) (*cluster, error) {
	k := len(ends)
	c := &cluster{ends: ends, rec: rec}
	for r, end := range ends {
		rk := &rank{stepSpan: fmt.Sprintf("step.rank%d", r), meter: transport.NewMeter(end)}
		var t transport.Transport = rk.meter
		var eng core.Engine = core.NewSequential()
		if rec != nil {
			rk.traced = &tracedTransport{Transport: rk.meter, rec: rec}
			t = rk.traced
			if r == 0 {
				rk.engine = &tracedEngine{Engine: eng, rec: rec}
				eng = rk.engine
			}
		}
		n, err := buildRankNet(seed, r, k, eng)
		if err != nil {
			return nil, err
		}
		if r == 0 {
			rk.node, err = dist.NewRoot(t, n, zoo.LeNetSolver(), dist.Options{})
		} else {
			rk.node, err = dist.NewWorker(t, n, dist.Options{})
		}
		if err != nil {
			return nil, err
		}
		c.ranks = append(c.ranks, rk)
	}
	return c, nil
}

// each runs f on every rank concurrently and returns the first error.
func (c *cluster) each(f func(r int, rk *rank) error) error {
	errs := make([]error, len(c.ranks))
	var wg sync.WaitGroup
	for r, rk := range c.ranks {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[r] = f(r, rk)
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// step runs one lock-step iteration on every rank and returns the root's
// global loss.
func (c *cluster) step(iter int64) (float64, error) {
	var loss float64
	err := c.each(func(r int, rk *rank) error {
		sp := c.rec.open(0, iter, "dist", rk.stepSpan)
		if rk.traced != nil {
			rk.traced.step.Store(sp)
			rk.traced.iter.Store(iter)
		}
		if rk.engine != nil {
			rk.engine.parent, rk.engine.trace = sp, iter
		}
		losses, err := rk.node.Step(1)
		c.rec.close(sp)
		if err != nil {
			return fmt.Errorf("rank %d: %w", r, err)
		}
		if r == 0 {
			loss = losses[0]
		}
		return nil
	})
	return loss, err
}

// crcs returns every rank's parameter fingerprint.
func (c *cluster) crcs() []uint32 {
	out := make([]uint32, len(c.ranks))
	for r, rk := range c.ranks {
		out[r] = paramCRC(rk.node.Net().Params())
	}
	return out
}

// asEnds views a group of concrete endpoints as transports.
func asEnds[T transport.Transport](group []T) []transport.Transport {
	ends := make([]transport.Transport, len(group))
	for i, t := range group {
		ends[i] = t
	}
	return ends
}

// stepN runs n lock-step iterations and counts those that produced a
// non-finite loss. A transport error ends the run: the group cannot
// continue.
func (c *cluster) stepN(n int, firstIter int64) (bad int, err error) {
	for i := 0; i < n; i++ {
		loss, err := c.step(firstIter + int64(i))
		if err != nil {
			return bad + 1, err
		}
		if !finite(loss) {
			bad++
		}
	}
	return bad, nil
}

// stepWindow runs lock-step iterations until the window has passed and
// returns one op per iteration, timed from all ranks starting to all
// ranks done. A transport error ends the window: the group cannot
// continue.
func (c *cluster) stepWindow(window time.Duration, firstIter int64) (ops []op, bad int, ws windowStats, err error) {
	iter := firstIter
	ops, bad, ws = lockStepWindow(window, clusterBatch, func() bool {
		if err != nil {
			return false
		}
		var b int
		b, err = c.stepN(1, iter)
		iter++
		return b == 0
	})
	return ops, bad, ws, err
}

// runCluster is the whole life of one cluster workload run.
func runCluster(o runOpts) (*result, error) {
	res := newResult(o)
	k := clusterRanks()
	var rec *recorder
	if o.Trace {
		rec = newRecorder()
		rec.off.Store(true) // until the traced window
	}

	// Set-up: rendezvous over loopback, build every rank's replica and
	// node, first lock-step iteration.
	firstIteration := func() (*cluster, uint32, error) {
		group, err := dialGroup(k)
		if err != nil {
			return nil, 0, err
		}
		cl, err := buildCluster(o.Seed, asEnds(group), rec)
		if err != nil {
			return nil, 0, err
		}
		if _, err = cl.step(0); err != nil {
			cl.close()
			return nil, 0, err
		}
		return cl, cl.crcs()[0], nil
	}
	su := setups{threads: hostP()}
	var cl *cluster
	var firstCRC uint32
	if err := su.first(func() (ok bool, err error) {
		cl, firstCRC, err = firstIteration()
		return true, err
	}); err != nil {
		return nil, err
	}
	defer cl.close()

	// Warm-up; the parameters every rank holds after it are what the
	// oracle judges.
	warmBad, err := cl.stepN(clusterWarm-1, 1)
	if err != nil {
		return nil, err
	}
	warmCRCs := cl.crcs()

	// oracleAndSetups runs once the window has closed: all ranks must
	// agree with the same k ranks over transport.Local (TCP equals
	// Local), and every fresh group must land on the same bits after its
	// first iteration.
	oracleAndSetups := func() error {
		want, err := localReference(o, k)
		if err != nil {
			return err
		}
		for r, crc := range warmCRCs {
			if crc != want {
				res.failOracle(fmt.Sprintf("rank %d parameters %08x, Local reference %08x", r, crc, want))
			}
		}
		err = su.rest(func() (bool, func(), error) {
			c, crc, err := firstIteration()
			if err != nil {
				return false, nil, err
			}
			return crc == firstCRC, c.close, nil
		})
		res.phase("setup", len(su.secs), su.failed)
		res.phase("warmup", clusterWarm, warmBad)
		return err
	}

	iter := int64(clusterWarm)
	if !o.Trace {
		ops, bad, ws, err := cl.stepWindow(o.window(), iter)
		if err != nil {
			res.Notes = append(res.Notes, "window: "+err.Error())
		}
		rss := peakRSSMiB()
		if err := oracleAndSetups(); err != nil {
			return nil, err
		}
		res.phase("window", len(ops), bad)
		res.setEndToEnd(&su, ws, len(ops), rss)
		return res, nil
	}

	// The reference window runs with the wrappers in place but switched
	// off, so they pass straight through.
	refOps, refBad, refWS, err := cl.stepWindow(o.window()/4, iter)
	if err != nil {
		return nil, err
	}
	iter += int64(len(refOps))
	rec.off.Store(false)
	grad0, frames0, send0, recv0 := cl.wireTotals()
	ops, bad, ws, err := cl.stepWindow(o.window(), iter)
	if err != nil {
		return nil, err
	}
	rec.off.Store(true)
	grad1, frames1, send1, recv1 := cl.wireTotals()
	if err := oracleAndSetups(); err != nil {
		return nil, err
	}
	res.phase("reference_window", len(refOps), refBad)
	res.phase("trace_window", len(ops), bad)
	ms := make([]float64, len(ops))
	for i, o := range ops {
		ms[i] = msOf(o.end - o.start)
	}
	n := float64(len(ms))
	res.set("transport.grad_bytes_per_iter", float64(grad1-grad0)/n, len(ms))
	res.set("transport.frames_per_iter", float64(frames1-frames0)/n, len(ms))
	res.set("transport.send_ms_per_iter", float64(send1-send0)/1e6/n/float64(k), len(ms))
	res.set("transport.recv_wait_ms_per_iter", float64(recv1-recv0)/1e6/n/float64(k), len(ms))
	stepMS := mean(ms)
	res.set("dist.step_ms", stepMS, len(ms))
	for name, ns := range meanDurByName(rec.spans, "layers", len(ms)) {
		res.set("layers."+name[:3]+"_us."+name[4:], ns/1e3, len(ms))
	}
	fill := meanDurByName(rec.spans, "data", len(ms))["fwd.fill"]
	res.set("data.fill_us", fill/1e3, len(ms))
	res.set("data.share_pct", 100*fill/1e6/stepMS, len(ms))

	if err := aloneMetrics(res, o, k, stepMS); err != nil {
		return nil, err
	}
	var syncMS []float64
	for i := 0; i < 5; i++ {
		t0 := time.Now()
		if err := cl.each(func(_ int, rk *rank) error { return rk.node.SyncWeights() }); err != nil {
			return nil, fmt.Errorf("SyncWeights: %w", err)
		}
		syncMS = append(syncMS, msOf(time.Since(t0)))
	}
	res.set("dist.sync_weights_ms", median(syncMS), len(syncMS))
	res.set("bench.trace_overhead_pct", 100*(ws.p50/refWS.p50-1), len(ms))
	res.set("host.slowdown_x", ws.slowdown, len(ms))
	if err := snapshotMetrics(res, cl.ranks[0].node.Solver()); err != nil {
		return nil, err
	}
	if err := probe(res); err != nil {
		return nil, err
	}
	if res.TraceFile, err = rec.write(o.Workload, o.Seed); err != nil {
		return nil, err
	}
	res.fillPerLayer()
	return res, nil
}

// wireTotals sums the meters and Send/Recv timers over all ranks.
func (c *cluster) wireTotals() (gradBytes, frames, sendNS, recvNS int64) {
	for _, rk := range c.ranks {
		gradBytes += rk.meter.GradBytes()
		for kind := transport.Kind(0); kind < transport.KindCount; kind++ {
			if !kind.Ctrl() {
				frames += rk.meter.SentFrames(kind)
			}
		}
		if rk.traced != nil {
			sendNS += rk.traced.sendNS.Load()
			recvNS += rk.traced.recvNS.Load()
		}
	}
	return
}

// localReference trains the same k ranks over transport.Local for the
// warm-up iterations and returns the parameter fingerprint all of them
// must share.
func localReference(o runOpts, k int) (uint32, error) {
	cl, err := buildCluster(o.Seed, asEnds(transport.NewLocalGroup(k)), nil)
	if err != nil {
		return 0, err
	}
	defer cl.close()
	if _, err := cl.stepN(clusterWarm, 0); err != nil {
		return 0, err
	}
	crcs := cl.crcs()
	for r, crc := range crcs {
		if crc != crcs[0] {
			return 0, fmt.Errorf("Local reference: rank %d parameters %08x differ from rank 0's %08x", r, crc, crcs[0])
		}
	}
	if o.Selftest {
		crcs[0] ^= 1
	}
	return crcs[0], nil
}

// aloneMetrics times one rank's replica with no group around it, at the
// same local batch: forward+backward alone is the compute a step cannot
// go below, and a full solver step is what k-fold scaling is measured
// against.
func aloneMetrics(res *result, o runOpts, k int, stepMS float64) error {
	n, err := buildRankNet(o.Seed, 0, k, core.NewSequential())
	if err != nil {
		return err
	}
	const reps = 40
	compute := msOf(medianTime(reps, func() {
		n.ZeroParamDiffs()
		n.ForwardBackward()
	}))
	tr, err := buildTrainer(trainCfg{net: "lenet", batch: clusterBatch / k, lowered: true}, o.Seed, core.NewSequential())
	if err != nil {
		return err
	}
	defer tr.close()
	solo := msOf(medianTime(reps, func() { tr.s.Step(1) }))
	res.set("dist.comm_share_pct", 100*(1-compute/stepMS), reps)
	res.set("dist.scaling_efficiency", solo/stepMS, reps)
	return nil
}
