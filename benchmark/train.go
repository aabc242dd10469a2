package main

import (
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"runtime"
	"time"

	"coarsegrain/internal/blob"
	"coarsegrain/internal/core"
	"coarsegrain/internal/data"
	"coarsegrain/internal/layers"
	"coarsegrain/internal/net"
	"coarsegrain/internal/snapshot"
	"coarsegrain/internal/solver"
	"coarsegrain/internal/zoo"
)

// trainCfg is one training workload's fixed shape.
type trainCfg struct {
	net     string // zoo name
	batch   int
	lowered bool
	// warm is the fixed warm-up iteration count that doubles as the
	// correctness oracle.
	warm int
}

var trainCfgs = map[string]trainCfg{
	"train_lenet_lowered": {net: "lenet", batch: 64, lowered: true, warm: 5},
	"train_lenet_direct":  {net: "lenet", batch: 64, lowered: false, warm: 5},
	"train_cifar_lowered": {net: "cifar10-full", batch: 100, lowered: true, warm: 3},
}

// trainer is one built training stack.
type trainer struct {
	eng core.Engine
	n   *net.Net
	s   *solver.Solver
}

func (t *trainer) close() { t.eng.Close() }

func zooSource(netName string, samples int, seed int64) layers.Source {
	if netName == "lenet" {
		return data.NewSyntheticMNIST(samples, uint64(seed))
	}
	return data.NewSyntheticCIFAR(samples, uint64(seed))
}

func zooSolver(netName string) solver.Config {
	if netName == "lenet" {
		return zoo.LeNetSolver()
	}
	return zoo.CIFARFullSolver()
}

// buildTrainer builds data source, net and solver on eng, which it owns
// from then on.
func buildTrainer(c trainCfg, seed int64, eng core.Engine) (*trainer, error) {
	src := zooSource(c.net, 32*c.batch, seed)
	specs, err := zoo.Build(c.net, src, zoo.Options{BatchSize: c.batch, Seed: uint64(seed), LoweredConv: c.lowered})
	if err != nil {
		eng.Close()
		return nil, err
	}
	n, err := net.New(specs, eng)
	if err != nil {
		eng.Close()
		return nil, err
	}
	s, err := solver.New(zooSolver(c.net), n)
	if err != nil {
		eng.Close()
		return nil, err
	}
	return &trainer{eng: eng, n: n, s: s}, nil
}

// paramCRC fingerprints every parameter bit of a net.
func paramCRC(params []*blob.Blob) uint32 {
	h := crc32.NewIEEE()
	var b [4]byte
	for _, p := range params {
		for _, v := range p.Data() {
			u := math.Float32bits(v)
			b[0], b[1], b[2], b[3] = byte(u), byte(u>>8), byte(u>>16), byte(u>>24)
			h.Write(b[:])
		}
	}
	return h.Sum32()
}

// copyParams snapshots every parameter's values.
func copyParams(params []*blob.Blob) [][]float32 {
	out := make([][]float32, len(params))
	for i, p := range params {
		out[i] = append([]float32(nil), p.Data()...)
	}
	return out
}

// Tolerances of the coarse-against-sequential oracle. The forward pass is
// bit-identical for any worker count, so the first loss must match
// exactly; the ordered reduction re-associates float sums across workers,
// so later losses and the parameters may differ in the last bits (the
// repository's own TestConvergenceInvariance allows 5e-3 on the loss over
// 40 iterations; five iterations stay far inside 1e-3).
//
// Parameters are judged by their update (value after the warm-up minus
// the seeded initial value), which is what the engine computed: a
// parameter's value is mostly its initial value, so a tolerance on the
// value would pass a wrong gradient on a weight and, on a bias that
// starts at zero, fail on rounding alone. Over 72 seeds of each training
// workload the widest deviation of a blob's update was 1e-5 (LeNet) and
// 1e-4 (CIFAR) of its size in the median, 1.2e-3 where a gradient sum
// cancels heavily, and 6e-3 once, where the last bits tipped a ReLU or
// max-pool gate for one sample; a lost or mis-scaled worker contribution
// moves it by 1/P >= 0.25. updateFloor keeps a blob whose whole update is
// rounding beside the rest of the net's from being judged against itself.
const (
	lossRelTol   = 1e-3
	updateRelTol = 0.1
	updateFloor  = 1e-3
)

// trainOracle runs the warm-up iterations under the sequential engine
// from the same seed and compares the measured trainer against them.
// It returns the sequential per-iteration milliseconds, which are also
// the base of core.speedup_vs_seq.
func trainOracle(c trainCfg, o runOpts, res *result, gotParams [][]float32, gotLosses []float64) (seqMS []float64, err error) {
	ref, err := buildTrainer(c, o.Seed, core.NewSequential())
	if err != nil {
		return nil, err
	}
	defer ref.close()
	initial := copyParams(ref.n.Params()) // seeded: the measured trainer started from the same bits
	refLosses := make([]float64, 0, c.warm)
	for i := 0; i < c.warm; i++ {
		t0 := time.Now()
		refLosses = append(refLosses, ref.s.Step(1)[0])
		seqMS = append(seqMS, msOf(time.Since(t0)))
	}
	if o.Selftest {
		refLosses[0] = math.Float64frombits(math.Float64bits(refLosses[0]) ^ 1<<40)
	}
	if gotLosses[0] != refLosses[0] {
		return seqMS, fmt.Errorf("first loss %v differs from sequential %v (forward must be bit-identical)", gotLosses[0], refLosses[0])
	}
	for i := range refLosses {
		if rel := math.Abs(gotLosses[i]-refLosses[i]) / math.Max(math.Abs(refLosses[i]), 1e-8); !(rel <= lossRelTol) {
			return seqMS, fmt.Errorf("loss %d: %v vs sequential %v (rel %g)", i, gotLosses[i], refLosses[i], rel)
		}
	}
	worst, err := updateDeviation(initial, copyParams(ref.n.Params()), gotParams)
	if err != nil {
		return seqMS, err
	}
	res.Notes = append(res.Notes, fmt.Sprintf("oracle: widest parameter-update deviation from sequential %.3g (tolerance %g)", worst, updateRelTol))
	return seqMS, nil
}

// updateDeviation compares every blob's update (got minus initial) with
// the reference's (ref minus initial) in the max norm, relative to the
// reference update's size, and returns the widest ratio; a blob beyond
// updateRelTol is an error.
func updateDeviation(initial, ref, got [][]float32) (worst float64, err error) {
	devs := make([]float64, len(ref))
	scales := make([]float64, len(ref))
	var netScale float64
	for pi, rp := range ref {
		for i, v := range rp {
			scales[pi] = math.Max(scales[pi], math.Abs(float64(v)-float64(initial[pi][i])))
			devs[pi] = math.Max(devs[pi], math.Abs(float64(got[pi][i])-float64(v)))
		}
		netScale = math.Max(netScale, scales[pi])
	}
	for pi := range ref {
		rel := devs[pi] / math.Max(math.Max(scales[pi], updateFloor*netScale), 1e-30)
		if !(rel <= updateRelTol) {
			return rel, fmt.Errorf("param %d: update deviates from sequential by %g of %g (rel %g > %g)", pi, devs[pi], scales[pi], rel, updateRelTol)
		}
		worst = math.Max(worst, rel)
	}
	return worst, nil
}

func finite(x float64) bool { return !math.IsNaN(x) && !math.IsInf(x, 0) }

// allocSteps is how many bare Step(1) calls solver.allocs_per_iter is
// counted over.
const allocSteps = 5

// firstStep builds a fresh coarse(P) trainer and takes its first step.
func firstStep(c trainCfg, seed int64) (*trainer, float64, uint32, error) {
	tr, err := buildTrainer(c, seed, core.NewCoarse(hostP()))
	if err != nil {
		return nil, 0, 0, err
	}
	loss := tr.s.Step(1)[0]
	return tr, loss, paramCRC(tr.n.Params()), nil
}

// runTrain is the whole life of one training workload run.
func runTrain(o runOpts) (*result, error) {
	c := trainCfgs[o.Workload]
	res := newResult(o)
	P := hostP()

	// Set-up: build everything and take the first step.
	su := setups{threads: hostP()}
	var tr *trainer
	var firstLoss float64
	var firstCRC uint32
	if err := su.first(func() (ok bool, err error) {
		tr, firstLoss, firstCRC, err = firstStep(c, o.Seed)
		return true, err
	}); err != nil {
		return nil, err
	}
	defer tr.close()

	// Warm-up; its losses and parameters are what the oracle judges.
	losses := append([]float64{firstLoss}, tr.s.Step(c.warm-1)...)
	warmParams := copyParams(tr.n.Params())

	var ops, refOps []op
	var bad, refBad int
	var rss float64
	var rec *recorder
	var allocsPerIter float64
	var ws, refWS windowStats
	if !o.Trace {
		ops, bad, ws = stepWindow(tr.s, o.window(), c.batch)
		rss = peakRSSMiB()
	} else {
		// Traced pass: heap allocations of a few bare steps, a short
		// untraced reference window (overhead and speed-up base), then
		// the window under the span-recording engine.
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		tr.s.Step(allocSteps)
		runtime.ReadMemStats(&after)
		allocsPerIter = float64(after.Mallocs-before.Mallocs) / allocSteps
		refOps, refBad, refWS = stepWindow(tr.s, o.window()/4, c.batch)
		rec = newRecorder()
		te := &tracedEngine{Engine: tr.eng, rec: rec}
		tr.n.SetEngine(te)
		ops, bad, ws = tracedStepWindow(tr, te, o.window(), c.batch)
		tr.n.SetEngine(tr.eng)
	}

	// The oracle, and the remaining set-ups: every fresh stack must land
	// on the same bits after its first step (determinism at a fixed
	// worker count).
	seqMS, oracleErr := trainOracle(c, o, res, warmParams, losses)
	if err := su.rest(func() (bool, func(), error) {
		t, loss, crc, err := firstStep(c, o.Seed)
		if err != nil {
			return false, nil, err
		}
		return loss == firstLoss && crc == firstCRC, t.close, nil
	}); err != nil {
		return nil, err
	}
	if oracleErr != nil {
		res.failOracle(oracleErr.Error())
	}
	res.phase("setup", len(su.secs), su.failed)
	res.phase("warmup", c.warm, 0)
	if !o.Trace {
		res.phase("window", len(ops), bad)
		res.setEndToEnd(&su, ws, len(ops), rss)
		return res, nil
	}
	res.phase("reference_window", len(refOps), refBad)
	res.phase("trace_window", len(ops), bad)

	res.set("solver.allocs_per_iter", allocsPerIter, allocSteps)
	iterMS := make([]float64, len(ops))
	for i, o := range ops {
		iterMS[i] = msOf(o.end - o.start)
	}
	trainSpanMetrics(res, rec.spans, len(iterMS))
	res.set("solver.iter_ms_p95", percentile(iterMS, 95), len(iterMS))
	res.set("solver.iter_cv_pct", cvPct(iterMS), len(iterMS))
	speedup := median(seqMS) / refWS.rawP50 // both unscaled: the oracle ran without a meter
	res.set("core.speedup_vs_seq", speedup, len(seqMS))
	res.set("core.parallel_efficiency", speedup/float64(P), len(seqMS))
	res.set("core.scratch_mb", float64(tr.eng.ScratchBytes())/(1<<20), 0)
	res.set("bench.trace_overhead_pct", 100*(ws.p50/refWS.p50-1), len(iterMS))
	res.set("host.slowdown_x", ws.slowdown, len(iterMS))
	if err := snapshotMetrics(res, tr.s); err != nil {
		return nil, err
	}
	if err := probe(res); err != nil {
		return nil, err
	}
	var err error
	if res.TraceFile, err = rec.write(o.Workload, o.Seed); err != nil {
		return nil, err
	}
	res.fillPerLayer()
	return res, nil
}

// stepWindow runs Step(1) until the window has passed, with a canary
// reading between iterations, and returns one op per iteration, the count
// whose loss was not finite, and the window's figures.
func stepWindow(s *solver.Solver, window time.Duration, batch int) ([]op, int, windowStats) {
	return lockStepWindow(window, float64(batch), func() bool { return finite(s.Step(1)[0]) })
}

// lockStepWindow runs step back to back until the window has passed, with
// a canary reading before each and after the last. A step that reports
// false did no work.
func lockStepWindow(window time.Duration, work float64, step func() bool) (ops []op, bad int, ws windowStats) {
	ops = make([]op, 0, 4096)
	start := time.Now()
	m := newMeter(start, hostP())
	for time.Since(start) < window {
		m.sample()
		o := op{start: time.Since(start), work: work}
		ok := step()
		o.end = time.Since(start)
		if !ok {
			bad++
			o.work = 0
		}
		ops = append(ops, o)
	}
	m.sample()
	return ops, bad, summarizeWindow(ops, m)
}

// tracedEngine decorates the real engine: one span per Forward/Backward
// call, keyed by the layer's name, under whichever span the driving loop
// has open.
type tracedEngine struct {
	core.Engine
	rec    *recorder
	parent int32
	trace  int64
	// names caches each layer's span names, so that the per-call path
	// builds no strings.
	names map[layers.Layer]spanNames
}

type spanNames struct{ layer, fwd, bwd string }

func (e *tracedEngine) spanNames(l layers.Layer) spanNames {
	n, ok := e.names[l]
	if !ok {
		n = spanNames{layer: "layers", fwd: "fwd." + l.Name(), bwd: "bwd." + l.Name()}
		if l.Type() == "Data" {
			n = spanNames{layer: "data", fwd: "fwd.fill", bwd: "bwd.fill"}
		}
		if e.names == nil {
			e.names = map[layers.Layer]spanNames{}
		}
		e.names[l] = n
	}
	return n
}

func (e *tracedEngine) Forward(l layers.Layer, bottom, top []*blob.Blob) {
	if e.rec.off.Load() {
		e.Engine.Forward(l, bottom, top)
		return
	}
	n := e.spanNames(l)
	id := e.rec.open(e.parent, e.trace, n.layer, n.fwd)
	e.Engine.Forward(l, bottom, top)
	e.rec.close(id)
}

func (e *tracedEngine) Backward(l layers.Layer, bottom, top []*blob.Blob) {
	if e.rec.off.Load() {
		e.Engine.Backward(l, bottom, top)
		return
	}
	n := e.spanNames(l)
	id := e.rec.open(e.parent, e.trace, n.layer, n.bwd)
	e.Engine.Backward(l, bottom, top)
	e.rec.close(id)
}

// tracedStepWindow spells Step(1) out through the solver's and net's
// public calls so each gets a span: zero diffs, Forward, Backward,
// UpdateFromGradients. The arithmetic is Step's own.
func tracedStepWindow(tr *trainer, te *tracedEngine, window time.Duration, batch int) ([]op, int, windowStats) {
	rec := te.rec
	return lockStepWindow(window, float64(batch), func() bool {
		te.trace++
		iter := rec.open(0, te.trace, "solver", "step")
		z := rec.open(iter, te.trace, "solver", "zero")
		tr.n.ZeroParamDiffs()
		rec.close(z)
		te.parent = rec.open(iter, te.trace, "net", "forward")
		loss := tr.n.Forward()
		rec.close(te.parent)
		te.parent = rec.open(iter, te.trace, "net", "backward")
		tr.n.Backward()
		rec.close(te.parent)
		u := rec.open(iter, te.trace, "solver", "update")
		tr.s.UpdateFromGradients()
		rec.close(u)
		rec.close(iter)
		return finite(loss)
	})
}

// trainSpanMetrics turns one traced window's spans into the layers, data,
// net and solver rows. All are means over the window, so each layer's
// row plus its self time adds up to the row above exactly.
func trainSpanMetrics(res *result, spans []span, iters int) {
	if iters == 0 {
		return
	}
	n := float64(iters)
	var step, fwd, bwd, netSelf, layerSum float64
	self := selfTimes(spans)
	for _, s := range spans {
		switch {
		case s.Layer == "solver" && s.Name == "step":
			step += float64(s.dur())
		case s.Layer == "net" && s.Name == "forward":
			fwd += float64(s.dur())
			netSelf += float64(self[s.ID])
		case s.Layer == "net" && s.Name == "backward":
			bwd += float64(s.dur())
			netSelf += float64(self[s.ID])
		case s.Layer == "layers" || s.Layer == "data":
			layerSum += float64(s.dur())
		}
	}
	for name, ns := range meanDurByName(spans, "layers", iters) {
		// name is fwd.<layer> or bwd.<layer>
		res.set("layers."+name[:3]+"_us."+name[4:], ns/1e3, iters)
	}
	fill := meanDurByName(spans, "data", iters)["fwd.fill"]
	res.set("data.fill_us", fill/1e3, iters)
	res.set("data.share_pct", 100*fill/(step/n), iters)
	res.set("net.forward_ms", fwd/n/1e6, iters)
	res.set("net.backward_ms", bwd/n/1e6, iters)
	res.set("net.self_us", netSelf/n/1e3, iters)
	res.set("solver.step_ms", step/n/1e6, iters)
	res.set("solver.update_us", (step-fwd-bwd)/n/1e3, iters)
	res.Notes = append(res.Notes, fmt.Sprintf(
		"sum check: layers+data %.3f ms + net.self %.3f ms = %.3f ms vs net.forward+backward %.3f ms; + solver.update %.3f ms = %.3f ms vs solver.step %.3f ms",
		layerSum/n/1e6, netSelf/n/1e6, (layerSum+netSelf)/n/1e6, (fwd+bwd)/n/1e6,
		(step-fwd-bwd)/n/1e6, (layerSum+netSelf+step-fwd-bwd)/n/1e6, step/n/1e6))
}

// snapshotMetrics checkpoints the live solver five times into a scratch
// directory under out/ and loads it back, after the window.
func snapshotMetrics(res *result, s *solver.Solver) error {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(outDir, "ckpt-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	const reps = 5
	var save, load []float64
	var size int64
	for i := 0; i < reps; i++ {
		t0 := time.Now()
		path, err := snapshot.SaveCheckpoint(dir, s, 1)
		if err != nil {
			return fmt.Errorf("snapshot probe: %w", err)
		}
		save = append(save, msOf(time.Since(t0)))
		if st, err := os.Stat(path); err == nil {
			size = st.Size()
		}
		t0 = time.Now()
		if _, _, err := snapshot.LoadLatestValid(dir, s); err != nil {
			return fmt.Errorf("snapshot probe: %w", err)
		}
		load = append(load, msOf(time.Since(t0)))
	}
	res.set("snapshot.save_ms", median(save), reps)
	res.set("snapshot.load_ms", median(load), reps)
	res.set("snapshot.bytes", float64(size), 0)
	return nil
}
