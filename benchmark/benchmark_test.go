package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"
	"time"
)

// shorten makes a test's runs quick: two set-ups each, two warm-up
// iterations for the slow nets, files in a directory of the test's own.
func shorten(t *testing.T) {
	t.Helper()
	plan, dir, cfgs := setupPlan, outDir, trainCfgs
	setupPlan.min, setupPlan.max, setupPlan.budget = 2, 2, 0
	outDir = t.TempDir()
	trainCfgs = map[string]trainCfg{}
	for name, c := range cfgs {
		c.warm = 2
		trainCfgs[name] = c
	}
	t.Cleanup(func() { setupPlan, outDir, trainCfgs = plan, dir, cfgs })
}

// contract is the object the driver reads from the last line of output.
type contract struct {
	Correct   *bool `json:"correct"`
	Attempted *int  `json:"attempted"`
	Failed    *int  `json:"failed"`
	Metrics   map[string]struct {
		Value *float64 `json:"value"`
		Unit  *string  `json:"unit"`
	} `json:"metrics"`
}

func lastLine(t *testing.T, out string) contract {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
	dec.DisallowUnknownFields()
	var c contract
	if err := dec.Decode(&c); err != nil {
		t.Fatalf("last line is not the contract object: %v\n%s", err, lines[len(lines)-1])
	}
	if c.Correct == nil || c.Attempted == nil || c.Failed == nil || c.Metrics == nil {
		t.Fatalf("contract object lacks a key: %s", lines[len(lines)-1])
	}
	return c
}

// Every workload runs, every oracle holds, and an untraced run reports
// exactly the declared end-to-end metrics, none of them zero.
func TestSmokeAllWorkloads(t *testing.T) {
	shorten(t)
	for _, w := range workloadTable {
		res, err := runWorkload(runOpts{Workload: w.Name, Seed: 7, Seconds: 0.3})
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		if res.errorRate() != 0 {
			t.Errorf("%s: error rate %v, phases %+v, notes %v", w.Name, res.errorRate(), res.Phases, res.Notes)
		}
		if len(res.Metrics) != len(endToEndTable) {
			t.Errorf("%s: %d metrics, want the %d end-to-end ones", w.Name, len(res.Metrics), len(endToEndTable))
		}
		for _, d := range endToEndTable {
			if v := res.Metrics[d.Name]; !(v > 0) {
				t.Errorf("%s: %s = %v, must be positive", w.Name, d.Name, v)
			}
		}
		for _, p := range res.Phases {
			if p.Attempted == 0 || p.Attempted != p.Succeeded+p.Failed {
				t.Errorf("%s: phase %+v does not add up", w.Name, p)
			}
		}
	}
}

// The traced pass reports every declared per-layer metric, its spans add
// up to the layer above, and the span file is written.
func TestTracedRunAddsUp(t *testing.T) {
	shorten(t)
	res, err := runWorkload(runOpts{Workload: "train_lenet_lowered", Seed: 3, Seconds: 0.4, Trace: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.errorRate() != 0 {
		t.Fatalf("error rate %v: %v", res.errorRate(), res.Notes)
	}
	for _, d := range perLayerTable() {
		if _, ok := res.Metrics[d.Name]; !ok {
			t.Errorf("%s not reported", d.Name)
		}
	}
	if len(res.Metrics) != len(perLayerTable()) {
		t.Errorf("%d metrics reported, %d declared", len(res.Metrics), len(perLayerTable()))
	}
	m := res.Metrics
	layerUS := m["data.fill_us"]
	for _, l := range lenetLayers {
		if m["layers.fwd_us."+l] <= 0 || m["layers.bwd_us."+l] <= 0 {
			t.Errorf("layer %s: fwd %v us, bwd %v us", l, m["layers.fwd_us."+l], m["layers.bwd_us."+l])
		}
		layerUS += m["layers.fwd_us."+l] + m["layers.bwd_us."+l]
	}
	within := func(name string, got, want float64) {
		if got < 0.95*want || got > 1.05*want {
			t.Errorf("%s: %v, want within 5%% of %v", name, got, want)
		}
	}
	within("layers + net.self (us)", layerUS+m["net.self_us"], 1e3*(m["net.forward_ms"]+m["net.backward_ms"]))
	within("... + solver.update (us)", layerUS+m["net.self_us"]+m["solver.update_us"], 1e3*m["solver.step_ms"])
	for _, name := range []string{"host.gemm_peak_gflops", "host.stream_gbps", "blas.gemm_gflops.mnist.conv2-fwd", "par.region_ns",
		"transport.tcp_rtt_us", "transport.codec_encode_gbps.int8", "snapshot.save_ms", "core.speedup_vs_seq", "solver.allocs_per_iter"} {
		if !(m[name] > 0) {
			t.Errorf("%s = %v, must be positive", name, m[name])
		}
	}
	if m["serve.batch_mean"] != 0 || m["dist.step_ms"] != 0 {
		t.Error("layers this workload does not exercise must read 0")
	}
	raw, err := os.ReadFile(res.TraceFile)
	if err != nil {
		t.Fatal(err)
	}
	var tf traceFile
	if err := json.Unmarshal(raw, &tf); err != nil || len(tf.Spans) == 0 {
		t.Fatalf("span file: %v, %d spans", err, len(tf.Spans))
	}
	byID := map[int32]span{}
	for _, s := range tf.Spans {
		byID[s.ID] = s
	}
	for _, s := range tf.Spans {
		if p, ok := byID[s.Parent]; s.Parent != 0 && (!ok || p.Trace != s.Trace || s.Start < p.Start || s.End > p.End) {
			t.Fatalf("span %+v is not inside its parent %+v", s, p)
		}
	}
}

// The serving and cluster traced passes exercise their own layers.
func TestTracedServeAndCluster(t *testing.T) {
	shorten(t)
	probe = func(*result) error { return nil } // TestTracedRunAddsUp covers the kernel probes
	t.Cleanup(func() { probe = probeKernels })
	for w, rows := range map[string][]string{
		"serve_lenet_open":  {"serve.batch_mean", "serve.forward_ms.b1", "serve.forward_ms.b32", "layers.fwd_us.conv2", "serve.latency_p99_ms"},
		"cluster_lenet_tcp": {"dist.step_ms", "dist.sync_weights_ms", "transport.grad_bytes_per_iter", "transport.frames_per_iter", "transport.recv_wait_ms_per_iter", "layers.bwd_us.conv2", "snapshot.bytes"},
	} {
		res, err := runWorkload(runOpts{Workload: w, Seed: 5, Seconds: 0.4, Trace: true})
		if err != nil {
			t.Fatalf("%s: %v", w, err)
		}
		if res.errorRate() != 0 {
			t.Errorf("%s: error rate %v: %v", w, res.errorRate(), res.Notes)
		}
		for _, name := range rows {
			if !(res.Metrics[name] > 0) {
				t.Errorf("%s: %s = %v, must be positive", w, name, res.Metrics[name])
			}
		}
	}
}

// A deliberately broken oracle must drive the error rate to 1, in each
// of the three kinds of workload, and the command must exit non-zero
// while still reporting.
func TestSelftestDrivesErrorRateToOne(t *testing.T) {
	shorten(t)
	for _, w := range []string{"train_lenet_lowered", "serve_lenet_sat", "cluster_lenet_tcp"} {
		res, err := runWorkload(runOpts{Workload: w, Seed: 7, Seconds: 0.2, Selftest: true})
		if err != nil {
			t.Fatalf("%s: %v", w, err)
		}
		if res.errorRate() != 1 {
			t.Errorf("%s: error rate %v under -selftest, want 1 (phases %+v)", w, res.errorRate(), res.Phases)
		}
	}
	var out, errb bytes.Buffer
	if code := run([]string{"-workload", "serve_lenet_open", "-seconds", "0.2", "-selftest"}, &out, &errb); code == 0 {
		t.Error("exit code 0 under -selftest")
	}
	if c := lastLine(t, out.String()); *c.Correct || *c.Failed != *c.Attempted {
		t.Errorf("contract object under -selftest: correct=%v failed=%d attempted=%d", *c.Correct, *c.Failed, *c.Attempted)
	}
}

// The driver's form of the command: double-dash flags, -trace with a
// value, one object with exactly the contract's keys on the last line.
func TestDriverCommandLine(t *testing.T) {
	shorten(t)
	var out, errb bytes.Buffer
	code := run([]string{"--workload", "cluster_lenet_tcp", "--seed", "11", "--seconds", "0.3", "--trace", "0"}, &out, &errb)
	if code != 0 {
		t.Fatalf("exit code %d: %s", code, errb.String())
	}
	c := lastLine(t, out.String())
	if !*c.Correct || *c.Failed != 0 || *c.Attempted < 1 {
		t.Errorf("correct=%v attempted=%d failed=%d", *c.Correct, *c.Attempted, *c.Failed)
	}
	if len(c.Metrics) != len(endToEndTable) {
		t.Errorf("%d metrics, want %d", len(c.Metrics), len(endToEndTable))
	}
	for _, d := range endToEndTable {
		m, ok := c.Metrics[d.Name]
		if !ok || m.Value == nil || m.Unit == nil || *m.Unit != d.Unit || !(*m.Value > 0) {
			t.Errorf("metric %s: %+v", d.Name, m)
		}
	}
	for _, d := range endToEndTable {
		if !strings.Contains(out.String(), "cluster_lenet_tcp "+d.Name+" ") {
			t.Errorf("no `workload metric value unit` line for %s", d.Name)
		}
	}
	if code := run([]string{"--workload", "no_such", "--seconds", "0.1"}, &out, &errb); code == 0 {
		t.Error("unknown workload must fail")
	}
}

// A window's figures are scaled to reference host speed: a stretch of the
// window that the host ran 1.7x slow, as the canary saw, leaves them
// alone; a change that slows every operation while the canary holds
// still moves them one for one; failed operations count for nothing.
func TestSummarizeWindow(t *testing.T) {
	ms := time.Millisecond
	// build lays 200 back-to-back operations of 64 images each, with a
	// canary reading before each one that ran `slow(i)` times the
	// reference.
	build := func(dur func(i int) time.Duration, slow func(i int) float64) ([]op, *meter) {
		var ops []op
		m := newMeter(time.Now(), 2)
		at := time.Duration(0)
		for i := 0; i < 200; i++ {
			m.at, m.ms = append(m.at, at), append(m.ms, canaryRefMS(2)*slow(i))
			d := dur(i)
			ops = append(ops, op{start: at, end: at + d, work: 64})
			at += d
		}
		m.at, m.ms = append(m.at, at), append(m.ms, canaryRefMS(2)*slow(199))
		return ops, m
	}
	steady := func(int) float64 { return 1 }
	flat := summarizeWindow(build(func(int) time.Duration { return 50 * ms }, steady))
	if !near(flat.p50, 50) || !near(flat.p95, 50) || !near(flat.rate, 64/0.05) || flat.segments != maxSegments || !near(flat.slowdown, 1) {
		t.Errorf("flat window: %+v", flat)
	}
	hit := func(i int) bool { return i >= 40 && i < 160 } // three fifths of the window
	busy := summarizeWindow(build(
		func(i int) time.Duration {
			if hit(i) {
				return 85 * ms
			}
			return 50 * ms
		},
		func(i int) float64 {
			if hit(i) {
				return 1.7
			}
			return 1
		}))
	if !near(busy.p50, 50) || !near(busy.rate, 64/0.05) || !near(busy.rawP50, 85) || !near(busy.slowdown, 1.7) {
		t.Errorf("a host 1.7x slow for 60%% of the window moved the scaled figures: %+v", busy)
	}
	slow := summarizeWindow(build(func(int) time.Duration { return 55 * ms }, steady))
	if !near(slow.p50, 55) || !near(slow.rate, 64/0.055) {
		t.Errorf("a 10%% slowdown of every operation must show in full: %+v", slow)
	}
	ops, m := build(func(int) time.Duration { return 50 * ms }, steady)
	for i := range ops {
		if i%2 == 1 {
			ops[i].work = 0 // a failed operation has no work and no latency
			ops[i].start = ops[i].end - time.Hour
		}
	}
	half := summarizeWindow(ops, m)
	if !near(half.rate, 32/0.05) || !near(half.p95, 50) {
		t.Errorf("half the operations failed: %+v", half)
	}
	// A timer's share of an operation is not the host's doing and is not
	// scaled: 2 ms of deadline plus 3 ms of work on a host 1.5x slow is 2 ms
	// plus 2 ms at reference speed.
	waited, wm := build(func(int) time.Duration { return 5 * ms }, func(int) float64 { return 1.5 })
	for i := range waited {
		waited[i].wait = 2 * ms
	}
	if w := summarizeWindow(waited, wm); !near(w.p50, 4) || !near(w.rawP50, 5) {
		t.Errorf("an operation that sits out a 2 ms timer: %+v", w)
	}
	if one := summarizeWindow([]op{{end: 10 * ms, work: 1}}, nil); one.segments != 1 || !near(one.p50, 10) || !near(one.rate, 100) {
		t.Errorf("single operation, no meter: %+v", one)
	}
}

func TestMeterFactor(t *testing.T) {
	ms := time.Millisecond
	m := newMeter(time.Now(), 1)
	for i, v := range []float64{1, 1, 2, 4, 2, 1} { // x the reference, one reading every 10 ms
		m.at, m.ms = append(m.at, time.Duration(i)*10*ms), append(m.ms, v*canaryRefMS(1))
	}
	for _, c := range []struct {
		from, to time.Duration
		want     float64
	}{
		{0, 50 * ms, 1.5},     // all six: median of 1 1 1 2 2 4
		{19 * ms, 41 * ms, 2}, // readings at 20, 30, 40: 2 4 2
		{23 * ms, 27 * ms, 3}, // none inside: the neighbours at 20 and 30
		{30 * ms, 30 * ms, 4}, // the slack takes in the reading at 30 only
		{70 * ms, 90 * ms, 1}, // past the end: the last reading
	} {
		if got := m.factor(c.from, c.to); !near(got, c.want) {
			t.Errorf("factor(%v, %v) = %v, want %v", c.from, c.to, got, c.want)
		}
	}
	if got := newMeter(time.Now(), 1).factor(0, time.Second); got != 1 {
		t.Errorf("empty meter: %v", got)
	}
	var none *meter
	if got := none.factor(0, time.Second); got != 1 {
		t.Errorf("no meter: %v", got)
	}
	if one, wide := canary(1), canary(4); !(one > 0) || !(wide > 0) {
		t.Errorf("canary(1) = %v ms, canary(4) = %v ms", one, wide)
	}
	stop := m.every()
	time.Sleep(3 * meterPeriod)
	stop()
	if len(m.ms) <= 6 {
		t.Error("the periodic sampler took no reading")
	}
}
