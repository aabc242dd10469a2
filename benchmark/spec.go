package main

import (
	"encoding/json"
	"fmt"
	"os"
	"regexp"
	"sort"
	"strings"

	"coarsegrain/internal/bench"
)

// manifestPath is BENCHMARK.json as seen from the benchmark's own
// directory, which is where `go run -C benchmark .` and `go test` run.
const manifestPath = "../BENCHMARK.json"

// workloadSpec is one entry of BENCHMARK.json's "workloads".
type workloadSpec struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

// endToEndSpec is one gated metric; Bound is the share of the parent's
// median by which it may get worse before a change counts as a regression.
type endToEndSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// perLayerSpec is one ungated diagnostic metric of a single layer.
type perLayerSpec struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// manifest mirrors BENCHMARK.json key for key.
type manifest struct {
	Command    []string       `json:"command"`
	Paths      []string       `json:"paths"`
	RunSeconds int            `json:"run_seconds"`
	Workloads  []workloadSpec `json:"workloads"`
	EndToEnd   []endToEndSpec `json:"end_to_end"`
	PerLayer   []perLayerSpec `json:"per_layer"`
}

const (
	lower  = "lower"
	higher = "higher"
)

// metricDoc is what the program knows about a metric beyond what
// BENCHMARK.json may hold: what it measures and which end-to-end row it
// is predicted to move (README tables are generated from these).
type metricDoc struct {
	Name, Unit, Better string
	// Floor is the smallest regression bound calibration may write
	// (end-to-end metrics only).
	Floor float64
	What  string
	Moves string
}

var workloadTable = []workloadSpec{
	{"train_lenet_lowered", "LeNet batch 64, coarse(P), im2col+GEMM conv: the fast training path, where blas.Gemm and blas.Im2col do most of the work."},
	{"train_lenet_direct", "Same net with the paper's direct loop-nest conv (dnntrain's default): almost no GEMM, so it is the control that kernel changes must not move."},
	{"train_cifar_lowered", "CIFAR-10-full batch 100, coarse(P), lowered: skinny GEMMs, LRN and AVE-pool, 6x the activations and a fifth of the parameters of LeNet."},
	{"serve_lenet_open", "serve.Server at defaults under an open loop of 400 req/s with seeded exponential gaps: deadline-flush path, batches of 1-3, latency from the due time."},
	{"serve_lenet_sat", "Same server under a closed loop of 64 parked callers: full-flush path, batch near 32, forward time dominates; the capacity workload."},
	{"cluster_lenet_tcp", "dist root+workers, k=P ranks over loopback TCP, tree, f32, overlap on, global batch 16: small compute so dist and transport are a large share of the step."},
}

// endToEndTable is every gated metric; every workload reports all of
// them, so each is defined for training, serving and the cluster alike.
var endToEndTable = []metricDoc{
	{Name: "setup_s", Unit: "s", Better: lower, Floor: 0.25,
		What: "time from nothing to the first completed operation (build + first Step; New + Start + first Do; rendezvous + build + first lock-step Step); median of 9 to 15 fresh set-ups per run, each scaled to reference host speed"},
	{Name: "images_per_s", Unit: "images/s", Better: higher, Floor: 0.05,
		What: "samples processed per second: global batch x iterations for train_* and cluster_*, bit-correct responses for serve_* (one image per request); scaled to reference host speed, per window segment, median over the segments (unscaled and over the whole window for the open loop, whose offered load the clock fixes)"},
	{Name: "latency_p50_ms", Unit: "ms", Better: lower, Floor: 0.05,
		What: "median time of one operation: one Step(1) for train_* and cluster_*, one request for serve_* (from its due time in the open loop); scaled to reference host speed, per window segment, median over the segments"},
	{Name: "latency_p95_ms", Unit: "ms", Better: lower, Floor: 0.10,
		What: "95th percentile of the same per-operation time, taken the same way"},
	{Name: "peak_rss_mb", Unit: "MB", Better: lower, Floor: 0.05,
		What: "peak resident set of the workload's own process (ru_maxrss, the kernel's VmHWM) when the window closes, in MiB: one stack plus the window, without the oracle's reference stack"},
}

// lenetLayers and cifarLayers are the non-data layer names of the two zoo
// nets; their union keys the layers.* metrics.
var (
	lenetLayers = []string{"conv1", "pool1", "conv2", "pool2", "ip1", "relu1", "ip2", "loss"}
	cifarLayers = []string{"conv1", "pool1", "relu1", "norm1", "conv2", "relu2", "pool2", "norm2", "conv3", "relu3", "pool3", "ip1", "loss"}
)

func layerUnion() []string {
	seen := map[string]bool{}
	var out []string
	for _, l := range append(append([]string(nil), lenetLayers...), cifarLayers...) {
		if !seen[l] {
			seen[l] = true
			out = append(out, l)
		}
	}
	return out
}

// perLayerTable builds the per-layer metric list. A metric a workload does
// not exercise is reported as 0 on that workload.
func perLayerTable() []metricDoc {
	var t []metricDoc
	add := func(name, unit, better, what, moves string) {
		t = append(t, metricDoc{Name: name, Unit: unit, Better: better, What: what, Moves: moves})
	}
	const roof = "nothing: it is the roof the rows below are divided by"
	add("host.nproc", "count", higher, "logical CPUs; P = min(nproc, 4) sizes GOMAXPROCS, workers, ranks", roof)
	add("host.stream_gbps", "GB/s", higher, "triad a=b+s*c over three 32 MiB float32 arrays on P goroutines (bytes computed: 12 per element)", roof)
	add("host.gemm_peak_gflops", "GFLOP/s", higher, "best blas.Gemm rate on a cache-resident 192^3, one thread; >6 means the AVX2 micro-kernel was selected", roof)
	add("host.timer_ns", "ns", lower, "cost of one time.Now/time.Since pair, the floor under every span", roof)
	add("host.slowdown_x", "x", lower, "median canary time during the traced window over the reference host's: the per-layer times below are raw, and were stretched by this factor", "nothing: divide the rows below by it to compare two traced runs")

	const blasMoves = "images_per_s on train_lenet_lowered / train_cifar_lowered and serve_lenet_sat; no move on train_lenet_direct"
	for _, netName := range []string{"mnist", "cifar"} {
		for _, s := range bench.NetGemmShapes(netName) {
			add("blas.gemm_gflops."+netName+"."+s.Name, "GFLOP/s", higher,
				fmt.Sprintf("blas.Gemm at M=%d N=%d K=%d, one thread", s.M, s.N, s.K), blasMoves)
			add("blas.gemm_roof_pct."+netName+"."+s.Name, "%", higher,
				"the same rate as a share of host.gemm_peak_gflops", blasMoves)
		}
		add("blas.im2col_gbps."+netName+".conv2", "GB/s", higher, "blas.Im2col on conv2's input (bytes computed from shapes: image read + column matrix written)", blasMoves)
		add("blas.col2im_gbps."+netName+".conv2", "GB/s", higher, "blas.Col2im on the same shapes (bytes computed)", blasMoves)
	}

	const parMoves = "latency_p50_ms on both train_lenet_* (about 20 fork/joins and one ordered reduce per iteration); no move on serve_*, cluster_*"
	add("par.region_ns", "ns", lower, "empty par.Pool.Region fork/join at P", parMoves)
	add("par.for_ns", "ns", lower, "empty par.Pool.For fork/join at P", parMoves)
	add("par.ordered_slices_us", "us", lower, "par.Pool.OrderedSlices folding P private copies of 431080 elements (LeNet's parameter count)", parMoves)

	for _, l := range layerUnion() {
		add("layers.fwd_us."+l, "us", lower, "mean engine.Forward span of layer "+l+" (paper Fig. 4/7)", "the workload's images_per_s; conv2 is the dominant share on every training workload")
	}
	for _, l := range layerUnion() {
		add("layers.bwd_us."+l, "us", lower, "mean engine.Backward span of layer "+l, "the workload's images_per_s")
	}
	add("data.fill_us", "us", lower, "mean forward span of the data layer: the serial batch load, the paper's Amdahl term", "images_per_s on train_lenet_lowered (largest share there)")
	add("data.share_pct", "%", lower, "data.fill_us as a share of the iteration", "grows as P grows")

	add("core.speedup_vs_seq", "x", higher, "sequential-engine iteration time (from the oracle run) over coarse(P) iteration time", "images_per_s on train_*")
	add("core.parallel_efficiency", "x", higher, "core.speedup_vs_seq / P", "images_per_s on train_*")
	add("core.scratch_mb", "MB", lower, "Engine.ScratchBytes: privatized gradient storage (paper 3.2.1), MiB", "peak_rss_mb on train_lenet_*")

	add("net.forward_ms", "ms", lower, "mean n.Forward() span", "latency_p50_ms on train_*")
	add("net.backward_ms", "ms", lower, "mean n.Backward() span", "latency_p50_ms on train_*")
	add("net.self_us", "us", lower, "Forward+Backward minus the engine spans they contain", "latency_p50_ms on train_*")

	add("solver.step_ms", "ms", lower, "mean traced iteration (zero diffs, forward, backward, update)", "latency_p50_ms on train_*")
	add("solver.update_us", "us", lower, "iteration self time: zero diffs + regularise + update", "latency_p50_ms on train_lenet_lowered (largest self-time share)")
	add("solver.allocs_per_iter", "count", lower, "heap allocations per untraced Step(1) (MemStats.Mallocs delta)", "latency_p95_ms via GC")
	add("solver.iter_ms_p95", "ms", lower, "95th percentile traced iteration", "diagnostic; not gated")
	add("solver.iter_cv_pct", "%", lower, "coefficient of variation of traced iterations", "diagnostic; not gated")

	const snapMoves = "none of the gated rows (runs after the window)"
	add("snapshot.save_ms", "ms", lower, "median snapshot.SaveCheckpoint of the live solver", snapMoves)
	add("snapshot.load_ms", "ms", lower, "median snapshot.LoadLatestValid", snapMoves)
	add("snapshot.bytes", "bytes", lower, "checkpoint file size", snapMoves)

	add("serve.batch_mean", "count", higher, "Stats.MeanBatch over the window", "up: images_per_s on serve_lenet_sat; up: latency_p50_ms on serve_lenet_open gets worse")
	add("serve.full_flush_share", "x", higher, "full flushes / batches", "near 1 on serve_lenet_sat, near 0 on serve_lenet_open")
	add("serve.forward_ms.b1", "ms", lower, "stand-alone forward-only net at batch 1", "latency_p50_ms on serve_lenet_open")
	add("serve.forward_ms.b8", "ms", lower, "stand-alone forward-only net at batch 8", "both serve_*")
	add("serve.forward_ms.b32", "ms", lower, "stand-alone forward-only net at batch 32", "images_per_s on serve_lenet_sat")
	add("serve.wait_ms_p50", "ms", lower, "median Do latency minus forward time at the mean batch: queue + batch wait", "latency_p50_ms on serve_lenet_open")
	add("serve.http_overhead_us", "us", lower, "Handler().ServeHTTP on /v1/tensor (httptest) minus Do, medians", "none of the in-process rows; dnnserve's wire cost")
	add("serve.allocs_per_req", "count", lower, "heap allocations per sequential Do", "latency_p95_ms via GC")
	add("serve.rejected_share", "x", lower, "Stats.Rejected / submissions", "stays 0 on both workloads")
	add("serve.latency_p99_ms", "ms", lower, "99th percentile request latency", "diagnostic; not gated")

	const wireMoves = "latency_p50_ms on cluster_lenet_tcp only"
	add("transport.tcp_rtt_us", "us", lower, "1-word frame ping-pong over loopback TCP", wireMoves)
	add("transport.tcp_gbps", "GB/s", higher, "431080-word frame one way over loopback TCP (payload bytes)", wireMoves)
	add("transport.local_rtt_us", "us", lower, "1-word frame ping-pong over transport.Local", wireMoves)
	for _, c := range []string{"f16", "int8"} {
		add("transport.codec_encode_gbps."+c, "GB/s", higher, "Codec.Encode of 431080 f32 (source bytes)", wireMoves)
		add("transport.codec_decode_gbps."+c, "GB/s", higher, "Codec.Decode to 431080 f32 (decoded bytes)", wireMoves)
	}
	add("transport.grad_bytes_per_iter", "bytes", lower, "Meter.GradBytes summed over ranks per iteration; an exact count that repeats", "moves with the wire format; predicted not to move latency_p50_ms on loopback")
	add("transport.frames_per_iter", "count", lower, "data-plane frames sent per iteration, all ranks", wireMoves)
	add("transport.send_ms_per_iter", "ms", lower, "time inside Send per iteration, mean over ranks", wireMoves)
	add("transport.recv_wait_ms_per_iter", "ms", lower, "time blocked in Recv per iteration, mean over ranks", wireMoves)

	add("dist.step_ms", "ms", lower, "mean lock-step Node.Step(1), all ranks", "images_per_s on cluster_lenet_tcp")
	add("dist.comm_share_pct", "%", lower, "1 - stand-alone per-rank forward+backward / step: exchange not hidden behind backward", "images_per_s on cluster_lenet_tcp")
	add("dist.scaling_efficiency", "x", higher, "k-rank images/s over k x one rank's solver.Step at the same local batch", "images_per_s on cluster_lenet_tcp")
	add("dist.sync_weights_ms", "ms", lower, "median Node.SyncWeights across the group", "setup_s after a fence or resume")

	add("bench.trace_overhead_pct", "%", lower, "traced window's median operation time over the untraced reference window's, minus one", "the cost of the instrument itself")
	add("bench.gen_late_p95_ms", "ms", lower, "how late the open-loop generator fired, 95th percentile", "above ~1 ms the open-loop latencies are the generator's, not the server's")
	add("bench.error_rate", "x", lower, "failed / attempted operations over every phase", "must stay 0")
	return t
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// defaultManifest is BENCHMARK.json as the code tables define it, with
// every bound at its floor.
func defaultManifest() manifest {
	m := manifest{
		Command:    []string{"go", "run", "-C", "benchmark", "."},
		Paths:      []string{"benchmark"},
		RunSeconds: 12,
		Workloads:  workloadTable,
	}
	for _, d := range endToEndTable {
		m.EndToEnd = append(m.EndToEnd, endToEndSpec{Name: d.Name, Unit: d.Unit, Better: d.Better, Bound: d.Floor})
	}
	for _, d := range perLayerTable() {
		m.PerLayer = append(m.PerLayer, perLayerSpec{Name: d.Name, Unit: d.Unit, Better: d.Better})
	}
	return m
}

func loadManifest(path string) (manifest, error) {
	var m manifest
	raw, err := os.ReadFile(path)
	if err != nil {
		return m, err
	}
	dec := json.NewDecoder(strings.NewReader(string(raw)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&m); err != nil {
		return m, fmt.Errorf("%s: %w", path, err)
	}
	return m, nil
}

func writeManifest(path string, m manifest) error {
	raw, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(raw, '\n'), 0o644)
}

// checkManifest reports every way m departs from the code tables: a
// metric the program prints but the file does not declare, or the other
// way round, a unit or direction that differs, a malformed name.
func checkManifest(m manifest) []string {
	var errs []string
	bad := func(format string, a ...any) { errs = append(errs, fmt.Sprintf(format, a...)) }
	names := map[string]bool{}
	use := func(n string) {
		if !nameRE.MatchString(n) {
			bad("name %q is malformed", n)
		}
		if names[n] {
			bad("name %q is used twice", n)
		}
		names[n] = true
	}
	if len(m.Workloads) != len(workloadTable) {
		bad("workloads: file has %d, code has %d", len(m.Workloads), len(workloadTable))
	}
	for i, w := range m.Workloads {
		use(w.Name)
		if i < len(workloadTable) && w != workloadTable[i] {
			bad("workload %d: file has %+v, code has %+v", i, w, workloadTable[i])
		}
	}
	e2e := map[string]metricDoc{}
	for _, d := range endToEndTable {
		e2e[d.Name] = d
	}
	for _, s := range m.EndToEnd {
		use(s.Name)
		d, ok := e2e[s.Name]
		switch {
		case !ok:
			bad("end_to_end %q is declared but never printed", s.Name)
		case s.Unit != d.Unit || s.Better != d.Better:
			bad("end_to_end %q: file says %s/%s, code says %s/%s", s.Name, s.Unit, s.Better, d.Unit, d.Better)
		case s.Bound < d.Floor || s.Bound > 0.25:
			bad("end_to_end %q: bound %g outside [%g, 0.25]", s.Name, s.Bound, d.Floor)
		}
		delete(e2e, s.Name)
	}
	per := map[string]metricDoc{}
	for _, d := range perLayerTable() {
		per[d.Name] = d
	}
	for _, s := range m.PerLayer {
		use(s.Name)
		d, ok := per[s.Name]
		switch {
		case !ok:
			bad("per_layer %q is declared but never printed", s.Name)
		case s.Unit != d.Unit || s.Better != d.Better:
			bad("per_layer %q: file says %s/%s, code says %s/%s", s.Name, s.Unit, s.Better, d.Unit, d.Better)
		}
		delete(per, s.Name)
	}
	var missing []string
	for n := range e2e {
		missing = append(missing, n)
	}
	for n := range per {
		missing = append(missing, n)
	}
	sort.Strings(missing)
	for _, n := range missing {
		bad("metric %q is printed but not declared", n)
	}
	if len(m.PerLayer) > 128 || len(m.EndToEnd) > 16 || len(m.Workloads) > 8 {
		bad("too many entries: %d workloads, %d end_to_end, %d per_layer", len(m.Workloads), len(m.EndToEnd), len(m.PerLayer))
	}
	return errs
}
