// Command benchmark is the repository's end-to-end and per-layer
// benchmark for training (dnntrain's stack), serving (dnnserve's) and the
// cluster trainer (dnncluster's). BENCHMARK.json at the repository root
// declares it; README.md in this directory explains every row.
//
//	go run -C benchmark . -seed 1                    every workload, end to end
//	go run -C benchmark . -seed 1 -trace 1           every workload, per layer
//	go run -C benchmark . -workload X -seed 1 -seconds 10 -trace 0   one run (the driver's form)
//	go run -C benchmark . -calibrate 10              measure spreads, write bounds
//	go run -C benchmark . -compare old.json new.json
//	go run -C benchmark . -doc                       README tables
//
// Every number is taken from outside: the program times calls into each
// package's public functions and wraps engines and transports in
// decorators of its own; nothing inside the measured packages is
// instrumented.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		workload  = fs.String("workload", "", "run this one workload in this process and print its result object last")
		seed      = fs.Int64("seed", 1, "seed of every generated input: data, weights, arrival schedule, request choice")
		seconds   = fs.Float64("seconds", 0, "measurement window per run (default: run_seconds of BENCHMARK.json)")
		trace     = fs.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from the traced pass")
		selftest  = fs.Bool("selftest", false, "corrupt the correctness reference: error rate must reach 1 and the exit code be non-zero")
		runs      = fs.Int("runs", 1, "repeat the full set this many times, seeds seed..seed+runs-1")
		calibrate = fs.Int("calibrate", 0, "run the full set N (>= 3) times and write the derived bounds into BENCHMARK.json")
		compare   = fs.Bool("compare", false, "compare two result files: -compare old.json new.json")
		doc       = fs.Bool("doc", false, "print the README tables generated from BENCHMARK.json")
		out       = fs.String("out", filepath.Join(outDir, "BENCH.json"), "result file of a full-set run")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	m, err := loadManifest(manifestPath)
	if err != nil {
		return fail(err)
	}
	if errs := checkManifest(m); len(errs) > 0 {
		return fail(fmt.Errorf("BENCHMARK.json and the program disagree:\n  %s", strings.Join(errs, "\n  ")))
	}
	if *seconds == 0 {
		*seconds = float64(m.RunSeconds)
	}
	runtime.GOMAXPROCS(hostP())

	switch {
	case *doc:
		fmt.Fprint(stdout, docTables(m))
		return 0
	case *compare:
		if fs.NArg() != 2 {
			return fail(fmt.Errorf("-compare needs two result files"))
		}
		return compareFiles(fs.Arg(0), fs.Arg(1), m, stdout, stderr)
	case *workload != "":
		res, err := runWorkload(runOpts{Workload: *workload, Seed: *seed, Seconds: *seconds, Trace: *trace != 0, Selftest: *selftest})
		if err != nil {
			return fail(err)
		}
		res.print(stdout, unitTable())
		if _, failed := res.counts(); failed > 0 {
			return 1
		}
		return 0
	}

	if *calibrate != 0 {
		if *calibrate < 3 {
			return fail(fmt.Errorf("-calibrate needs at least 3 runs"))
		}
		*runs = *calibrate
	}
	file, err := runSet(m, *seed, *seconds, *runs, *trace != 0, *selftest, stdout, stderr)
	if err != nil {
		return fail(err)
	}
	if err := writeJSON(*out, file); err != nil {
		return fail(err)
	}
	fmt.Fprintf(stdout, "result file: %s\n", *out)
	if *calibrate != 0 {
		applyBounds(&m, file, stdout)
		if err := writeManifest(manifestPath, m); err != nil {
			return fail(err)
		}
		if err := rewriteReadme(m); err != nil {
			return fail(err)
		}
		fmt.Fprintf(stdout, "bounds written to %s and README.md\n", manifestPath)
	}
	if file.failed() {
		fmt.Fprintln(stderr, "benchmark: an oracle failed")
		return 1
	}
	return 0
}

// runWorkload dispatches one run by workload name.
func runWorkload(o runOpts) (*result, error) {
	switch {
	case trainCfgs[o.Workload] != (trainCfg{}):
		return runTrain(o)
	case o.Workload == "serve_lenet_open" || o.Workload == "serve_lenet_sat":
		return runServe(o)
	case o.Workload == "cluster_lenet_tcp":
		return runCluster(o)
	}
	return nil, fmt.Errorf("unknown workload %q", o.Workload)
}

// fingerprint identifies the host and the commit a result file describes.
type fingerprint struct {
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	GOOS       string  `json:"goos"`
	GOARCH     string  `json:"goarch"`
	Commit     string  `json:"commit"`
	GemmKernel string  `json:"gemm_kernel"`
	GemmPeak   float64 `json:"gemm_peak_gflops"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"window_seconds"`
	Runs       int     `json:"runs"`
}

// avx2Threshold separates the two GEMM micro-kernels by what they can do:
// the scalar kernel stays under 3 GFLOP/s on one core of any current
// host, the AVX2+FMA one is above 10.
const avx2Threshold = 6.0

func newFingerprint(seed int64, seconds float64, runs int) fingerprint {
	peak := gemmPeakGFLOPS()
	kernel := "scalar"
	if peak > avx2Threshold {
		kernel = "avx2"
	}
	commit := "unknown"
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		commit = strings.TrimSpace(string(out))
	}
	return fingerprint{
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		GOOS: runtime.GOOS, GOARCH: runtime.GOARCH, Commit: commit,
		GemmKernel: kernel, GemmPeak: peak, Seed: seed, Seconds: seconds, Runs: runs,
	}
}

// summary is one (workload, metric) pair over the runs of a result file.
type summary struct {
	Values []float64 `json:"values"`
	Median float64   `json:"median"`
	Q1     float64   `json:"q1"`
	Q3     float64   `json:"q3"`
	// Spread is (Q3-Q1)/median, the run-to-run noise bounds are read
	// against.
	Spread float64 `json:"spread"`
}

func summarize(values []float64) summary {
	q1, q3 := quartiles(values)
	return summary{Values: values, Median: median(values), Q1: q1, Q3: q3, Spread: spread(values)}
}

// runRecord is one run as a result file keeps it: what the run's last
// output line said.
type runRecord struct {
	Seed      int64              `json:"seed"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Metrics   map[string]float64 `json:"metrics"`
}

// workloadRuns is every run of one workload in a result file.
type workloadRuns struct {
	Workload  string             `json:"workload"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	ErrorRate float64            `json:"error_rate"`
	Summary   map[string]summary `json:"summary"`
	Runs      []runRecord        `json:"runs"`
}

// resultFile is what a full-set run writes.
type resultFile struct {
	Fingerprint fingerprint     `json:"fingerprint"`
	Workloads   []*workloadRuns `json:"workloads"`
}

func (f *resultFile) failed() bool {
	for _, w := range f.Workloads {
		if w.Failed > 0 || w.Attempted == 0 {
			return true
		}
	}
	return false
}

func (f *resultFile) workload(name string) *workloadRuns {
	for _, w := range f.Workloads {
		if w.Workload == name {
			return w
		}
	}
	return nil
}

// runSet runs every workload `runs` times, each run in a child process of
// its own so peak RSS and GC state start clean.
func runSet(m manifest, seed int64, seconds float64, runs int, trace, selftest bool, stdout, stderr io.Writer) (*resultFile, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	file := &resultFile{Fingerprint: newFingerprint(seed, seconds, runs)}
	fp, _ := json.Marshal(file.Fingerprint)
	fmt.Fprintf(stdout, "host %s\n", fp)
	for _, w := range m.Workloads {
		file.Workloads = append(file.Workloads, &workloadRuns{Workload: w.Name, Summary: map[string]summary{}})
	}
	for r := 0; r < runs; r++ {
		for _, wr := range file.Workloads {
			runSeed := seed + int64(r)
			args := []string{"-workload", wr.Workload, "-seed", strconv.FormatInt(runSeed, 10),
				"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace", "0"}
			if trace {
				args[len(args)-1] = "1"
			}
			if selftest {
				args = append(args, "-selftest")
			}
			rec, err := runChild(exe, args, stdout, stderr)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", wr.Workload, err)
			}
			rec.Seed = runSeed
			wr.Runs = append(wr.Runs, rec)
			wr.Attempted += rec.Attempted
			wr.Failed += rec.Failed
		}
	}
	for _, wr := range file.Workloads {
		if wr.Attempted > 0 {
			wr.ErrorRate = float64(wr.Failed) / float64(wr.Attempted)
		}
		values := map[string][]float64{}
		for _, rec := range wr.Runs {
			for name, v := range rec.Metrics {
				values[name] = append(values[name], v)
			}
		}
		for name, vs := range values {
			wr.Summary[name] = summarize(vs)
		}
	}
	return file, nil
}

// runChild runs one workload in a child process, echoes its report, and
// returns what its last line — the contract object — said. A child that
// found an oracle failure exits 1 but still reports; any other failure is
// an error.
func runChild(exe string, args []string, stdout, stderr io.Writer) (runRecord, error) {
	cmd := exec.Command(exe, args...)
	cmd.Stderr = stderr
	out, runErr := cmd.Output()
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	last := lines[len(lines)-1]
	var c struct {
		Attempted int                       `json:"attempted"`
		Failed    int                       `json:"failed"`
		Metrics   map[string]contractMetric `json:"metrics"`
	}
	if err := json.Unmarshal([]byte(last), &c); err != nil || c.Metrics == nil {
		return runRecord{}, fmt.Errorf("child printed no result (%v)", runErr)
	}
	fmt.Fprintln(stdout, strings.Join(lines[:len(lines)-1], "\n"))
	rec := runRecord{Attempted: c.Attempted, Failed: c.Failed, Metrics: map[string]float64{}}
	for name, m := range c.Metrics {
		rec.Metrics[name] = m.Value
	}
	return rec, nil
}

func writeJSON(path string, v any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	raw, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(raw, '\n'), 0o644)
}

func readResultFile(path string) (*resultFile, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	f := &resultFile{}
	if err := json.Unmarshal(raw, f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return f, nil
}
