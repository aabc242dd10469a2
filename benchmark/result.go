package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// hostP is the parallelism every workload runs at: GOMAXPROCS, the coarse
// engine's worker team and the cluster's rank count.
func hostP() int { return min(runtime.NumCPU(), 4) }

// runOpts is one workload run's input.
type runOpts struct {
	Workload string
	Seed     int64
	// Seconds is the measurement window.
	Seconds float64
	// Trace selects the per-layer pass instead of the end-to-end pass.
	Trace bool
	// Selftest corrupts the correctness reference, which must drive the
	// error rate to 1.
	Selftest bool
}

func (o runOpts) window() time.Duration { return time.Duration(o.Seconds * float64(time.Second)) }

// phaseCount is the failure accounting of one phase of a run.
type phaseCount struct {
	Phase                        string
	Attempted, Succeeded, Failed int
}

// result is everything one workload run produced.
type result struct {
	Workload string
	Phases   []phaseCount
	// Metrics holds every end-to-end metric (untraced run) or every
	// per-layer metric (traced run).
	Metrics map[string]float64
	// Samples is the sample count behind each timing metric.
	Samples   map[string]int
	TraceFile string
	// Notes are cross-checks a reader should see (e.g. span sums against
	// the layer above).
	Notes []string

	oracleFailed bool
}

func newResult(o runOpts) *result {
	return &result{Workload: o.Workload, Metrics: map[string]float64{}, Samples: map[string]int{}}
}

func (r *result) phase(name string, attempted, failed int) {
	if r.oracleFailed {
		failed = attempted
	}
	r.Phases = append(r.Phases, phaseCount{Phase: name, Attempted: attempted, Succeeded: attempted - failed, Failed: failed})
}

// failOracle records that the run's outputs differ from the reference.
// Every operation of the run then counts as failed, because none of them
// can be told from a wrong one; the oracle is judged before any phase is
// recorded.
func (r *result) failOracle(why string) {
	r.oracleFailed = true
	r.Notes = append(r.Notes, "oracle: "+why)
}

func (r *result) counts() (attempted, failed int) {
	for _, p := range r.Phases {
		attempted += p.Attempted
		failed += p.Failed
	}
	return attempted, failed
}

func (r *result) errorRate() float64 {
	a, f := r.counts()
	if a == 0 {
		return 1
	}
	return float64(f) / float64(a)
}

// set records a metric with the number of samples behind it.
func (r *result) set(name string, v float64, samples int) {
	if !finite(v) {
		v = 0 // a ratio over an empty window; JSON has no NaN
	}
	r.Metrics[name] = v
	if samples > 0 {
		r.Samples[name] = samples
	}
}

// setEndToEnd records every end-to-end metric of an untraced run. rssMiB
// is the resident-set peak read when the window closed, before the oracle
// and the remaining set-ups built anything more.
func (r *result) setEndToEnd(su *setups, ws windowStats, ops int, rssMiB float64) {
	r.set("setup_s", median(su.secs), len(su.secs))
	r.set("images_per_s", ws.rate, ops)
	r.set("latency_p50_ms", ws.p50, ops)
	r.set("latency_p95_ms", ws.p95, ops)
	r.set("peak_rss_mb", rssMiB, 0)
	r.Notes = append(r.Notes, fmt.Sprintf(
		"host ran %.2fx slower than the reference during the window; unscaled: %.6g images/s, p50 %.6g ms, p95 %.6g ms, set-up %.6g s",
		ws.slowdown, ws.rawRate, ws.rawP50, ws.rawP95, median(su.raw)))
}

// setupPlan says how often set-up is repeated: until it has run min times
// and taken budget in all, and at most max times, so cheap set-ups get
// more repeats, which is what steadies them. Tests shorten it.
var setupPlan = struct {
	min, max int
	budget   time.Duration
}{min: 9, max: 15, budget: 3 * time.Second}

// setups times a run's set-ups. The first one builds the stack the run
// goes on to measure. The rest come after the window has closed and its
// memory peak has been read, so that neither they nor the oracle's second
// stack show up in peak_rss_mb: each builds a fresh stack, completes the
// first operation, and is torn down again untimed. A canary reading
// before and after each set-up scales it to reference host speed.
type setups struct {
	// threads is how wide the canary readings are: as wide as the set-up's
	// own work (P for a training stack's first step, 1 for a server).
	threads   int
	secs, raw []float64
	failed    int
	m         *meter
}

// time runs build between two canary readings and records its seconds.
func (s *setups) time(build func() error) error {
	if s.m == nil {
		s.m = newMeter(time.Now(), s.threads)
	}
	s.m.sample()
	t0 := time.Since(s.m.epoch)
	if err := build(); err != nil {
		return err
	}
	t1 := time.Since(s.m.epoch)
	s.m.sample()
	s.raw = append(s.raw, (t1 - t0).Seconds())
	s.secs = append(s.secs, (t1-t0).Seconds()/s.m.factor(t0, t1))
	return nil
}

// first times build, which must build everything from nothing, perform
// the first operation and report whether it came out right.
func (s *setups) first(build func() (ok bool, err error)) error {
	return s.time(func() error {
		ok, err := build()
		if !ok {
			s.failed++
		}
		return err
	})
}

// rest repeats once, which does what first's build did and hands back
// what tears the stack down, until setupPlan is met.
func (s *setups) rest(once func() (ok bool, teardown func(), err error)) error {
	spent := func() (d time.Duration) {
		for _, r := range s.raw {
			d += time.Duration(r * float64(time.Second))
		}
		return d
	}
	for len(s.secs) < setupPlan.max && (len(s.secs) < setupPlan.min || spent() < setupPlan.budget) {
		runtime.GC() // the stack just torn down must not slow the next one's allocation
		var teardown func()
		if err := s.time(func() (err error) {
			var ok bool
			if ok, teardown, err = once(); !ok {
				s.failed++
			}
			return err
		}); err != nil {
			return err
		}
		teardown()
	}
	return nil
}

// peakRSSMiB is the process's resident-set high-water mark: VmHWM of
// /proc/self/status, which starts afresh at exec. (getrusage's ru_maxrss
// does not: a child inherits its parent's peak, so a full-set run's
// children would all report the parent's.) Where /proc is missing it
// falls back to ru_maxrss.
func peakRSSMiB() float64 {
	if raw, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, line := range strings.Split(string(raw), "\n") {
			if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
				if kib, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64); err == nil {
					return kib / 1024
				}
			}
		}
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// print writes one `workload metric value unit` line per metric, the
// phase accounting, then the contract's one-line JSON object last.
func (r *result) print(w io.Writer, units map[string]string) {
	for _, p := range r.Phases {
		fmt.Fprintf(w, "%s phase.%s attempted=%d succeeded=%d failed=%d\n", r.Workload, p.Phase, p.Attempted, p.Succeeded, p.Failed)
	}
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		line := fmt.Sprintf("%s %s %.6g %s", r.Workload, n, r.Metrics[n], units[n])
		if c := r.Samples[n]; c > 0 {
			line += fmt.Sprintf(" (n=%d)", c)
		}
		fmt.Fprintln(w, line)
	}
	for _, n := range r.Notes {
		fmt.Fprintf(w, "%s note: %s\n", r.Workload, n)
	}
	if r.TraceFile != "" {
		fmt.Fprintf(w, "%s spans written to %s\n", r.Workload, r.TraceFile)
	}
	fmt.Fprintln(w, r.contractLine(units))
}

type contractMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// contractLine renders the object the driver reads from the last line of
// standard output.
func (r *result) contractLine(units map[string]string) string {
	attempted, failed := r.counts()
	ms := make(map[string]contractMetric, len(r.Metrics))
	for n, v := range r.Metrics {
		ms[n] = contractMetric{Value: v, Unit: units[n]}
	}
	raw, err := json.Marshal(struct {
		Correct   bool                      `json:"correct"`
		Attempted int                       `json:"attempted"`
		Failed    int                       `json:"failed"`
		Metrics   map[string]contractMetric `json:"metrics"`
	}{failed == 0 && attempted > 0, attempted, failed, ms})
	if err != nil {
		panic(err) // only floats and strings: cannot fail
	}
	return string(raw)
}

// unitTable maps every metric name to its unit.
func unitTable() map[string]string {
	u := map[string]string{}
	for _, d := range endToEndTable {
		u[d.Name] = d.Unit
	}
	for _, d := range perLayerTable() {
		u[d.Name] = d.Unit
	}
	return u
}

// fillPerLayer makes a traced result carry every declared per-layer
// metric: those the workload does not exercise read 0.
func (r *result) fillPerLayer() {
	for _, d := range perLayerTable() {
		if _, ok := r.Metrics[d.Name]; !ok {
			r.Metrics[d.Name] = 0
		}
	}
	r.Metrics["bench.error_rate"] = r.errorRate()
}

func msOf(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func usOf(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
