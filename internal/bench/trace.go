package bench

// Trace capture: the measured experiment behind OBSERVABILITY.md. It
// trains the benchmark network for a few iterations with the span tracer
// attached, writes the Chrome trace-event JSON, and reports the derived
// per-layer table and worker-utilization summary — the same artifacts the
// paper's §4 figures are built from, but measured on this host.

import (
	"fmt"
	"io"
	"strings"

	"coarsegrain/internal/core"
	"coarsegrain/internal/solver"
	"coarsegrain/internal/trace"
)

// TraceCaptureResult summarizes one traced training run.
type TraceCaptureResult struct {
	Net     string
	Path    string
	Workers int
	Iters   int
	Spans   int
	Dropped int64
	// LayerTable is the paper-style per-layer table derived from the
	// trace's driver spans (identical format to profile.Recorder.Table).
	LayerTable string
	// Utilization is the worker-utilization/imbalance report.
	Utilization string
}

// Render prints the capture summary.
func (r *TraceCaptureResult) Render(w io.Writer) {
	fmt.Fprintf(w, "== %s traced run: %d iterations, coarse engine, %d workers ==\n",
		r.Net, r.Iters, r.Workers)
	fmt.Fprintf(w, "%d spans (%d dropped) -> %s (chrome://tracing or https://ui.perfetto.dev)\n\n",
		r.Spans, r.Dropped, r.Path)
	fmt.Fprint(w, r.LayerTable)
	fmt.Fprintln(w)
	fmt.Fprint(w, r.Utilization)
}

// TraceCapture trains the benchmark network under the coarse engine with
// the span tracer attached and writes Chrome trace-event JSON to path.
// The worker count is the maximum of o.Threads; o.Warmup untraced
// iterations run first so the trace shows steady-state behavior.
func TraceCapture(o Options, path string) (*TraceCaptureResult, error) {
	if err := o.normalize(); err != nil {
		return nil, err
	}
	workers := maxInt(o.Threads)
	eng := core.NewCoarse(workers)
	defer eng.Close()
	n, err := buildNet(o, eng)
	if err != nil {
		return nil, err
	}
	s, err := solver.New(o.model.Solver, n)
	if err != nil {
		return nil, err
	}
	s.Step(o.Warmup)

	tr := trace.New(workers)
	s.SetTracer(tr)
	s.Step(o.Iterations)
	s.SetTracer(nil)

	if err := tr.WriteChromeTraceFile(path); err != nil {
		return nil, err
	}
	spans := tr.Snapshot()
	var util strings.Builder
	trace.WriteUtilizationReport(&util, spans, workers)
	return &TraceCaptureResult{
		Net: o.Net, Path: path, Workers: workers, Iters: o.Iterations,
		Spans: len(spans), Dropped: tr.Dropped(),
		LayerTable:  trace.LayerRecorder(spans).Table(),
		Utilization: util.String(),
	}, nil
}
