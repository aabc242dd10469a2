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
	// LayerTable is the paper-style per-layer table derived from the
	// trace's driver spans (trace.PerLayer, the layout layerprof prints).
	LayerTable string
	// Utilization is the worker-utilization/imbalance report.
	Utilization string
}

// Render prints the capture summary.
func (r *TraceCaptureResult) Render(w io.Writer) {
	fmt.Fprintf(w, "== %s traced run: %d iterations, coarse engine, %d workers ==\n",
		r.Net, r.Iters, r.Workers)
	fmt.Fprintf(w, "%d spans -> %s (chrome://tracing or https://ui.perfetto.dev)\n\n", r.Spans, r.Path)
	fmt.Fprint(w, r.LayerTable)
	fmt.Fprintln(w)
	fmt.Fprint(w, r.Utilization)
}

// TraceCapture trains the benchmark network under the coarse engine with
// the span tracer attached and writes Chrome trace-event JSON to path.
// The worker count is the maximum of o.Threads; o.Warmup untraced
// iterations run first so the trace shows steady-state behavior, and the
// rings are sized for o.Iterations so no span of the timed window is
// dropped.
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

	tr := trace.NewWithCapacity(workers, trace.IterCapacity(o.Iterations, len(n.Layers())))
	s.SetTracer(tr)
	s.Step(o.Iterations)
	s.SetTracer(nil)

	if err := tr.WriteChromeTraceFile(path); err != nil {
		return nil, err
	}
	lt, err := trace.PerLayer(tr)
	if err != nil {
		return nil, err
	}
	spans := tr.Snapshot()
	var util strings.Builder
	trace.WriteUtilizationReport(&util, spans, workers)
	return &TraceCaptureResult{
		Net: o.Net, Path: path, Workers: workers, Iters: o.Iterations,
		Spans: len(spans), LayerTable: lt.Table(),
		Utilization: util.String(),
	}, nil
}
