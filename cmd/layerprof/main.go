// Command layerprof profiles a network layer by layer under any engine —
// the measurement methodology behind the paper's Figures 4, 5, 7 and 8:
//
//	layerprof -zoo lenet -engine coarse -workers 8 -iters 5
//	layerprof -model configs/cifar10_full.prototxt -engine sequential
//
// It prints mean per-layer forward/backward times and each layer's share
// of the iteration, plus the engine's privatization footprint.
//
// With -trace out.json the iterations are also recorded by the span
// tracer: the per-layer table is then derived from the trace's driver
// spans (same format), a worker-utilization/imbalance report is appended,
// and the full span set is written as Chrome trace-event JSON (see
// OBSERVABILITY.md).
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"coarsegrain/internal/core"
	"coarsegrain/internal/net"
	"coarsegrain/internal/profile"
	"coarsegrain/internal/trace"
	"coarsegrain/internal/zoo"
)

// options collects everything main parses from flags, so tests can call
// run directly with a synthetic configuration.
type options struct {
	zoo.Ref   // -model | -zoo, -batch, -samples, -seed, -data
	Engine    string
	Workers   int
	Iters     int
	Warmup    int
	TracePath string
}

func main() {
	var o options
	flag.StringVar(&o.Model, "model", "", "network prototxt file")
	flag.StringVar(&o.Zoo, "zoo", "", "built-in network: lenet | cifar10-full")
	flag.StringVar(&o.Engine, "engine", "sequential", "engine: sequential | coarse | fine | tuned")
	flag.IntVar(&o.Workers, "workers", 4, "worker count for parallel engines")
	flag.IntVar(&o.Iters, "iters", 5, "timed iterations")
	flag.IntVar(&o.Warmup, "warmup", 1, "warm-up iterations")
	flag.IntVar(&o.Batch, "batch", 0, "override batch size")
	flag.IntVar(&o.Samples, "samples", 512, "synthetic dataset size")
	flag.Uint64Var(&o.Seed, "seed", 1, "seed")
	flag.StringVar(&o.DataDir, "data", "", "directory with real dataset files")
	flag.StringVar(&o.TracePath, "trace", "", "also write a Chrome trace-event JSON of the timed iterations here")
	flag.Parse()

	if err := run(o, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "layerprof:", err)
		os.Exit(1)
	}
}

// run performs the profile and writes the report to w.
func run(o options, w io.Writer) error {
	m, err := zoo.Load(o.Ref)
	if err != nil {
		return err
	}
	specs, err := m.Specs(m.Source, 0)
	if err != nil {
		return err
	}

	eng, err := core.EngineByName(o.Engine, o.Workers)
	if err != nil {
		return err
	}
	defer eng.Close()

	n, err := net.New(specs, eng)
	if err != nil {
		return err
	}
	for i := 0; i < o.Warmup; i++ {
		n.ZeroParamDiffs()
		n.ForwardBackward()
	}
	rec := profile.NewRecorder()
	n.SetRecorder(rec)
	var tr *trace.Tracer
	if o.TracePath != "" {
		tr = trace.New(eng.Workers())
		n.SetTracer(tr)
	}
	for i := 0; i < o.Iters; i++ {
		n.ZeroParamDiffs()
		n.ForwardBackward()
	}

	fmt.Fprintf(w, "engine %s, %d workers, %d timed iterations\n\n", eng.Name(), eng.Workers(), o.Iters)
	fmt.Fprint(w, rec.Table())
	fmt.Fprintf(w, "\ndominating layers (80%% of time): %v\n", dominators(rec))
	fmt.Fprintf(w, "network memory: %.1f MB, privatization scratch: %.1f KB\n",
		float64(n.MemoryBytes())/(1<<20), float64(eng.ScratchBytes())/1024)

	if tr.Enabled() {
		spans := tr.Snapshot()
		fmt.Fprintf(w, "\nworker utilization (from %d spans):\n", len(spans))
		trace.WriteUtilizationReport(w, spans, eng.Workers())
		if err := tr.WriteChromeTraceFile(o.TracePath); err != nil {
			return err
		}
		fmt.Fprintf(w, "trace written to %s — open in chrome://tracing or https://ui.perfetto.dev\n", o.TracePath)
	}
	return nil
}

func dominators(rec *profile.Recorder) []string {
	names := rec.SortedLayersByCost()
	total := float64(rec.TotalMean())
	var out []string
	var acc float64
	for _, nm := range names {
		out = append(out, nm)
		acc += float64(rec.Mean(nm, profile.Forward) + rec.Mean(nm, profile.Backward))
		if acc/total >= 0.8 {
			break
		}
	}
	return out
}
