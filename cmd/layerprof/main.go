// Command layerprof profiles a network layer by layer under the coarse
// engine — the measurement methodology behind the paper's Figures 4, 5,
// 7 and 8:
//
//	layerprof -zoo lenet -workers 8 -iters 5
//	layerprof -model configs/cifar10_full.prototxt   # -workers 1: the serial baseline
//
// It prints mean per-layer forward/backward times and each layer's share
// of the iteration, plus the engine's privatization footprint. The table
// is trace.PerLayer over the timed iterations' driver spans, on a tracer
// sized to hold all of them.
//
// With -trace out.json a worker-utilization/imbalance report is appended
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
	"coarsegrain/internal/trace"
	"coarsegrain/internal/zoo"
)

// options collects everything main parses from flags, so tests can call
// run directly with a synthetic configuration.
type options struct {
	zoo.Ref   // -model | -zoo, -batch, -samples, -seed, -data
	Workers   int
	Iters     int
	Warmup    int
	TracePath string
}

// parseFlags binds layerprof's flags and parses args.
func parseFlags(args []string) options {
	var o options
	fs := flag.NewFlagSet("layerprof", flag.ExitOnError)
	fs.StringVar(&o.Model, "model", "", "network prototxt file")
	fs.StringVar(&o.Zoo, "zoo", "", "built-in network: lenet | cifar10-full")
	fs.IntVar(&o.Workers, "workers", 1, "coarse engine worker count (1: the serial baseline)")
	fs.IntVar(&o.Iters, "iters", 5, "timed iterations")
	fs.IntVar(&o.Warmup, "warmup", 1, "warm-up iterations")
	fs.IntVar(&o.Batch, "batch", 0, "override batch size")
	fs.IntVar(&o.Samples, "samples", 512, "synthetic dataset size")
	fs.Uint64Var(&o.Seed, "seed", 1, "seed")
	fs.StringVar(&o.DataDir, "data", "", "directory with real dataset files")
	fs.StringVar(&o.TracePath, "trace", "", "also write a Chrome trace-event JSON of the timed iterations here")
	fs.Parse(args) // ExitOnError: never returns an error
	return o
}

func main() {
	if err := run(parseFlags(os.Args[1:]), os.Stdout); err != nil {
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
	eng := core.NewCoarse(o.Workers)
	defer eng.Close()
	n, err := net.New(specs, eng)
	if err != nil {
		return err
	}
	for i := 0; i < o.Warmup; i++ {
		n.ZeroParamDiffs()
		n.ForwardBackward()
	}
	tr := trace.NewWithCapacity(eng.Workers(), trace.IterCapacity(o.Iters, len(specs)))
	n.SetTracer(tr)
	for i := 0; i < o.Iters; i++ {
		n.ZeroParamDiffs()
		n.ForwardBackward()
	}
	lt, err := trace.PerLayer(tr)
	if err != nil {
		return err
	}

	fmt.Fprintf(w, "engine %s, %d workers, %d timed iterations\n\n", eng.Name(), eng.Workers(), o.Iters)
	fmt.Fprint(w, lt.Table())
	fmt.Fprintf(w, "\ndominating layers (80%% of time): %v\n", lt.Dominating(0.8))
	fmt.Fprintf(w, "network memory: %.1f MB, privatization scratch: %.1f KB\n",
		float64(n.MemoryBytes())/(1<<20), float64(eng.ScratchBytes())/1024)

	if o.TracePath != "" {
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
