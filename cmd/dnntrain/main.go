// Command dnntrain trains a network defined in a Caffe-style prototxt file
// (or one of the built-in zoo networks) on the paper's coarse-grain
// engine with -workers ranks; -workers 1 is the sequential run bit for
// bit:
//
//	dnntrain -model configs/lenet.prototxt -solver configs/lenet_solver.prototxt \
//	         -workers 8 -iters 500
//	dnntrain -zoo cifar10-full -workers 1 -iters 100
//
// Data comes from real MNIST/CIFAR files under -data when present, and
// from the deterministic synthetic generators otherwise. The model flags
// (-zoo, -model, -dataset, -data, -samples, -seed, -batch) are a
// zoo.Ref's, bound by Ref.BindFlags and resolved by zoo.Load, as in
// every command: dataset from the zoo net or the prototxt's base name
// (-dataset overrides, and the snapshot is then evaluated, profiled and
// served with the same -dataset), batch from -batch, else the file's
// batch_size, convolutions lowered.
//
// With -trace out.json the whole run is recorded by the span tracer
// (internal/trace) and exported as Chrome trace-event JSON — load it in
// chrome://tracing or https://ui.perfetto.dev to see every layer, phase,
// schedule band and worker rank on a timeline (see OBSERVABILITY.md):
//
//	dnntrain -zoo lenet -workers 8 -iters 50 -trace out.json
//
// Fault tolerance (see ROBUSTNESS.md): -snapshot-every writes crash-safe
// checkpoints into -snapshot-dir with a keep-last-K retention policy,
// -resume accepts either a snapshot file or a checkpoint directory (the
// newest *valid* checkpoint is auto-discovered, falling back past corrupt
// or truncated files), -guard-policy arms the training health monitor
// (NaN/Inf and gradient-norm guardrails with halt / skip / rollback
// recovery), and SIGINT stops at the next display boundary, checkpointing
// first when there is a -snapshot-dir. -snapshot-every and the rollback
// policy need -snapshot-dir and are refused without it:
//
//	dnntrain -zoo lenet -iters 200 -snapshot-every 50 -snapshot-dir ckpt \
//	         -guard-policy rollback
//	dnntrain -zoo lenet -resume ckpt -iters 100
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"

	"coarsegrain/internal/blas"
	"coarsegrain/internal/core"
	"coarsegrain/internal/guard"
	"coarsegrain/internal/net"
	"coarsegrain/internal/prototxt"
	"coarsegrain/internal/snapshot"
	"coarsegrain/internal/solver"
	"coarsegrain/internal/trace"
	"coarsegrain/internal/zoo"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "dnntrain:", err)
		os.Exit(1)
	}
}

// run parses args, trains and writes the run's report to w.
func run(args []string, w io.Writer) error {
	ref := zoo.Ref{Samples: 2048, Seed: 1}
	fs := flag.NewFlagSet("dnntrain", flag.ExitOnError)
	ref.BindFlags(fs, true, true)
	var (
		solverP  = fs.String("solver", "", "solver prototxt file")
		workers  = fs.Int("workers", 4, "coarse engine worker count (1: the sequential run)")
		iters    = fs.Int("iters", 200, "training iterations")
		display  = fs.Int("display", 20, "print loss every N iterations")
		snapPath = fs.String("snapshot", "", "write a solver snapshot here when training ends")
		resume   = fs.String("resume", "", "resume from a snapshot file, or from the newest valid checkpoint in a directory")
		tracePth = fs.String("trace", "", "write a Chrome trace-event JSON (chrome://tracing / Perfetto) of the run here")

		snapEvery = fs.Int("snapshot-every", 0, "write a checkpoint to -snapshot-dir every N iterations (0 = off)")
		snapDir   = fs.String("snapshot-dir", "", "checkpoint directory for -snapshot-every and guard rollbacks")
		snapKeep  = fs.Int("snapshot-keep", 3, "retain only the newest K checkpoints (0 = keep all)")

		guardPol     = fs.String("guard-policy", "off", "training health monitor: off | halt | skip | rollback")
		guardNorm    = fs.Float64("guard-max-norm", 0, "fault when the gradient L2 norm exceeds this (0 = NaN/Inf checks only)")
		guardBackoff = fs.Float64("guard-lr-backoff", 0.5, "learning-rate multiplier applied on each guard rollback")
		guardEvery   = fs.Int("guard-every", 1, "run the guard scan every N iterations")
	)
	fs.Parse(args) // ExitOnError: never returns an error

	var pol guard.Policy
	if *guardPol != "off" {
		var err error
		if pol, err = guard.ParsePolicy(*guardPol); err != nil {
			return err
		}
	}
	if *snapDir == "" {
		if *snapEvery > 0 {
			return errors.New("-snapshot-every needs -snapshot-dir to write its checkpoints into")
		}
		if pol == guard.Rollback {
			return errors.New("-guard-policy rollback needs -snapshot-dir to roll back to")
		}
	}

	m, err := zoo.Load(ref)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "dataset: %s\n", m.DataString())
	specs, err := m.Specs(m.Source, 0)
	if err != nil {
		return err
	}

	eng := core.NewCoarse(*workers)
	defer eng.Close()

	n, err := net.New(specs, eng)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "network (%d layers, engine %s/%d workers, kernels %s):\n%s",
		len(specs), eng.Name(), eng.Workers(), blas.KernelSet(), n)

	cfg := m.Solver
	if *solverP != "" {
		raw, err := os.ReadFile(*solverP)
		if err != nil {
			return err
		}
		if cfg, err = prototxt.ParseSolver(string(raw)); err != nil {
			return err
		}
	}
	s, err := solver.New(cfg, n)
	if err != nil {
		return err
	}
	if *resume != "" {
		st, err := os.Stat(*resume)
		if err != nil {
			return err
		}
		path := *resume
		if st.IsDir() {
			var skipped []string
			path, skipped, err = snapshot.LoadLatestValid(*resume, s)
			for _, sk := range skipped {
				fmt.Fprintf(w, "checkpoint %s invalid, falling back\n", sk)
			}
		} else {
			err = snapshot.LoadSolverFile(*resume, s)
		}
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "resumed from %s at iteration %d\n", path, s.Iter())
	}

	var tr *trace.Tracer
	if *tracePth != "" {
		tr = trace.New(eng.Workers())
		s.SetTracer(tr)
	}

	var mon *guard.Monitor
	if *guardPol != "off" {
		mon, err = guard.New(guard.Config{
			Policy:      pol,
			MaxGradNorm: *guardNorm,
			LRBackoff:   float32(*guardBackoff),
			CheckEvery:  *guardEvery,
		}, s)
		if err != nil {
			return err
		}
		mon.SetTracer(tr)
		if *snapDir != "" {
			dir := *snapDir
			mon.SetRestore(func(sv *solver.Solver) (string, error) {
				path, _, err := snapshot.LoadLatestValid(dir, sv)
				return path, err
			})
		}
		s.SetPreUpdate(mon.Check)
	}

	// SIGINT requests a graceful stop: finish the current chunk, write a
	// checkpoint when there is a -snapshot-dir, exit cleanly.
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt)
	defer signal.Stop(sigc)

	checkpoint := func() error {
		path, err := snapshot.SaveCheckpoint(*snapDir, s, *snapKeep)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "checkpoint written to %s (iteration %d)\n", path, s.Iter())
		return nil
	}

	fmt.Fprintf(w, "training %d iterations (%s, base_lr %g)\n", *iters, cfg.Type, cfg.BaseLR)
	interrupted := false
	remaining := *iters
	for remaining > 0 && !interrupted {
		step := *display
		if step > remaining {
			step = remaining
		}
		if *snapEvery > 0 {
			if toNext := *snapEvery - s.Iter()%*snapEvery; toNext < step {
				step = toNext
			}
		}
		losses := s.Step(step)
		remaining -= step
		line := fmt.Sprintf("iter %5d  loss %.6f  lr %.6f", s.Iter(), losses[len(losses)-1], s.LearningRate())
		if acc, err := n.Output("accuracy"); err == nil {
			line += fmt.Sprintf("  batch-accuracy %.3f", acc)
		}
		fmt.Fprintln(w, line)
		if mon != nil && mon.Err() != nil {
			break
		}
		if *snapEvery > 0 && s.Iter()%*snapEvery == 0 {
			if err := checkpoint(); err != nil {
				return err
			}
		}
		select {
		case <-sigc:
			if *snapDir != "" {
				fmt.Fprintln(w, "interrupt: checkpointing before exit")
			} else {
				fmt.Fprintln(w, "interrupt: stopping without a checkpoint (no -snapshot-dir)")
			}
			interrupted = true
		default:
		}
	}
	if interrupted && *snapDir != "" {
		if err := checkpoint(); err != nil {
			return err
		}
	}
	if mon != nil {
		st := mon.Stats()
		fmt.Fprintf(w, "guard: %d checks, %d faults (%d skipped, %d rollbacks, %d halts)\n",
			st.Checks, st.Faults, st.Skips, st.Rollbacks, st.Halts)
	}
	if *snapPath != "" {
		if err := snapshot.SaveSolverFile(*snapPath, s); err != nil {
			return err
		}
		fmt.Fprintf(w, "snapshot written to %s (iteration %d)\n", *snapPath, s.Iter())
	}
	if tr.Enabled() {
		if err := tr.WriteChromeTraceFile(*tracePth); err != nil {
			return err
		}
		fmt.Fprintf(w, "trace: %d spans (%d dropped) written to %s — open in chrome://tracing or https://ui.perfetto.dev\n",
			tr.Len(), tr.Dropped(), *tracePth)
	}
	if mon != nil {
		return mon.Err()
	}
	return nil
}
