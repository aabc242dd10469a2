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
// from the deterministic synthetic generators otherwise. The reference is
// resolved by zoo.Load, as in every command: dataset from the zoo net or
// the prototxt's base name (-dataset overrides), batch from -batch, else
// the file's batch_size, else the zoo default, convolutions lowered.
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
// recovery), and SIGINT checkpoints before exiting. The -inject-* flags
// drive the deterministic fault-injection harness for drills:
//
//	dnntrain -zoo lenet -iters 200 -snapshot-every 50 -snapshot-dir ckpt \
//	         -guard-policy rollback
//	dnntrain -zoo lenet -resume ckpt -iters 100
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"

	"coarsegrain/internal/core"
	"coarsegrain/internal/faultinject"
	"coarsegrain/internal/guard"
	"coarsegrain/internal/net"
	"coarsegrain/internal/prototxt"
	"coarsegrain/internal/snapshot"
	"coarsegrain/internal/solver"
	"coarsegrain/internal/trace"
	"coarsegrain/internal/zoo"
)

func main() {
	var (
		model    = flag.String("model", "", "network prototxt file")
		solverP  = flag.String("solver", "", "solver prototxt file")
		zooName  = flag.String("zoo", "", "built-in network instead of -model: lenet | cifar10-full")
		workers  = flag.Int("workers", 4, "coarse engine worker count (1: the sequential run)")
		iters    = flag.Int("iters", 200, "training iterations")
		display  = flag.Int("display", 20, "print loss every N iterations")
		batch    = flag.Int("batch", 0, "override batch size")
		samples  = flag.Int("samples", 2048, "synthetic dataset size")
		seed     = flag.Uint64("seed", 1, "seed")
		dataDir  = flag.String("data", "", "directory with real dataset files")
		datasetF = flag.String("dataset", "", "force dataset: mnist | cifar (default inferred)")
		snapPath = flag.String("snapshot", "", "write a solver snapshot here when training ends")
		resume   = flag.String("resume", "", "resume from a snapshot file, or from the newest valid checkpoint in a directory")
		tracePth = flag.String("trace", "", "write a Chrome trace-event JSON (chrome://tracing / Perfetto) of the run here")

		snapEvery = flag.Int("snapshot-every", 0, "write a checkpoint to -snapshot-dir every N iterations (0 = off)")
		snapDir   = flag.String("snapshot-dir", "", "checkpoint directory for -snapshot-every and guard rollbacks")
		snapKeep  = flag.Int("snapshot-keep", 3, "retain only the newest K checkpoints (0 = keep all)")

		guardPol     = flag.String("guard-policy", "off", "training health monitor: off | halt | skip | rollback")
		guardNorm    = flag.Float64("guard-max-norm", 0, "fault when the gradient L2 norm exceeds this (0 = NaN/Inf checks only)")
		guardBackoff = flag.Float64("guard-lr-backoff", 0.5, "learning-rate multiplier applied on each guard rollback")
		guardEvery   = flag.Int("guard-every", 1, "run the guard scan every N iterations")

		injectSeed    = flag.Uint64("inject-seed", 1, "fault-injection seed (deterministic drills)")
		injectNaN     = flag.Int("inject-grad-nan", -1, "fault drill: poison one gradient value with NaN at this iteration")
		injectCorrupt = flag.Bool("inject-corrupt-resume", false, "fault drill: corrupt the newest checkpoint before resuming")
	)
	flag.Parse()

	m, err := zoo.Load(zoo.Ref{
		Zoo: *zooName, Model: *model, Dataset: *datasetF, DataDir: *dataDir,
		Samples: *samples, Seed: *seed, Batch: *batch,
	})
	if err != nil {
		fatal(err)
	}
	fmt.Printf("dataset: %s\n", m.DataString())
	specs, err := m.Specs(m.Source, 0)
	if err != nil {
		fatal(err)
	}

	eng := core.NewCoarse(*workers)
	defer eng.Close()

	n, err := net.New(specs, eng)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("network (%d layers, engine %s/%d workers):\n%s",
		len(specs), eng.Name(), eng.Workers(), n)

	cfg := m.Solver
	if *solverP != "" {
		raw, rerr := os.ReadFile(*solverP)
		if rerr != nil {
			fatal(rerr)
		}
		if cfg, err = prototxt.ParseSolver(string(raw)); err != nil {
			fatal(err)
		}
	}
	s, err := solver.New(cfg, n)
	if err != nil {
		fatal(err)
	}
	inj := faultinject.New(*injectSeed)
	if *resume != "" {
		st, err := os.Stat(*resume)
		if err != nil {
			fatal(err)
		}
		if st.IsDir() {
			if *injectCorrupt {
				cks, err := snapshot.Checkpoints(*resume)
				if err != nil || len(cks) == 0 {
					fatal(fmt.Errorf("inject-corrupt-resume: no checkpoints in %s", *resume))
				}
				newest := cks[len(cks)-1]
				off, err := inj.CorruptFile(newest)
				if err != nil {
					fatal(err)
				}
				fmt.Printf("fault injected: flipped byte %d of %s\n", off, newest)
			}
			path, skipped, err := snapshot.LoadLatestValid(*resume, s)
			for _, sk := range skipped {
				fmt.Printf("checkpoint %s invalid, falling back\n", sk)
			}
			if err != nil {
				fatal(err)
			}
			fmt.Printf("resumed from %s at iteration %d\n", path, s.Iter())
		} else {
			if err := snapshot.LoadSolverFile(*resume, s); err != nil {
				fatal(err)
			}
			fmt.Printf("resumed from %s at iteration %d\n", *resume, s.Iter())
		}
	}

	var tr *trace.Tracer
	if *tracePth != "" {
		tr = trace.New(eng.Workers())
		s.SetTracer(tr)
	}

	// Health monitor + optional fault drill, composed into one pre-update
	// hook (poison first, so the guard sees the damaged gradient).
	var mon *guard.Monitor
	var hook solver.PreUpdateHook
	if *guardPol != "off" {
		pol, err := guard.ParsePolicy(*guardPol)
		if err != nil {
			fatal(err)
		}
		mon, err = guard.New(guard.Config{
			Policy:      pol,
			MaxGradNorm: *guardNorm,
			LRBackoff:   float32(*guardBackoff),
			CheckEvery:  *guardEvery,
		}, s)
		if err != nil {
			fatal(err)
		}
		mon.SetTracer(tr)
		if *snapDir != "" {
			dir := *snapDir
			mon.SetRestore(func(sv *solver.Solver) (string, error) {
				path, _, err := snapshot.LoadLatestValid(dir, sv)
				return path, err
			})
		}
		hook = mon.Check
	}
	if *injectNaN >= 0 {
		poison, err := inj.GradPoisoner(n, *injectNaN)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("fault armed: gradient NaN at iteration %d\n", *injectNaN)
		hook = poison.Hook(hook)
	}
	if hook != nil {
		s.SetPreUpdate(hook)
	}

	// SIGINT requests a graceful stop: finish the current chunk, write a
	// checkpoint, exit cleanly.
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt)

	checkpoint := func() {
		if *snapDir == "" {
			return
		}
		path, err := snapshot.SaveCheckpoint(*snapDir, s, *snapKeep)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("checkpoint written to %s (iteration %d)\n", path, s.Iter())
	}

	fmt.Printf("training %d iterations (%s, base_lr %g)\n", *iters, cfg.Type, cfg.BaseLR)
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
		fmt.Println(line)
		if mon != nil && mon.Err() != nil {
			break
		}
		if *snapEvery > 0 && s.Iter()%*snapEvery == 0 {
			checkpoint()
		}
		select {
		case <-sigc:
			fmt.Println("interrupt: checkpointing before exit")
			interrupted = true
		default:
		}
	}
	if interrupted {
		checkpoint()
	}
	if mon != nil {
		st := mon.Stats()
		fmt.Printf("guard: %d checks, %d faults (%d skipped, %d rollbacks, %d halts)\n",
			st.Checks, st.Faults, st.Skips, st.Rollbacks, st.Halts)
	}
	if *snapPath != "" {
		if err := snapshot.SaveSolverFile(*snapPath, s); err != nil {
			fatal(err)
		}
		fmt.Printf("snapshot written to %s (iteration %d)\n", *snapPath, s.Iter())
	}
	if tr.Enabled() {
		if err := tr.WriteChromeTraceFile(*tracePth); err != nil {
			fatal(err)
		}
		fmt.Printf("trace: %d spans (%d dropped) written to %s — open in chrome://tracing or https://ui.perfetto.dev\n",
			tr.Len(), tr.Dropped(), *tracePth)
	}
	if mon != nil && mon.Err() != nil {
		fatal(mon.Err())
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "dnntrain:", err)
	os.Exit(1)
}
