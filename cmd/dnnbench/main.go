// Command dnnbench regenerates the tables and figures of the paper's
// evaluation section (see DESIGN.md §3 for the experiment index):
//
//	dnnbench -figure 4        # MNIST per-layer times        (Figure 4)
//	dnnbench -figure 5        # MNIST per-layer scalability  (Figure 5)
//	dnnbench -figure 6        # MNIST overall + GPU          (Figure 6)
//	dnnbench -figure 7        # CIFAR per-layer times        (Figure 7)
//	dnnbench -figure 8        # CIFAR per-layer scalability  (Figure 8)
//	dnnbench -figure 9        # CIFAR overall + GPU          (Figure 9)
//	dnnbench -figure gemm     # GEMM kernel: reference vs blocked
//	dnnbench -figure mem      # §3.2.1 privatization memory
//	dnnbench -figure conv     # convergence invariance
//	dnnbench -figure ablation # reduction & coalescing ablations
//	dnnbench -figure comm     # gradient exchange: bytes/step per wire format
//	dnnbench -figure all      # everything
//
// Serial per-layer costs are measured on this host; multi-thread numbers
// are modeled by the calibrated machine model (add -measure on a real
// multicore host for wall-clock numbers as well).
//
// A traced run (Chrome trace-event JSON, per-layer table, worker
// utilization) is layerprof -trace; see OBSERVABILITY.md.
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"coarsegrain/internal/bench"
)

func main() {
	var (
		figure  = flag.String("figure", "all", "figure to reproduce: 4-9, gemm, mem, conv, ablation, engines, comm, all")
		netName = flag.String("net", "", "override benchmark network (mnist|cifar)")
		batch   = flag.Int("batch", 0, "override batch size (default: paper's 64/100)")
		samples = flag.Int("samples", 0, "synthetic dataset size (default 4*batch)")
		iters   = flag.Int("iters", 3, "timed iterations per measurement")
		warmup  = flag.Int("warmup", 1, "warm-up iterations")
		threads = flag.String("threads", "1,2,4,8,12,16", "comma-separated worker counts")
		seed    = flag.Uint64("seed", 1, "seed for weights and synthetic data")
		dataDir = flag.String("data", "", "directory with real MNIST/CIFAR files (synthetic otherwise)")
		measure = flag.Bool("measure", false, "also measure real parallel wall-clock runs")
		convIt  = flag.Int("conv-iters", 20, "training iterations for the convergence experiment")
	)
	flag.Parse()

	ths, err := parseThreads(*threads)
	if err != nil {
		fatal(err)
	}
	baseOpt := func(defNet string) bench.Options {
		n := defNet
		if *netName != "" {
			n = *netName
		}
		return bench.Options{
			Net: n, Batch: *batch, Samples: *samples,
			Iterations: *iters, Warmup: *warmup,
			Threads: ths, Seed: *seed, DataDir: *dataDir, Measure: *measure,
		}
	}

	run := func(fig string) error {
		switch fig {
		case "4":
			res, err := bench.PerLayerTimes(baseOpt("mnist"))
			if err != nil {
				return err
			}
			fmt.Println("### Figure 4 ###")
			res.Render(os.Stdout)
		case "5":
			res, err := bench.PerLayerScalability(baseOpt("mnist"))
			if err != nil {
				return err
			}
			fmt.Println("### Figure 5 ###")
			res.Render(os.Stdout)
		case "6":
			res, err := bench.Overall(baseOpt("mnist"))
			if err != nil {
				return err
			}
			fmt.Println("### Figure 6 ###")
			res.Render(os.Stdout)
		case "7":
			res, err := bench.PerLayerTimes(baseOpt("cifar"))
			if err != nil {
				return err
			}
			fmt.Println("### Figure 7 ###")
			res.Render(os.Stdout)
		case "8":
			res, err := bench.PerLayerScalability(baseOpt("cifar"))
			if err != nil {
				return err
			}
			fmt.Println("### Figure 8 ###")
			res.Render(os.Stdout)
		case "9":
			res, err := bench.Overall(baseOpt("cifar"))
			if err != nil {
				return err
			}
			fmt.Println("### Figure 9 ###")
			res.Render(os.Stdout)
		case "gemm":
			for _, n := range []string{"mnist", "cifar"} {
				if *netName != "" && n != *netName {
					continue
				}
				o := baseOpt(n)
				o.Net = n
				res, err := bench.GemmKernels(o)
				if err != nil {
					return err
				}
				fmt.Println("### GEMM kernel comparison ###")
				res.Render(os.Stdout)
			}
			fmt.Println("### GEMM dispatch sweep ###")
			bench.DispatchSweep().Render(os.Stdout)
			fmt.Println("### Lowered conv operand sweep ###")
			sweep, err := bench.ConvSweep()
			if err != nil {
				return err
			}
			sweep.Render(os.Stdout)
		case "mem":
			for _, n := range []string{"mnist", "cifar"} {
				if *netName != "" && n != *netName {
					continue
				}
				o := baseOpt(n)
				o.Net = n
				res, err := bench.Memory(o)
				if err != nil {
					return err
				}
				fmt.Println("### Memory overhead (paper §3.2.1) ###")
				res.Render(os.Stdout)
			}
		case "conv":
			res, err := bench.Convergence(baseOpt("mnist"), *convIt)
			if err != nil {
				return err
			}
			fmt.Println("### Convergence invariance ###")
			res.Render(os.Stdout)
		case "ablation":
			res, err := bench.Ablation(baseOpt("mnist"))
			if err != nil {
				return err
			}
			fmt.Println("### Ablations ###")
			res.Render(os.Stdout)
		case "comm":
			res, err := bench.Comm(baseOpt("mnist"))
			if err != nil {
				return err
			}
			fmt.Println("### Gradient exchange: bytes on wire ###")
			res.Render(os.Stdout)
		case "engines":
			res, err := bench.EngineComparison(baseOpt("mnist"))
			if err != nil {
				return err
			}
			fmt.Println("### Measured engine comparison ###")
			res.Render(os.Stdout)
		default:
			return fmt.Errorf("unknown figure %q", fig)
		}
		fmt.Println()
		return nil
	}

	figs := []string{*figure}
	if *figure == "all" {
		figs = []string{"4", "5", "6", "7", "8", "9", "gemm", "mem", "conv", "ablation", "engines", "comm"}
	}
	for _, f := range figs {
		if err := run(f); err != nil {
			fatal(err)
		}
	}
}

func parseThreads(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		v, err := strconv.Atoi(part)
		if err != nil || v < 1 {
			return nil, fmt.Errorf("bad thread count %q", part)
		}
		out = append(out, v)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no thread counts given")
	}
	return out, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "dnnbench:", err)
	os.Exit(1)
}
