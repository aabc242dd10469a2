// Command dnneval evaluates a trained model snapshot on a test stream:
//
//	dnntrain -zoo lenet -iters 500 -snapshot /tmp/lenet.cgdnn
//	dnneval  -zoo lenet -snapshot /tmp/lenet.cgdnn -batches 20
//
// It loads the parameters saved by dnntrain (solver snapshots are
// accepted too — the extra state is ignored), runs the requested number
// of forward-only batches in test mode, and reports mean loss and
// accuracy.
package main

import (
	"flag"
	"fmt"
	"os"

	"coarsegrain/internal/core"
	"coarsegrain/internal/metrics"
	"coarsegrain/internal/net"
	"coarsegrain/internal/snapshot"
	"coarsegrain/internal/solver"
	"coarsegrain/internal/zoo"
)

func main() {
	var (
		model    = flag.String("model", "", "network prototxt file")
		zooName  = flag.String("zoo", "", "built-in network: lenet | cifar10-full")
		snapPath = flag.String("snapshot", "", "model or solver snapshot to evaluate (required)")
		batches  = flag.Int("batches", 16, "test batches to average over")
		batch    = flag.Int("batch", 0, "override batch size")
		samples  = flag.Int("samples", 2048, "synthetic dataset size")
		seed     = flag.Uint64("seed", 2, "seed for the synthetic test stream")
		workers  = flag.Int("workers", 1, "coarse workers for the forward passes")
		dataDir  = flag.String("data", "", "directory with real dataset files")
		scores   = flag.String("scores", "", "score blob for the confusion matrix (default: the loss layer's input)")
	)
	flag.Parse()
	if *snapPath == "" {
		fatal(fmt.Errorf("need -snapshot"))
	}

	m, err := zoo.Load(zoo.Ref{
		Zoo: *zooName, Model: *model, DataDir: *dataDir,
		Samples: *samples, Seed: *seed, Batch: *batch,
	})
	if err != nil {
		fatal(err)
	}
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
	if err := snapshot.LoadNetFile(*snapPath, n); err != nil {
		fatal(err)
	}
	fmt.Printf("loaded %s into a %d-layer net; evaluating %d batches\n",
		*snapPath, len(specs), *batches)

	outputs := []string{"loss"}
	if _, err := n.Output("accuracy"); err == nil {
		outputs = append(outputs, "accuracy")
	}
	res, err := solver.Evaluate(n, outputs, *batches)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("mean loss: %.6f\n", res["loss"])
	if acc, ok := res["accuracy"]; ok {
		fmt.Printf("mean accuracy: %.4f\n", acc)
	}

	// Confusion matrix over the score blob: the one the loss reads,
	// unless -scores names another.
	sb := *scores
	if sb == "" {
		if sb, err = m.ScoreBlob(); err != nil {
			fatal(err)
		}
	}
	cm, err := metrics.Collect(n, sb, "label", *batches)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("\nconfusion matrix (%s vs label):\n%s", sb, cm)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "dnneval:", err)
	os.Exit(1)
}
