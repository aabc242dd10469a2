// Command dnneval evaluates a trained model snapshot on a test stream:
//
//	dnntrain -zoo lenet -iters 500 -snapshot /tmp/lenet.cgdnn
//	dnneval  -zoo lenet -snapshot /tmp/lenet.cgdnn -batches 20
//
// It loads the parameters saved by dnntrain (solver snapshots are
// accepted too — the extra state is ignored), runs the requested number
// of forward-only batches in test mode, and reports mean loss, accuracy
// and the confusion matrix. The model flags are dnntrain's (zoo.Ref):
// a net trained with -dataset is evaluated with the same -dataset,
//
//	dnntrain -model configs/lenet.prototxt -dataset cifar -snapshot /tmp/c.cgdnn
//	dnneval  -model configs/lenet.prototxt -dataset cifar -snapshot /tmp/c.cgdnn
//
// and -seed (default 2) draws a synthetic test stream other than
// dnntrain's default training stream.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"coarsegrain/internal/core"
	"coarsegrain/internal/metrics"
	"coarsegrain/internal/net"
	"coarsegrain/internal/snapshot"
	"coarsegrain/internal/solver"
	"coarsegrain/internal/zoo"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "dnneval:", err)
		os.Exit(1)
	}
}

// run parses args, evaluates the snapshot and writes the report to w.
func run(args []string, w io.Writer) error {
	ref := zoo.Ref{Samples: 2048, Seed: 2}
	fs := flag.NewFlagSet("dnneval", flag.ExitOnError)
	ref.BindFlags(fs, true, true)
	var (
		snapPath = fs.String("snapshot", "", "model or solver snapshot to evaluate (required)")
		batches  = fs.Int("batches", 16, "test batches to average over")
		workers  = fs.Int("workers", 1, "coarse workers for the forward passes")
		scores   = fs.String("scores", "", "score blob for the confusion matrix (default: the loss layer's input)")
	)
	fs.Parse(args) // ExitOnError: never returns an error
	if *snapPath == "" {
		return fmt.Errorf("need -snapshot")
	}

	m, err := zoo.Load(ref)
	if err != nil {
		return err
	}
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
	if err := snapshot.LoadNetFile(*snapPath, n); err != nil {
		return err
	}
	fmt.Fprintf(w, "loaded %s into a %d-layer net; evaluating %d batches\n",
		*snapPath, len(specs), *batches)

	outputs := []string{"loss"}
	if _, err := n.Output("accuracy"); err == nil {
		outputs = append(outputs, "accuracy")
	}
	res, err := solver.Evaluate(n, outputs, *batches)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "mean loss: %.6f\n", res["loss"])
	if acc, ok := res["accuracy"]; ok {
		fmt.Fprintf(w, "mean accuracy: %.4f\n", acc)
	}

	// Confusion matrix over the score blob: the one the loss reads,
	// unless -scores names another.
	sb := *scores
	if sb == "" {
		if sb, err = m.ScoreBlob(); err != nil {
			return err
		}
	}
	cm, err := metrics.Collect(n, sb, "label", *batches)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "\nconfusion matrix (%s vs label):\n%s", sb, cm)
	return nil
}
