package cluster

import (
	"fmt"
	"io"
	"runtime"
	"time"

	"coarsegrain/internal/simtime"
	"coarsegrain/internal/solver"
	"coarsegrain/internal/transport"
)

// Predict is the EXPERIMENTS.md scaling study: calibrate the simtime
// cluster model from a measured single-replica run, then for each
// replica count compare the model's predicted iteration speedup with a
// measured in-process run of the same group runner -role local uses.
func Predict(c Config, out io.Writer) error {
	model, err := c.load(1, out)
	if err != nil {
		return err
	}
	calIters := c.Iters
	if calIters <= 0 {
		calIters = 20
	}

	// Calibration: serial full-batch stepping, which is also the
	// measured baseline (dist with k=1 is bit-identical to it).
	n, eng, err := c.buildRankNet(model, 0, 1, 0)
	if err != nil {
		return err
	}
	s, err := solver.New(model.Solver, n)
	if err != nil {
		eng.Close()
		return err
	}
	s.Step(2) // warm caches before timing
	start := time.Now()
	s.Step(calIters)
	serialPer := time.Since(start) / time.Duration(calIters)
	eng.Close() // before the measured groups start their own worker teams

	elems := 0
	for _, p := range n.Params() {
		elems += p.Count()
	}
	w := simtime.ClusterWorkload{
		ComputeUS:    float64(serialPer.Nanoseconds()) / 1e3,
		BackwardFrac: 0.55,
		ParamElems:   elems,
		ParamTensors: len(n.Params()),
	}
	m := simtime.LocalCluster(runtime.NumCPU())
	fmt.Fprintf(out, "calibration: %.1f ms/iter serial, %d param elems in %d tensors, %d cores\n",
		float64(serialPer.Microseconds())/1e3, w.ParamElems, w.ParamTensors, runtime.NumCPU())
	fmt.Fprintf(out, "%-9s %-6s %-6s %-12s %-12s %-12s %-10s\n",
		"replicas", "wire", "fanout", "pred-ms/it", "meas-ms/it", "pred-spdup", "meas-spdup")
	fmt.Fprintf(out, "%-9d %-6s %-6s %-12.2f %-12.2f %-12.2f %-10.2f\n",
		1, "-", "-", float64(serialPer.Microseconds())/1e3, float64(serialPer.Microseconds())/1e3, 1.0, 1.0)

	// The design space the model covers: the tree at f32 and with the
	// int8 wire. WireScale comes from the codec's own WireLen so the
	// model can never drift from the implementation's framing.
	for _, k := range []int{2, 4} {
		if model.Batch%k != 0 {
			fmt.Fprintf(out, "%-9d skipped: global batch %d not divisible\n", k, model.Batch)
			continue
		}
		for _, wire := range []string{"f32", "int8"} {
			codec, err := transport.CodecByName(wire)
			if err != nil {
				return err
			}
			pred := m.Predict(w, simtime.ClusterShape{
				Replicas: k, Fanout: c.Fanout,
				WireScale: float64(codec.WireLen(w.ParamElems)) / float64(w.ParamElems),
			})
			// The measured column: what -role local does with these
			// flags as a rigid k-rank group that writes no files, timed
			// from launch to the last rank's return (net construction
			// included — milliseconds against calIters iterations).
			run := c
			run.Replicas, run.Iters, run.GradWire = k, calIters, wire
			run.Snapshot, run.Trace, run.Resume, run.ChaosMode = "", "", "", ""
			run.MinRanks, run.Rejoin, run.IterDeadline = 0, false, 0
			res, err := runGroup(run, model, io.Discard)
			if err != nil {
				return err
			}
			measuredPer := res.Elapsed / time.Duration(calIters)
			fmt.Fprintf(out, "%-9d %-6s %-6d %-12.2f %-12.2f %-12.2f %-10.2f\n",
				k, wire, c.Fanout, pred.TotalUS/1e3,
				float64(measuredPer.Microseconds())/1e3,
				pred.Speedup, float64(serialPer)/float64(measuredPer))
		}
	}
	return nil
}
