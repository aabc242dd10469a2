package bench

// The communication-cost figure behind DISTRIBUTED.md §9 and the
// PERFORMANCE.md comm-bytes table: for each gradient wire format, run a
// real in-process distributed group with metered transports and report
// the gradient bytes that actually crossed the wire per iteration beside
// the measured step time. Bytes are counted at the transport layer
// (transport.Meter), not computed from the codec's nominal ratio, so
// framing overhead (int8 group scale words, odd-tail padding) is in the
// number.

import (
	"fmt"
	"io"
	"sync"
	"time"

	"coarsegrain/internal/data"
	"coarsegrain/internal/dist"
	"coarsegrain/internal/net"
	"coarsegrain/internal/transport"
	"coarsegrain/internal/zoo"
)

// CommRow is one measured wire format.
type CommRow struct {
	Wire string
	// GradBytesPerIter is the gradient traffic (KindGrad frames) summed
	// over all ranks, per iteration, as metered at the transport layer.
	GradBytesPerIter int64
	// StepUS is the measured mean wall time of one lockstep iteration.
	StepUS float64
}

// CommResult holds the comm figure: every wire format over the same
// model, group size and seed, so rows differ only in the wire format.
type CommResult struct {
	Net        string
	Replicas   int
	Iterations int
	Rows       []CommRow
}

// Render prints the comm table. The reduction column is each row's
// bytes-on-wire ratio against the f32 row — the compression factor as
// measured, framing included.
func (r *CommResult) Render(w io.Writer) {
	fmt.Fprintf(w, "== %s gradient exchange: bytes on wire and step time (%d replicas, %d iters) ==\n",
		r.Net, r.Replicas, r.Iterations)
	fmt.Fprintf(w, "%-6s %14s %10s %12s\n", "wire", "grad-KB/iter", "reduction", "step-ms")
	var f32 float64
	for _, row := range r.Rows {
		if row.Wire == "f32" {
			f32 = float64(row.GradBytesPerIter)
		}
	}
	for _, row := range r.Rows {
		red := "-"
		if f32 > 0 && row.GradBytesPerIter > 0 && row.Wire != "f32" {
			red = fmt.Sprintf("%.2fx", f32/float64(row.GradBytesPerIter))
		}
		fmt.Fprintf(w, "%-6s %14.1f %10s %12.2f\n",
			row.Wire, float64(row.GradBytesPerIter)/1024, red, row.StepUS/1e3)
	}
}

// Comm measures the comm figure: a 4-rank in-process group per
// configuration, identical seeds and shards throughout, transports
// wrapped in Meters. Warmup iterations run before timing; byte counts
// are averaged over every iteration (per-iteration traffic is
// deterministic, so the average is exact).
func Comm(o Options) (*CommResult, error) {
	if err := o.normalize(); err != nil {
		return nil, err
	}
	const replicas = 4
	if o.Batch%replicas != 0 {
		return nil, fmt.Errorf("bench: batch %d not divisible by %d replicas", o.Batch, replicas)
	}
	res := &CommResult{Net: o.Net, Replicas: replicas, Iterations: o.Iterations}
	for _, wire := range []string{"f32", "f16", "int8"} {
		row, err := commRun(o, replicas, wire)
		if err != nil {
			return nil, fmt.Errorf("bench: %s: %w", wire, err)
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// commRun executes one configuration and meters it.
func commRun(o Options, replicas int, wire string) (CommRow, error) {
	row := CommRow{Wire: wire}
	meters := make([]*transport.Meter, replicas)
	trs := make([]transport.Transport, replicas)
	for i, l := range transport.NewLocalGroup(replicas) {
		meters[i] = transport.NewMeter(l)
		trs[i] = meters[i]
	}
	nets := make([]*net.Net, replicas)
	for r := 0; r < replicas; r++ {
		shard, err := data.NewShard(o.model.Source, r, replicas, o.Batch)
		if err != nil {
			return row, err
		}
		specs, err := zoo.Build(o.Net, shard, zoo.Options{BatchSize: shard.LocalBatch(), Seed: o.Seed})
		if err != nil {
			return row, err
		}
		if nets[r], err = net.New(specs, nil); err != nil {
			return row, err
		}
	}

	opts := dist.Options{GradWire: wire}
	var (
		wg      sync.WaitGroup
		mu      sync.Mutex
		errs    []error
		elapsed time.Duration
	)
	total := o.Warmup + o.Iterations
	for r := 0; r < replicas; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			defer trs[r].Close()
			var nd *dist.Node
			var err error
			if r == 0 {
				nd, err = dist.NewRoot(trs[r], nets[r], o.model.Solver, opts)
			} else {
				nd, err = dist.NewWorker(trs[r], nets[r], opts)
			}
			if err == nil {
				_, err = nd.Step(o.Warmup)
			}
			if err == nil {
				start := time.Now()
				_, err = nd.Step(o.Iterations)
				if r == 0 {
					elapsed = time.Since(start)
				}
			}
			if err != nil {
				mu.Lock()
				errs = append(errs, fmt.Errorf("rank %d: %w", r, err))
				mu.Unlock()
			}
		}(r)
	}
	wg.Wait()
	if len(errs) > 0 {
		return row, errs[0]
	}
	var bytes int64
	for _, m := range meters {
		bytes += m.GradBytes()
	}
	row.GradBytesPerIter = bytes / int64(total)
	row.StepUS = float64(elapsed.Microseconds()) / float64(o.Iterations)
	return row, nil
}
