package bench

import (
	"fmt"
	"io"
	"time"

	"coarsegrain/internal/core"
	"coarsegrain/internal/net"
	"coarsegrain/internal/zoo"
)

// EngineRow is one measured configuration in the engine comparison.
type EngineRow struct {
	Name string
	// MeanIterUS is the measured wall-clock mean of one full training
	// iteration (forward + backward).
	MeanIterUS float64
	// Loss is the iteration loss, to confirm the configurations compute
	// the same function.
	Loss float64
}

// EngineComparisonResult is the measured (wall-clock) comparison of every
// execution strategy on this host — the single experiment that remains
// fully *measured* even without the paper's hardware, because two of the
// contrasts (direct vs lowered convolution, plain vs tuned kernels) are
// algorithmic, not thread-count, effects.
type EngineComparisonResult struct {
	Net  string
	Rows []EngineRow
}

// Render prints the comparison with speedups over the first row.
func (r *EngineComparisonResult) Render(w io.Writer) {
	fmt.Fprintf(w, "== %s measured engine comparison (this host) ==\n", r.Net)
	if len(r.Rows) == 0 {
		return
	}
	base := r.Rows[0].MeanIterUS
	fmt.Fprintf(w, "%-24s %14s %10s %12s\n", "configuration", "iter (us)", "speedup", "loss")
	for _, row := range r.Rows {
		fmt.Fprintf(w, "%-24s %14.0f %9.2fx %12.6f\n", row.Name, row.MeanIterUS, base/row.MeanIterUS, row.Loss)
	}
}

// EngineComparison measures one training iteration of the benchmark under
// every engine, plus the lowered-convolution variant of the coarse engine.
func EngineComparison(o Options) (*EngineComparisonResult, error) {
	if err := o.normalize(); err != nil {
		return nil, err
	}
	workers := maxInt(o.Threads)
	type cfg struct {
		name    string
		engine  func() core.Engine
		lowered bool
	}
	cfgs := []cfg{
		{"sequential/direct-conv", func() core.Engine { return core.NewSequential() }, false},
		{"sequential/lowered-conv", func() core.Engine { return core.NewSequential() }, true},
		{fmt.Sprintf("coarse/%d/direct-conv", workers), func() core.Engine { return core.NewCoarse(workers) }, false},
		{fmt.Sprintf("coarse/%d/lowered-conv", workers), func() core.Engine { return core.NewCoarse(workers) }, true},
		{fmt.Sprintf("fine/%d", workers), func() core.Engine { return core.NewFine(workers) }, false},
		{fmt.Sprintf("tuned/%d", workers), func() core.Engine { return core.NewTuned(workers) }, false},
	}
	res := &EngineComparisonResult{Net: o.Net}
	for _, c := range cfgs {
		eng := c.engine()
		n, err := buildNetVariant(o, eng, c.lowered)
		if err != nil {
			eng.Close()
			return nil, err
		}
		for i := 0; i < o.Warmup; i++ {
			n.ZeroParamDiffs()
			n.ForwardBackward()
		}
		start := time.Now()
		var loss float64
		for i := 0; i < o.Iterations; i++ {
			n.ZeroParamDiffs()
			loss = n.ForwardBackward()
		}
		mean := time.Since(start) / time.Duration(o.Iterations)
		eng.Close()
		res.Rows = append(res.Rows, EngineRow{
			Name:       c.name,
			MeanIterUS: float64(mean.Microseconds()),
			Loss:       loss,
		})
	}
	return res, nil
}

// buildNetVariant is buildNet with control over the conv implementation.
func buildNetVariant(o Options, eng core.Engine, lowered bool) (*net.Net, error) {
	specs, err := zoo.Build(o.Net, o.model.Source, zoo.Options{BatchSize: o.Batch, Seed: o.Seed, LoweredConv: lowered})
	if err != nil {
		return nil, err
	}
	return net.New(specs, eng)
}
