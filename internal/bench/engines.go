package bench

import (
	"fmt"
	"io"

	"coarsegrain/internal/core"
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
// fully *measured* even without the paper's hardware, because one of its
// two axes (direct vs lowered convolution) is an algorithmic, not a
// thread-count, effect.
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
	fmt.Fprintf(w, "%-24s %14s %10s %14s\n", "configuration", "iter (us)", "speedup", "loss")
	for _, row := range r.Rows {
		fmt.Fprintf(w, "%-24s %14.0f %9.2fx %14.9f\n", row.Name, row.MeanIterUS, base/row.MeanIterUS, row.Loss)
	}
}

// EngineComparison measures one training iteration of the benchmark in
// every cell of the paper's two ablation axes: where the parallelism lives
// (sequential, coarse, fine) by which convolution kernel runs (the direct
// loop nest, the lowered im2col+GEMM). No row updates the weights and
// every engine's forward pass is bit-identical to sequential on either
// kernel, so the rows of one kernel print one loss.
func EngineComparison(o Options) (*EngineComparisonResult, error) {
	if err := o.normalize(); err != nil {
		return nil, err
	}
	workers := maxInt(o.Threads)
	engines := []struct {
		name string
		make func() core.Engine
	}{
		{"sequential", func() core.Engine { return core.NewSequential() }},
		{fmt.Sprintf("coarse/%d", workers), func() core.Engine { return core.NewCoarse(workers) }},
		{fmt.Sprintf("fine/%d", workers), func() core.Engine { return core.NewFine(workers) }},
	}
	res := &EngineComparisonResult{Net: o.Net}
	for _, e := range engines {
		for _, kernel := range []string{"direct", "lowered"} {
			eng := e.make()
			mean, loss, err := MeasureEngine(o, eng, kernel == "lowered")
			eng.Close()
			if err != nil {
				return nil, err
			}
			res.Rows = append(res.Rows, EngineRow{
				Name:       e.name + "/" + kernel + "-conv",
				MeanIterUS: float64(mean.Microseconds()),
				Loss:       loss,
			})
		}
	}
	return res, nil
}
