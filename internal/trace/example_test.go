package trace_test

import (
	"fmt"
	"os"
	"time"

	"coarsegrain/internal/trace"
)

// ExampleTracer records a hand-built iteration — one layer timed on the
// driver and split across two workers — and renders the derived reports.
// Real code never constructs spans by hand: net/solver/par record them
// when a tracer is attached (see OBSERVABILITY.md).
func ExampleTracer() {
	tr := trace.New(2)

	// The driver measures the whole forward pass of conv1 over 8 samples...
	tr.Record(trace.Span{
		Name: "conv1", Phase: trace.PhaseForward, Rank: trace.RankDriver,
		Band: -1, Lo: 0, Hi: 8, Start: 0, Dur: 100 * time.Microsecond,
	})
	// ...and each worker records its static band of the coalesced loop.
	tr.Record(trace.Span{
		Name: "conv1", Phase: trace.PhaseForward, Rank: 0,
		Band: 0, Lo: 0, Hi: 4, Start: 0, Dur: 90 * time.Microsecond,
	})
	tr.Record(trace.Span{
		Name: "conv1", Phase: trace.PhaseForward, Rank: 1,
		Band: 1, Lo: 4, Hi: 8, Start: 0, Dur: 80 * time.Microsecond,
	})

	spans := tr.Snapshot()
	fmt.Printf("%d spans, %d dropped\n", len(spans), tr.Dropped())
	layers, _ := trace.PerLayer(tr) // the per-layer table's aggregate
	fmt.Printf("conv1 forward mean: %v\n", layers.Fwd["conv1"].Mean())
	trace.WriteUtilizationReport(os.Stdout, spans, tr.Workers())

	// Output:
	// 3 spans, 0 dropped
	// conv1 forward mean: 100µs
	// layer          phase        busy (us)    wall (us)    util   imbal  bands
	// conv1          forward          170.0        100.0   85.0%    1.06      2
	// TOTAL                           170.0        100.0   85.0%
	// per-worker busy:  r0 90.0us (52.9%)  r1 80.0us (47.1%)
}
