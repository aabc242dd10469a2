package trace

import (
	"strings"
	"testing"
	"time"
)

// perLayerOf records spans in order, as driver spans unless they name a
// worker rank (1), and aggregates them.
func perLayerOf(t *testing.T, spans ...Span) *LayerTimes {
	t.Helper()
	tr := New(2)
	for i, s := range spans {
		if s.Rank == 0 {
			s.Rank = RankDriver
		}
		s.Start = time.Duration(i)
		tr.Record(s)
	}
	lt, err := PerLayer(tr)
	if err != nil {
		t.Fatal(err)
	}
	return lt
}

// TestPerLayerOnSample pins the aggregate against buildSample: only driver
// forward/backward spans count, layers keep first-seen order, and the
// table is the paper-style layout.
func TestPerLayerOnSample(t *testing.T) {
	lt, err := PerLayer(buildSample())
	if err != nil {
		t.Fatal(err)
	}
	if got := lt.Names; len(got) != 2 || got[0] != "conv1" || got[1] != "ip1" {
		t.Fatalf("layers = %v", got)
	}
	// buildSample records two 10us forward and two 12us backward driver
	// spans per layer.
	if st := lt.Fwd["conv1"]; st.Count != 2 || st.Mean() != 10*time.Microsecond || st.Min != 10*time.Microsecond {
		t.Fatalf("conv1 fwd = %+v", st)
	}
	if got := lt.Bwd["conv1"].Mean(); got != 12*time.Microsecond {
		t.Fatalf("conv1 bwd mean = %v", got)
	}
	if lt.Total() != 44*time.Microsecond {
		t.Fatalf("total = %v", lt.Total())
	}
	table := lt.Table()
	for _, want := range []string{"layer", "fwd (us)", "bwd (us)", "weight", "conv1", "ip1", "50.0%", "TOTAL", "44.0"} {
		if !strings.Contains(table, want) {
			t.Fatalf("table missing %q:\n%s", want, table)
		}
	}
}

// TestPerLayerStats checks count, total, min and mean per phase; worker
// spans and non-compute phases are ignored.
func TestPerLayerStats(t *testing.T) {
	lt := perLayerOf(t,
		Span{Name: "conv1", Phase: PhaseForward, Dur: 30 * time.Microsecond},
		Span{Name: "conv1", Phase: PhaseForward, Dur: 10 * time.Microsecond},
		Span{Name: "conv1", Phase: PhaseBackward, Dur: 100 * time.Microsecond},
		Span{Name: "conv1", Phase: PhaseForward, Rank: 1, Dur: time.Hour}, // worker span: ignored
		Span{Name: "conv1", Phase: PhaseReduce, Dur: time.Hour},
	)
	st := lt.Fwd["conv1"]
	if st.Count != 2 || st.Total != 40*time.Microsecond || st.Min != 10*time.Microsecond || st.Mean() != 20*time.Microsecond {
		t.Fatalf("conv1 fwd %+v", st)
	}
	if st := lt.Bwd["conv1"]; st.Count != 1 || st.Mean() != 100*time.Microsecond {
		t.Fatalf("conv1 bwd %+v", st)
	}
}

func TestPerLayerFirstSeenOrder(t *testing.T) {
	lt := perLayerOf(t,
		Span{Name: "b", Phase: PhaseForward, Dur: time.Microsecond},
		Span{Name: "a", Phase: PhaseForward, Dur: time.Microsecond},
		Span{Name: "b", Phase: PhaseBackward, Dur: time.Microsecond},
	)
	if got := lt.Names; len(got) != 2 || got[0] != "b" || got[1] != "a" {
		t.Fatalf("order %v", got)
	}
}

// TestPerLayerMissingIsZero: a layer or phase never recorded reads as the
// zero LayerStat, whose mean is 0.
func TestPerLayerMissingIsZero(t *testing.T) {
	lt := perLayerOf(t, Span{Name: "a", Phase: PhaseForward, Dur: time.Microsecond})
	if lt.Bwd["a"] != (LayerStat{}) || lt.Fwd["nope"].Count != 0 || lt.Cost("nope") != 0 {
		t.Fatal("missing layer/phase should read as zero")
	}
	if (LayerStat{}).Mean() != 0 {
		t.Fatal("zero stat mean should be 0")
	}
}

// TestPerLayerTotal: the iteration total sums every layer's forward and
// backward means.
func TestPerLayerTotal(t *testing.T) {
	lt := perLayerOf(t,
		Span{Name: "a", Phase: PhaseForward, Dur: 10 * time.Microsecond},
		Span{Name: "a", Phase: PhaseBackward, Dur: 20 * time.Microsecond},
		Span{Name: "b", Phase: PhaseForward, Dur: 5 * time.Microsecond},
	)
	if lt.Total() != 35*time.Microsecond {
		t.Fatalf("total %v", lt.Total())
	}
}

// TestPerLayerTable: the table lists every layer with its relative weight
// and a TOTAL row.
func TestPerLayerTable(t *testing.T) {
	lt := perLayerOf(t,
		Span{Name: "conv1", Phase: PhaseForward, Dur: 75 * time.Microsecond},
		Span{Name: "conv1", Phase: PhaseBackward},
		Span{Name: "loss", Phase: PhaseForward, Dur: 25 * time.Microsecond},
	)
	tbl := lt.Table()
	for _, want := range []string{"conv1", "loss", "75.0", "TOTAL"} {
		if !strings.Contains(tbl, want) {
			t.Fatalf("table missing %q:\n%s", want, tbl)
		}
	}
	if !strings.Contains(tbl, "75.0%") {
		t.Fatalf("relative weight missing:\n%s", tbl)
	}
}

func TestPerLayerDominating(t *testing.T) {
	tr := New(1)
	for i, c := range []struct {
		name string
		us   int
	}{{"small", 1}, {"big", 100}, {"mid", 10}} {
		tr.Record(Span{Name: c.name, Phase: PhaseForward, Rank: RankDriver, Start: time.Duration(i),
			Dur: time.Duration(c.us) * time.Microsecond})
	}
	lt, err := PerLayer(tr)
	if err != nil {
		t.Fatal(err)
	}
	if got := lt.Dominating(0.8); len(got) != 1 || got[0] != "big" {
		t.Fatalf("80%%: %v", got)
	}
	if got := lt.Dominating(1); len(got) != 3 || got[0] != "big" || got[1] != "mid" || got[2] != "small" {
		t.Fatalf("100%%: %v", got)
	}
}

// TestPerLayerRefusesWrappedRing: once a ring wraps, the table would
// average only the tail window and start mid-network, so PerLayer must
// report the dropped spans instead; a ring sized with IterCapacity holds
// the whole run.
func TestPerLayerRefusesWrappedRing(t *testing.T) {
	record := func(tr *Tracer, iters int) {
		for it := 0; it < iters; it++ {
			for _, l := range []string{"data", "conv1", "ip1"} {
				tr.Record(Span{Name: l, Phase: PhaseForward, Rank: RankDriver, Dur: time.Microsecond})
			}
		}
	}
	small := NewWithCapacity(1, 4)
	record(small, 3)
	if _, err := PerLayer(small); err == nil || !strings.Contains(err.Error(), "5 spans dropped") {
		t.Fatalf("wrapped ring: err = %v", err)
	}
	sized := NewWithCapacity(1, IterCapacity(3, 3))
	record(sized, 3)
	lt, err := PerLayer(sized)
	if err != nil {
		t.Fatal(err)
	}
	if lt.Names[0] != "data" || lt.Fwd["data"].Count != 3 {
		t.Fatalf("sized ring: %v %+v", lt.Names, lt.Fwd["data"])
	}
}

func TestComputeUtilization(t *testing.T) {
	tr := buildSample()
	rows := ComputeUtilization(tr.Snapshot(), 2)
	if len(rows) != 4 { // 2 layers × fwd/bwd
		t.Fatalf("got %d rows: %+v", len(rows), rows)
	}
	byKey := map[string]Utilization{}
	for _, u := range rows {
		byKey[u.Name+"/"+u.Phase.String()] = u
	}
	u, ok := byKey["conv1/forward"]
	if !ok {
		t.Fatalf("no conv1/forward row: %+v", rows)
	}
	// Two iterations: busy = 2*(8+6)us = 28us, wall = 2*10us = 20us,
	// util = 28/(2*20) = 0.70, imbalance = 8/7.
	if u.Busy != 28*time.Microsecond || u.Wall != 20*time.Microsecond {
		t.Fatalf("busy/wall = %v/%v", u.Busy, u.Wall)
	}
	if u.Util < 0.699 || u.Util > 0.701 {
		t.Fatalf("util = %v, want 0.70", u.Util)
	}
	if u.Imbalance < 1.14 || u.Imbalance > 1.15 {
		t.Fatalf("imbalance = %v, want 8/7", u.Imbalance)
	}
	if u.Bands != 2 || u.Spans != 4 {
		t.Fatalf("bands/spans = %d/%d", u.Bands, u.Spans)
	}
}

func TestWorkerBusy(t *testing.T) {
	tr := buildSample()
	busy := WorkerBusy(tr.Snapshot(), 2)
	if len(busy) != 2 {
		t.Fatalf("len = %d", len(busy))
	}
	// Rank 0: 2 iters × (8+8 fwd + 9+9 bwd)us = 68us.
	if busy[0] != 68*time.Microsecond {
		t.Fatalf("rank 0 busy = %v", busy[0])
	}
	// Rank 1: 2 iters × (6+6 fwd + 10+10 bwd)us = 64us.
	if busy[1] != 64*time.Microsecond {
		t.Fatalf("rank 1 busy = %v", busy[1])
	}
}

func TestWriteUtilizationReport(t *testing.T) {
	tr := buildSample()
	var b strings.Builder
	WriteUtilizationReport(&b, tr.Snapshot(), 2)
	out := b.String()
	for _, want := range []string{"layer", "util", "imbal", "conv1", "ip1", "TOTAL", "per-worker busy:", "r0", "r1"} {
		if !strings.Contains(out, want) {
			t.Fatalf("report missing %q:\n%s", want, out)
		}
	}
}

// Comm spans (internal/dist's driver-side exchange phases, including the
// codec's encode/decode) must surface as their own report rows: wall
// time and span count with distinct peers in Bands, and no dilution of
// the compute TOTAL's utilization.
func TestUtilizationReportShowsCommPhases(t *testing.T) {
	tr := New(2)
	tr.Record(Span{Name: "ip1", Phase: PhaseBackward, Rank: RankDriver, Dur: 100 * time.Microsecond})
	tr.Record(Span{Name: "ip1", Phase: PhaseBackward, Rank: 0, Dur: 90 * time.Microsecond})
	tr.Record(Span{Name: "ip1", Phase: PhaseBackward, Rank: 1, Dur: 90 * time.Microsecond})
	tr.Record(Span{Name: "encode", Phase: PhaseComm, Rank: RankDriver, Band: -1, Dur: 30 * time.Microsecond})
	tr.Record(Span{Name: "encode", Phase: PhaseComm, Rank: RankDriver, Band: -1, Dur: 10 * time.Microsecond})
	tr.Record(Span{Name: "decode", Phase: PhaseComm, Rank: RankDriver, Band: 1, Dur: 20 * time.Microsecond})
	spans := tr.Snapshot()

	rows := ComputeUtilization(spans, 2)
	byName := map[string]Utilization{}
	for _, u := range rows {
		byName[u.Name+"/"+u.Phase.String()] = u
	}
	enc, ok := byName["encode/comm"]
	if !ok {
		t.Fatalf("no encode comm row in %+v", rows)
	}
	if enc.Wall != 40*time.Microsecond || enc.Spans != 2 || enc.Busy != 0 {
		t.Fatalf("encode row wrong: %+v", enc)
	}
	dec, ok := byName["decode/comm"]
	if !ok || dec.Wall != 20*time.Microsecond {
		t.Fatalf("decode row wrong: %+v (ok=%v)", dec, ok)
	}

	var buf strings.Builder
	WriteUtilizationReport(&buf, spans, 2)
	out := buf.String()
	for _, want := range []string{"encode", "decode", "COMM"} {
		if !strings.Contains(out, want) {
			t.Fatalf("report missing %q:\n%s", want, out)
		}
	}
	// The compute TOTAL must not be diluted by comm wall time:
	// busy 180us / (2 workers x 100us wall) = 90%.
	if !strings.Contains(out, "90.0%") {
		t.Fatalf("compute TOTAL diluted by comm wall:\n%s", out)
	}
}
