package trace

// This file derives the textual reports from a span snapshot:
//
//   - PerLayer folds the driver-side layer spans into the paper-style
//     per-layer table (cmd/layerprof, the Figure 4/7 experiments): count,
//     mean and minimum per layer and phase, each layer's share of the
//     iteration, and the layers that dominate it;
//   - UtilizationReport compares the time each worker rank was busy
//     inside a layer's parallel regions against the driver-observed wall
//     time of those regions, yielding per-layer utilization and the
//     static-schedule imbalance the paper's §4.2 scalability discussion
//     attributes the efficiency losses to.

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"time"
)

// LayerStat aggregates the driver spans of one layer and phase.
type LayerStat struct {
	Count      int
	Total, Min time.Duration
}

// Mean returns the average duration (0 when nothing was recorded).
func (s LayerStat) Mean() time.Duration {
	if s.Count == 0 {
		return 0
	}
	return s.Total / time.Duration(s.Count)
}

// LayerTimes is the per-layer view of a trace. A layer absent from a
// phase (the data layer's backward) reads as the zero LayerStat.
type LayerTimes struct {
	Names    []string // first-seen (network) order
	Fwd, Bwd map[string]LayerStat
}

// PerLayer aggregates the driver-side forward and backward spans t
// holds into per-layer times. It refuses a tracer that dropped spans: a
// wrapped ring keeps only the newest window, so the table would average
// the tail of the run and start mid-network. Size the rings for the run
// with NewWithCapacity and IterCapacity.
func PerLayer(t *Tracer) (*LayerTimes, error) {
	if d := t.Dropped(); d > 0 {
		return nil, fmt.Errorf("trace: %d spans dropped (a ring of %d per writer wrapped); per-layer table withheld", d, cap(t.shards[0].buf))
	}
	lt := &LayerTimes{Fwd: map[string]LayerStat{}, Bwd: map[string]LayerStat{}}
	for _, s := range t.Snapshot() {
		m := lt.Fwd
		switch {
		case s.Rank != RankDriver:
			continue
		case s.Phase == PhaseBackward:
			m = lt.Bwd
		case s.Phase != PhaseForward:
			continue
		}
		_, seenF := lt.Fwd[s.Name]
		if _, seenB := lt.Bwd[s.Name]; !seenF && !seenB {
			lt.Names = append(lt.Names, s.Name)
		}
		st := m[s.Name]
		if st.Count == 0 || s.Dur < st.Min {
			st.Min = s.Dur
		}
		st.Count++
		st.Total += s.Dur
		m[s.Name] = st
	}
	return lt, nil
}

// Cost is a layer's mean forward plus mean backward time.
func (lt *LayerTimes) Cost(name string) time.Duration {
	return lt.Fwd[name].Mean() + lt.Bwd[name].Mean()
}

// Total is the sum of every layer's Cost — the mean cost of one full
// iteration.
func (lt *LayerTimes) Total() time.Duration {
	var t time.Duration
	for _, n := range lt.Names {
		t += lt.Cost(n)
	}
	return t
}

// Dominating returns the most expensive layers, costliest first, that
// together account for at least frac of Total — the paper's observation
// that conv and pool layers take ~80% of an iteration.
func (lt *LayerTimes) Dominating(frac float64) []string {
	names := append([]string(nil), lt.Names...)
	sort.SliceStable(names, func(i, j int) bool { return lt.Cost(names[i]) > lt.Cost(names[j]) })
	total := float64(lt.Total())
	var acc time.Duration
	for i, n := range names {
		if acc += lt.Cost(n); float64(acc) >= frac*total {
			return names[:i+1]
		}
	}
	return names
}

// Table renders a fixed-width per-layer table of mean microseconds, in the
// style of the paper's Figures 4 and 7 (absolute layer times plus relative
// weight of the total).
func (lt *LayerTimes) Table() string {
	var b strings.Builder
	total := lt.Total()
	fmt.Fprintf(&b, "%-12s %14s %14s %8s\n", "layer", "fwd (us)", "bwd (us)", "weight")
	for _, n := range lt.Names {
		rel := 0.0
		if total > 0 {
			rel = float64(lt.Cost(n)) / float64(total) * 100
		}
		fmt.Fprintf(&b, "%-12s %14.1f %14.1f %7.1f%%\n", n,
			float64(lt.Fwd[n].Mean().Microseconds()), float64(lt.Bwd[n].Mean().Microseconds()), rel)
	}
	fmt.Fprintf(&b, "%-12s %14s %14s\n", "TOTAL", fmt.Sprintf("%.1f", float64(total.Microseconds())), "")
	return b.String()
}

// regionKey identifies one aggregated parallel-region family.
type regionKey struct {
	name  string
	phase Phase
}

// regionStat accumulates worker-side busy time and driver-side wall time
// for one (layer, phase).
type regionStat struct {
	busy  []time.Duration // per-rank busy time inside the region family
	wall  time.Duration   // driver-observed total duration of the family
	spans int             // worker spans aggregated
	bands map[int]bool    // distinct band indices seen
}

// Utilization summarizes one (layer, phase) region family.
type Utilization struct {
	Name  string
	Phase Phase
	// Busy is the summed worker busy time, Wall the driver-observed wall
	// time of the enclosing engine calls.
	Busy, Wall time.Duration
	// Util is Busy / (Workers × Wall) — 1.0 means every rank was busy
	// for the whole region.
	Util float64
	// Imbalance is max(per-rank busy) / mean(per-rank busy) over ranks
	// that did any work — 1.0 is a perfectly balanced static schedule.
	Imbalance float64
	// Bands is the number of distinct schedule bands observed.
	Bands int
	// Spans is the number of worker spans aggregated.
	Spans int
}

// ComputeUtilization aggregates a snapshot into per-(layer, phase)
// utilization rows, ordered by first appearance of the driver span.
// workers is the pool team size the busy time is normalized against.
// Reduce rows aggregate the element-parallel ordered merge's per-worker
// fold spans against the driver's merge wall time, so the reduce section
// shows up with its own utilization instead of hiding inside backward.
// Comm rows (internal/dist's scatter/fold/gather/bcast and the codec's
// encode/decode) are driver-side costs with no worker busy time: they
// report wall time, span count, and distinct peers in Bands, with Util
// and Imbalance zero. Compute phases without worker spans (sequential
// layers, update) produce no row.
func ComputeUtilization(spans []Span, workers int) []Utilization {
	if workers < 1 {
		workers = 1
	}
	stats := make(map[regionKey]*regionStat)
	var order []regionKey
	get := func(k regionKey) *regionStat {
		st, ok := stats[k]
		if !ok {
			st = &regionStat{busy: make([]time.Duration, workers), bands: make(map[int]bool)}
			stats[k] = st
			order = append(order, k)
		}
		return st
	}
	for _, s := range spans {
		if s.Phase != PhaseForward && s.Phase != PhaseBackward &&
			s.Phase != PhaseRegion && s.Phase != PhaseReduce &&
			s.Phase != PhaseComm {
			continue
		}
		k := regionKey{s.Name, s.Phase}
		if s.Phase == PhaseRegion {
			// Region spans are the coarse backward's privatize+compute
			// body; fold them into the backward family.
			k.phase = PhaseBackward
		}
		if s.Phase == PhaseComm {
			// Comm spans are driver-side only (the dist node runs on the
			// driving goroutine): wall time is the cost, Band is the peer
			// rank, and there is no worker busy time to normalize. One
			// row per sub-phase — scatter/fold/gather/bcast and, under a
			// lossy wire format, encode/decode — so the codec's CPU cost
			// is visible beside the wire time it bought.
			st := get(k)
			st.wall += s.Dur
			st.spans++
			st.bands[s.Band] = true
			continue
		}
		st := get(k)
		if s.Rank == RankDriver {
			st.wall += s.Dur
			continue
		}
		if s.Rank >= 0 && s.Rank < workers {
			st.busy[s.Rank] += s.Dur
			st.spans++
			st.bands[s.Band] = true
		}
	}

	var out []Utilization
	for _, k := range order {
		st := stats[k]
		if st.spans == 0 {
			continue
		}
		var busy, maxBusy time.Duration
		active := 0
		for _, b := range st.busy {
			busy += b
			if b > maxBusy {
				maxBusy = b
			}
			if b > 0 {
				active++
			}
		}
		u := Utilization{
			Name: k.name, Phase: k.phase,
			Busy: busy, Wall: st.wall,
			Bands: len(st.bands), Spans: st.spans,
		}
		if st.wall > 0 {
			u.Util = float64(busy) / (float64(workers) * float64(st.wall))
		}
		if active > 0 {
			mean := float64(busy) / float64(active)
			if mean > 0 {
				u.Imbalance = float64(maxBusy) / mean
			}
		}
		out = append(out, u)
	}
	return out
}

// WorkerBusy returns the total busy time of each rank across all worker
// spans — the per-worker row of the utilization report.
func WorkerBusy(spans []Span, workers int) []time.Duration {
	if workers < 1 {
		workers = 1
	}
	busy := make([]time.Duration, workers)
	for _, s := range spans {
		if s.Rank >= 0 && s.Rank < workers {
			busy[s.Rank] += s.Dur
		}
	}
	return busy
}

// WriteUtilizationReport renders the worker-utilization/imbalance table
// for a snapshot: one row per traced (layer, phase) parallel-region
// family, an overall line, and the per-rank busy totals. This is the
// report OBSERVABILITY.md's methodology section builds the paper's
// Figure 5/8 efficiency analysis from.
func WriteUtilizationReport(w io.Writer, spans []Span, workers int) {
	rows := ComputeUtilization(spans, workers)
	fmt.Fprintf(w, "%-14s %-9s %12s %12s %7s %7s %6s\n",
		"layer", "phase", "busy (us)", "wall (us)", "util", "imbal", "bands")
	var totBusy, totWall, commWall time.Duration
	for _, u := range rows {
		fmt.Fprintf(w, "%-14s %-9s %12.1f %12.1f %6.1f%% %7.2f %6d\n",
			u.Name, u.Phase, us(u.Busy), us(u.Wall), u.Util*100, u.Imbalance, u.Bands)
		if u.Phase == PhaseComm {
			// Comm rows have no worker busy time; folding their wall
			// time into the compute TOTAL would dilute its utilization.
			commWall += u.Wall
			continue
		}
		totBusy += u.Busy
		totWall += u.Wall
	}
	if commWall > 0 {
		fmt.Fprintf(w, "%-14s %-9s %12s %12.1f\n", "COMM", "", "-", us(commWall))
	}
	if totWall > 0 {
		fmt.Fprintf(w, "%-14s %-9s %12.1f %12.1f %6.1f%%\n",
			"TOTAL", "", us(totBusy), us(totWall),
			float64(totBusy)/(float64(workers)*float64(totWall))*100)
	}
	busy := WorkerBusy(spans, workers)
	var sum time.Duration
	for _, b := range busy {
		sum += b
	}
	fmt.Fprintf(w, "per-worker busy:")
	for r, b := range busy {
		share := 0.0
		if sum > 0 {
			share = float64(b) / float64(sum) * 100
		}
		fmt.Fprintf(w, "  r%d %.1fus (%.1f%%)", r, us(b), share)
	}
	fmt.Fprintln(w)
}

// us converts a duration to float microseconds.
func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }
