package trace

// This file implements Chrome trace-event export: the JSON object format
// consumed by chrome://tracing and by Perfetto's legacy-trace importer
// (https://ui.perfetto.dev → "Open trace file"). Every span becomes a
// complete ("X") event; the driver goroutine and each worker rank get
// their own named thread row, so band-level parallelism, worker
// imbalance and the serial reduce/update sections are directly visible
// on the timeline.

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// chromeEvent is one entry of the trace-event "traceEvents" array. Field
// names and units (ts/dur in microseconds) are fixed by the format.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"`
	Dur  float64        `json:"dur,omitempty"`
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// chromeTrace is the top-level JSON object.
type chromeTrace struct {
	TraceEvents     []chromeEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit"`
}

// chromePID is the single process id all rows share.
const chromePID = 1

// WriteChromeTrace writes the recorded spans as Chrome trace-event JSON.
// Like Snapshot, it must run while no parallel region is in flight.
func (t *Tracer) WriteChromeTrace(w io.Writer) error {
	if t == nil {
		return fmt.Errorf("trace: nil tracer")
	}
	spans := t.Snapshot()
	events := make([]chromeEvent, 0, len(spans)+t.Workers()+2)

	// Metadata rows: name the process and one thread per writer. The
	// sort index keeps the driver row on top.
	events = append(events, chromeEvent{
		Name: "process_name", Ph: "M", PID: chromePID, TID: 0,
		Args: map[string]any{"name": "coarsegrain training"},
	})
	events = append(events, chromeEvent{
		Name: "thread_name", Ph: "M", PID: chromePID, TID: 0,
		Args: map[string]any{"name": "driver (net/solver)"},
	})
	for r := 0; r < t.Workers(); r++ {
		events = append(events, chromeEvent{
			Name: "thread_name", Ph: "M", PID: chromePID, TID: r + 1,
			Args: map[string]any{"name": fmt.Sprintf("worker %d", r)},
		})
	}

	for _, s := range spans {
		args := map[string]any{"phase": s.Phase.String()}
		if s.Band >= 0 {
			args["band"] = s.Band
		}
		if s.Lo != s.Hi {
			args["lo"], args["hi"] = s.Lo, s.Hi
		}
		if s.FLOPs > 0 {
			args["flops"] = s.FLOPs
		}
		if s.Bytes > 0 {
			args["bytes"] = s.Bytes
		}
		events = append(events, chromeEvent{
			Name: s.Name + " " + s.Phase.short(),
			Cat:  s.Phase.String(),
			Ph:   "X",
			TS:   float64(s.Start.Nanoseconds()) / 1e3,
			Dur:  float64(s.Dur.Nanoseconds()) / 1e3,
			PID:  chromePID,
			TID:  s.Rank + 1,
			Args: args,
		})
	}

	enc := json.NewEncoder(w)
	return enc.Encode(chromeTrace{TraceEvents: events, DisplayTimeUnit: "ms"})
}

// WriteChromeTraceFile writes the trace to path, creating or truncating
// the file.
func (t *Tracer) WriteChromeTraceFile(path string) error {
	if t == nil {
		return nil
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	if err := t.WriteChromeTrace(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// ChromeStats summarizes a validated trace file.
type ChromeStats struct {
	// Events is the total event count, Complete the "X" span count,
	// Meta the metadata ("M") count.
	Events, Complete, Meta int
	// Threads is the number of distinct tid rows seen.
	Threads int
	// WallUS is the span of [min ts, max ts+dur] in microseconds.
	WallUS float64
}

// The validator accepts exactly the categories the exporters emit: the
// shared phase vocabulary (phaseNames in trace.go). A span whose Phase
// has no table row exports as category phase(N), so adding a Phase
// without its row fails CI's trace smoke instead of shipping unlabeled
// spans (TestValidateRejectsOutOfRangePhase).

// ValidateChromeTrace parses trace-event JSON from r and checks the
// invariants the exporters guarantee: a non-empty traceEvents array,
// every complete event carrying a name, a known phase category and
// non-negative ts/dur, and a consistent pid. It is the "tiny Go check"
// scripts/check.sh runs over the dnnbench smoke trace (via
// cmd/tracecheck).
func ValidateChromeTrace(r io.Reader) (ChromeStats, error) {
	var doc chromeTrace
	dec := json.NewDecoder(r)
	if err := dec.Decode(&doc); err != nil {
		return ChromeStats{}, fmt.Errorf("trace: invalid JSON: %w", err)
	}
	if len(doc.TraceEvents) == 0 {
		return ChromeStats{}, fmt.Errorf("trace: empty traceEvents array")
	}
	stats := ChromeStats{Events: len(doc.TraceEvents)}
	tids := make(map[int]bool)
	var minTS, maxEnd float64
	first := true
	for i, ev := range doc.TraceEvents {
		if ev.Name == "" {
			return stats, fmt.Errorf("trace: event %d has no name", i)
		}
		if ev.PID != chromePID {
			return stats, fmt.Errorf("trace: event %d has pid %d, want %d", i, ev.PID, chromePID)
		}
		tids[ev.TID] = true
		switch ev.Ph {
		case "M":
			stats.Meta++
		case "X":
			if ev.TS < 0 || ev.Dur < 0 {
				return stats, fmt.Errorf("trace: event %d (%s) has negative ts/dur", i, ev.Name)
			}
			if !KnownPhase(ev.Cat) {
				return stats, fmt.Errorf("trace: event %d (%s) has unknown phase category %q", i, ev.Name, ev.Cat)
			}
			stats.Complete++
			if first || ev.TS < minTS {
				minTS = ev.TS
			}
			if end := ev.TS + ev.Dur; first || end > maxEnd {
				maxEnd = end
			}
			first = false
		default:
			return stats, fmt.Errorf("trace: event %d has unsupported phase %q", i, ev.Ph)
		}
	}
	if stats.Complete == 0 {
		return stats, fmt.Errorf("trace: no complete (X) spans")
	}
	stats.Threads = len(tids)
	stats.WallUS = maxEnd - minTS
	return stats, nil
}

// ValidateChromeTraceFile is ValidateChromeTrace over a file.
func ValidateChromeTraceFile(path string) (ChromeStats, error) {
	f, err := os.Open(path)
	if err != nil {
		return ChromeStats{}, fmt.Errorf("trace: %w", err)
	}
	defer f.Close()
	return ValidateChromeTrace(f)
}
