package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call into a layer of the system, recorded from the
// benchmark's side of the call. Parent is the ID of the span that caused
// it (0 for none); spans of one iteration or request share Trace.
type span struct {
	ID     int32  `json:"id"`
	Parent int32  `json:"parent"`
	Trace  int64  `json:"trace"`
	Layer  string `json:"layer"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() int64 { return s.End - s.Start }

// maxSpans bounds a recorder's memory; further spans are counted, not kept.
const maxSpans = 400_000

// recorder keeps spans in memory until the run ends. It is safe for
// concurrent use (cluster ranks and serving callers share one).
type recorder struct {
	// off pauses recording: open returns 0 without reading the clock, and
	// the decorators built on the recorder pass straight through.
	off     atomic.Bool
	mu      sync.Mutex
	epoch   time.Time
	spans   []span
	dropped int
}

func newRecorder() *recorder {
	return &recorder{epoch: time.Now(), spans: make([]span, 0, 1<<16)}
}

// open starts a span now and returns its ID: 0, which close ignores, when
// there is no recorder, or it is paused or full.
func (r *recorder) open(parent int32, trace int64, layer, name string) int32 {
	if r == nil || r.off.Load() {
		return 0
	}
	return r.openAt(parent, trace, layer, name, time.Now())
}

// openAt starts a span at an explicit instant (an open-loop request's
// span starts when it was due, not when it was sent).
func (r *recorder) openAt(parent int32, trace int64, layer, name string, at time.Time) int32 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.spans) >= maxSpans {
		r.dropped++
		return 0
	}
	id := int32(len(r.spans) + 1)
	r.spans = append(r.spans, span{ID: id, Parent: parent, Trace: trace, Layer: layer, Name: name, Start: int64(at.Sub(r.epoch))})
	return id
}

// close ends span id now and returns its duration.
func (r *recorder) close(id int32) time.Duration {
	if id == 0 {
		return 0
	}
	end := int64(time.Since(r.epoch))
	r.mu.Lock()
	defer r.mu.Unlock()
	s := &r.spans[id-1]
	s.End = end
	return time.Duration(s.End - s.Start)
}

// selfTimes returns, per span ID, the span's duration minus the part of
// its interval that its direct children cover (overlapping children are
// counted once).
func selfTimes(spans []span) map[int32]int64 {
	children := map[int32][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[int32]int64, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		covered, edge := int64(0), s.Start
		for _, k := range kids {
			lo, hi := max(k.Start, edge), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[s.ID] = s.dur() - covered
	}
	return self
}

// meanDurByName returns the mean duration in nanoseconds of the spans of
// one layer, keyed by span name, averaged over iters traces.
func meanDurByName(spans []span, layer string, iters int) map[string]float64 {
	out := map[string]float64{}
	if iters == 0 {
		return out
	}
	for _, s := range spans {
		if s.Layer == layer {
			out[s.Name] += float64(s.dur())
		}
	}
	for k := range out {
		out[k] /= float64(iters)
	}
	return out
}

// traceFile is what trace_<workload>.json holds.
type traceFile struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Dropped  int    `json:"dropped_spans"`
	Spans    []span `json:"spans"`
}

// outDir is where result and trace files go: inside the benchmark's own
// directory, and named in the root .gitignore. Tests point it elsewhere.
var outDir = "out"

func (r *recorder) write(workload string, seed int64) (string, error) {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(outDir, "trace_"+workload+".json")
	raw, err := json.Marshal(traceFile{Workload: workload, Seed: seed, Dropped: r.dropped, Spans: r.spans})
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, raw, 0o644)
}
