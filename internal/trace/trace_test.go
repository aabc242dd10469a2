package trace

import (
	"bytes"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestNilTracerIsInert(t *testing.T) {
	var tr *Tracer
	if tr.Enabled() {
		t.Fatal("nil tracer reports enabled")
	}
	// Every exported method, called on a nil receiver with zero-value
	// arguments, must return without panicking: untraced call sites hold
	// a nil handle and call it unguarded.
	v := reflect.ValueOf(tr)
	for i := 0; i < v.NumMethod(); i++ {
		m, name := v.Method(i), v.Type().Method(i).Name
		args := make([]reflect.Value, m.Type().NumIn())
		for j := range args {
			args[j] = reflect.Zero(m.Type().In(j))
		}
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Errorf("nil (*Tracer).%s panicked: %v", name, r)
				}
			}()
			m.Call(args)
		}()
	}
	if t.Failed() {
		return
	}
	if tr.Len() != 0 || tr.Dropped() != 0 || tr.Workers() != 0 {
		t.Fatal("nil tracer has state")
	}
	if got := tr.Snapshot(); got != nil {
		t.Fatalf("nil tracer snapshot = %v", got)
	}
	if tr.Now() != 0 || tr.Stamp(time.Now()) != 0 || !tr.Epoch().IsZero() {
		t.Fatal("nil tracer clock not zero")
	}
	if name, phase := tr.Scope(); name != "" || phase != PhaseRegion {
		t.Fatalf("nil tracer scope = (%q, %v)", name, phase)
	}
	if err := tr.WriteChromeTrace(&bytes.Buffer{}); err == nil {
		t.Fatal("nil tracer export succeeded")
	}
}

func TestRecordRoutesByRank(t *testing.T) {
	tr := New(2)
	tr.Record(Span{Name: "drv", Rank: RankDriver, Dur: time.Microsecond})
	tr.Record(Span{Name: "w0", Rank: 0, Dur: time.Microsecond})
	tr.Record(Span{Name: "w1", Rank: 1, Dur: time.Microsecond})
	if tr.Len() != 3 {
		t.Fatalf("Len = %d, want 3", tr.Len())
	}
	// A rank the tracer has no shard for is dropped, not raced.
	tr.Record(Span{Name: "w9", Rank: 9})
	if tr.Len() != 3 || tr.Dropped() != 1 {
		t.Fatalf("unknown rank: Len=%d Dropped=%d", tr.Len(), tr.Dropped())
	}
}

func TestRingOverwritesOldest(t *testing.T) {
	tr := NewWithCapacity(1, 4)
	for i := 0; i < 10; i++ {
		tr.Record(Span{Name: "s", Rank: 0, Lo: i, Hi: i + 1, Start: time.Duration(i)})
	}
	spans := tr.Snapshot()
	if len(spans) != 4 {
		t.Fatalf("kept %d spans, want 4", len(spans))
	}
	if tr.Dropped() != 6 {
		t.Fatalf("Dropped = %d, want 6", tr.Dropped())
	}
	// The survivors are the newest, in order.
	for i, s := range spans {
		if want := 6 + i; s.Lo != want {
			t.Fatalf("span %d has Lo %d, want %d", i, s.Lo, want)
		}
	}
}

func TestSnapshotOrdersByStart(t *testing.T) {
	tr := New(2)
	tr.Record(Span{Name: "late", Rank: 1, Start: 300})
	tr.Record(Span{Name: "early", Rank: 0, Start: 100})
	tr.Record(Span{Name: "mid", Rank: RankDriver, Start: 200})
	got := tr.Snapshot()
	want := []string{"early", "mid", "late"}
	for i, name := range want {
		if got[i].Name != name {
			t.Fatalf("snapshot[%d] = %s, want %s", i, got[i].Name, name)
		}
	}
}

// TestConcurrentRecording exercises the lock-free single-writer-per-shard
// contract under the race detector: one goroutine per rank, all recording
// simultaneously, plus the driver on its own shard.
func TestConcurrentRecording(t *testing.T) {
	const workers = 8
	const perRank = 500
	tr := New(workers)
	var wg sync.WaitGroup
	for r := 0; r < workers; r++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			for i := 0; i < perRank; i++ {
				tr.Record(Span{Name: "conv1", Phase: PhaseForward, Rank: rank, Band: rank, Lo: i, Hi: i + 1, Dur: time.Microsecond})
			}
		}(r)
	}
	for i := 0; i < perRank; i++ {
		tr.Record(Span{Name: "conv1", Phase: PhaseForward, Rank: RankDriver, Dur: time.Microsecond})
	}
	wg.Wait()
	if got, want := tr.Len(), (workers+1)*perRank; got != want {
		t.Fatalf("Len = %d, want %d", got, want)
	}
	if tr.Dropped() != 0 {
		t.Fatalf("Dropped = %d, want 0", tr.Dropped())
	}
}

func TestResetRearms(t *testing.T) {
	tr := NewWithCapacity(1, 2)
	for i := 0; i < 5; i++ {
		tr.Record(Span{Name: "s", Rank: 0})
	}
	tr.Reset()
	if tr.Len() != 0 || tr.Dropped() != 0 {
		t.Fatalf("after reset: Len=%d Dropped=%d", tr.Len(), tr.Dropped())
	}
	tr.Record(Span{Name: "s", Rank: 0})
	if tr.Len() != 1 {
		t.Fatalf("record after reset failed")
	}
}

func TestScope(t *testing.T) {
	tr := New(1)
	tr.SetScope("ip1", PhaseBackward)
	name, phase := tr.Scope()
	if name != "ip1" || phase != PhaseBackward {
		t.Fatalf("scope = %q/%v", name, phase)
	}
}

func TestPhaseStrings(t *testing.T) {
	for _, p := range []Phase{PhaseForward, PhaseBackward, PhaseReduce, PhaseUpdate, PhaseIteration, PhaseRegion} {
		if p.String() == "" || p.short() == "" {
			t.Fatalf("phase %d has empty name", p)
		}
	}
	if !strings.HasPrefix(PhaseForward.String(), "forward") {
		t.Fatal("unexpected forward phase name")
	}
}

// BenchmarkRecord measures the enabled recording path (the <5% overhead
// budget of the acceptance criteria rides on this being tens of ns).
func BenchmarkRecord(b *testing.B) {
	tr := NewWithCapacity(1, 1<<12)
	s := Span{Name: "conv1", Phase: PhaseForward, Rank: 0, Band: 0, Lo: 0, Hi: 64, Dur: time.Microsecond}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tr.Record(s)
	}
}

// BenchmarkRecordNil measures the disabled path: a nil check only.
func BenchmarkRecordNil(b *testing.B) {
	var tr *Tracer
	s := Span{Name: "conv1", Rank: 0}
	for i := 0; i < b.N; i++ {
		tr.Record(s)
	}
}
