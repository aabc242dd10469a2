package main

import (
	"testing"
	"time"
)

// fakeClock is a clock the test moves by hand: sleeping jumps to the
// wake-up time, and work done between arrivals is added explicitly.
type fakeClock struct{ now time.Time }

func (c *fakeClock) Now() time.Time { return c.now }
func (c *fakeClock) SleepUntil(t time.Time) {
	if t.After(c.now) {
		c.now = t
	}
}

// The open loop fires on schedule regardless of what became of earlier
// requests. When the generator itself is held up, it says how late each
// firing was, and every request still carries its due time, so latency
// counted from there includes the stall.
func TestGenerateAgainstFakeClock(t *testing.T) {
	start := time.Unix(1000, 0)
	clk := &fakeClock{now: start}
	ms := time.Millisecond
	sched := []arrival{{due: 10 * ms}, {due: 20 * ms}, {due: 22 * ms}, {due: 24 * ms}, {due: 60 * ms}}
	// Firing the second request blocks the generator for 5 ms (as a full
	// job queue would); each request then takes 1 ms to serve.
	var fromDue []time.Duration
	late := generate(clk, start, sched, func(a arrival, due time.Time) {
		if a.due == 20*ms {
			clk.now = clk.now.Add(5 * ms)
		}
		if want := start.Add(a.due); !due.Equal(want) {
			t.Errorf("arrival %v fired with due %v, want %v", a.due, due, want)
		}
		done := clk.now.Add(1 * ms)
		fromDue = append(fromDue, done.Sub(due))
	})
	wantLate := []float64{0, 0, 3, 1, 0} // ms: 22 fires at 25, 24 fires at 25
	wantLatency := []time.Duration{1 * ms, 6 * ms, 4 * ms, 2 * ms, 1 * ms}
	for i := range sched {
		if late[i] != wantLate[i] {
			t.Errorf("arrival %d fired %v ms late, want %v", i, late[i], wantLate[i])
		}
		if fromDue[i] != wantLatency[i] {
			t.Errorf("arrival %d latency from due %v, want %v", i, fromDue[i], wantLatency[i])
		}
	}
	if got := clk.now.Sub(start); got != 60*ms {
		t.Errorf("generator finished at +%v, want +60ms", got)
	}
}

func TestScheduleIsSeededAndFillsTheWindow(t *testing.T) {
	window := 2 * time.Second
	a, b := openSchedule(5, openRate, window), openSchedule(5, openRate, window)
	if len(a) != int(openRate*window.Seconds()) {
		t.Fatalf("%d arrivals, want rate x window = %d", len(a), int(openRate*window.Seconds()))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed, different arrival %d: %+v vs %+v", i, a[i], b[i])
		}
		if i > 0 && a[i].due < a[i-1].due {
			t.Fatalf("arrival %d is due before its predecessor", i)
		}
		if a[i].sample < 0 || a[i].sample >= poolSize {
			t.Fatalf("arrival %d draws sample %d", i, a[i].sample)
		}
	}
	if last := a[len(a)-1].due; last > window || last < window-window/20 {
		t.Errorf("last arrival due at %v, want just inside %v", last, window)
	}
	c := openSchedule(6, openRate, window)
	same := 0
	for i := range a {
		if a[i] == c[i] {
			same++
		}
	}
	if same > len(a)/10 {
		t.Errorf("seeds 5 and 6 share %d of %d arrivals", same, len(a))
	}
	// Exponential gaps: the coefficient of variation of the gaps is 1.
	gaps := make([]float64, len(a))
	prev := time.Duration(0)
	for i, x := range a {
		gaps[i] = float64(x.due - prev)
		prev = x.due
	}
	if cv := cvPct(gaps); cv < 85 || cv > 115 {
		t.Errorf("gap CV %.0f%%, want about 100%% (exponential)", cv)
	}
}
