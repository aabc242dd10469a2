package main

import (
	"sort"
	"sync"
	"time"
)

// The benchmark's reference host is a shared two-core VM whose cores
// other tenants slow by up to 2x, for anything from milliseconds to tens
// of minutes at a time. Identical runs there differ by 25-40 % in every
// wall-clock figure, whatever statistic condenses them, because for
// minutes on end no operation runs undisturbed. What does repeat is an
// operation's time relative to the time a fixed piece of arithmetic takes
// on the same cores at the same moment. So each window carries a meter
// that keeps running that arithmetic — the canary — and every timing is
// divided by how much slower than its reference time the canary ran alongside
// it: the figures read as milliseconds on an undisturbed reference host.
// On such a host the factor is 1 and they are plain wall-clock figures.
// The raw, unscaled medians are printed beside them as notes.

// canaryRefMS is the canary's time on the undisturbed reference host (two
// cores of a 2.1 GHz Xeon), forked onto one goroutine and onto more. It
// only fixes the unit: a different host scales every figure by one
// constant, which no comparison between two commits on that host sees.
func canaryRefMS(threads int) float64 {
	if threads <= 1 {
		return 0.15
	}
	return 0.20 // getting the second core going costs the difference
}

// canaryData is each canary thread's working set: 16 KiB, so it stays in
// L1 and measures the core, not the memory system.
var canaryData [4][4096]float32

// canarySink keeps the compiler from discarding the canary's arithmetic.
var canarySink [4]float32

// canaryLoop is the fixed arithmetic: about half a million dependent
// scalar multiply-adds, none of it code a change to the repository can
// speed up.
func canaryLoop(w int) {
	x := &canaryData[w]
	var a0, a1, a2, a3 float32
	for rep := 0; rep < 120; rep++ {
		for i := 0; i < len(x); i += 4 {
			a0 += x[i] * 1.0001
			a1 += x[i+1] * 1.0002
			a2 += x[i+2] * 1.0003
			a3 += x[i+3] * 1.0004
		}
	}
	canarySink[w] = a0 + a1 + a2 + a3
}

// canary forks the loop onto `threads` goroutines, joins them, and
// returns the wall time of the whole in ms. Starting and joining the
// goroutines is part of the reading on purpose: on the reference host the
// time it takes to get a second core going varies with the other
// tenants' load as much as the cores' speed does, and every parallel
// region, batch hand-off and transport frame of the measured program pays
// it too.
func canary(threads int) float64 {
	t0 := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < min(threads, len(canaryData)); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			canaryLoop(w)
		}()
	}
	wg.Wait()
	return msOf(time.Since(t0))
}

func init() {
	for w := range canaryData {
		for i := range canaryData[w] {
			canaryData[w][i] = float32(i%7) * 0.25
		}
	}
}

// meter is a window's record of host speed: canary readings and when
// each was taken. A lock-step loop takes one between operations, as wide
// as the operations are (P threads). A concurrent load has it take one
// every meterPeriod on a single thread, so that the reading does not
// queue behind the load for a core.
type meter struct {
	mu      sync.Mutex
	threads int
	epoch   time.Time
	at      []time.Duration // when each reading finished, ascending
	ms      []float64
}

const (
	meterPeriod = 10 * time.Millisecond
	// meterSlack widens an interval to take in the readings a lock-step
	// loop took just before and just after an operation.
	meterSlack = 2 * time.Millisecond
)

func newMeter(epoch time.Time, threads int) *meter {
	return &meter{epoch: epoch, threads: threads, at: make([]time.Duration, 0, 1<<13), ms: make([]float64, 0, 1<<13)}
}

// sample takes one reading.
func (m *meter) sample() {
	v := canary(m.threads)
	at := time.Since(m.epoch)
	m.mu.Lock()
	m.at, m.ms = append(m.at, at), append(m.ms, v)
	m.mu.Unlock()
}

// every takes a reading each meterPeriod until the returned
// stop function is called; stop returns once the sampler has ended.
func (m *meter) every() (stop func()) {
	quit, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		t := time.NewTicker(meterPeriod)
		defer t.Stop()
		for {
			select {
			case <-quit:
				return
			case <-t.C:
				m.sample()
			}
		}
	}()
	return func() { close(quit); <-done }
}

// factor is how many times slower than the reference the host ran over
// [from, to]: the median of the readings taken then (or, if none was, of
// the nearest one on each side) over canaryRefMS. No meter, or one with
// no readings, reports 1.
func (m *meter) factor(from, to time.Duration) float64 {
	if m == nil {
		return 1
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	lo := sort.Search(len(m.at), func(i int) bool { return m.at[i] >= from-meterSlack })
	hi := sort.Search(len(m.at), func(i int) bool { return m.at[i] > to+meterSlack })
	if lo == hi {
		lo, hi = max(lo-1, 0), min(hi+1, len(m.at))
	}
	if lo == hi {
		return 1
	}
	return median(m.ms[lo:hi]) / canaryRefMS(m.threads)
}
