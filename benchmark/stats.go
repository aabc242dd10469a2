package main

import (
	"math"
	"sort"
	"time"
)

// sorted returns an ascending copy of xs.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// percentile returns the p-th percentile (0..100) of xs by linear
// interpolation between closest ranks (the "inclusive" method: p=0 is
// the minimum, p=100 the maximum). An empty sample yields 0.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	pos := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (pos-float64(lo))*(s[hi]-s[lo])
}

func median(xs []float64) float64 { return percentile(xs, 50) }

// quartiles returns the first and third quartile exactly as Python's
// statistics.quantiles(xs, n=4) does (the "exclusive" method, positions
// (n+1)/4 and 3(n+1)/4 clamped to the sample) — the rule the benchmark
// contract uses to judge spread, so calibration must agree with it.
func quartiles(xs []float64) (q1, q3 float64) {
	n := len(xs)
	if n == 0 {
		return 0, 0
	}
	if n == 1 {
		return xs[0], xs[0]
	}
	s := sorted(xs)
	at := func(i int) float64 { // i-th of 4 cut points
		pos := float64(i*(n+1)) / 4
		j := int(math.Floor(pos))
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		frac := pos - float64(j)
		return s[j-1] + frac*(s[j]-s[j-1])
	}
	return at(1), at(3)
}

// spread is the interquartile distance as a share of the median — the
// run-to-run noise figure bounds are compared against.
func spread(xs []float64) float64 {
	m := median(xs)
	if m == 0 {
		return 0
	}
	q1, q3 := quartiles(xs)
	return math.Abs((q3 - q1) / m)
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// cvPct is the coefficient of variation (sample standard deviation over
// mean) in percent.
func cvPct(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	m := mean(xs)
	if m == 0 {
		return 0
	}
	var ss float64
	for _, x := range xs {
		ss += (x - m) * (x - m)
	}
	return 100 * math.Sqrt(ss/float64(len(xs)-1)) / math.Abs(m)
}

// op is one finished operation of a measurement window.
type op struct {
	// start and end are offsets from the window's start. An open-loop
	// request starts when it was due, not when it was sent.
	start, end time.Duration
	// wait is the part of the operation that is a timer running down, not
	// the host working, and is therefore not scaled by host speed: the
	// batcher's deadline in the open loop, nothing elsewhere.
	wait time.Duration
	// work is what it completed, in images; 0 for a failed operation,
	// which also has no latency.
	work float64
}

// scaledMS is the operation's time in ms with its working part divided
// by the host's slowdown factor f.
func (o op) scaledMS(f float64) float64 {
	d := o.end - o.start
	w := min(o.wait, d)
	return msOf(w) + msOf(d-w)/f
}

// A window is cut into at most maxSegments consecutive segments of at
// least minSegmentOps operations each.
const (
	maxSegments   = 25
	minSegmentOps = 4
)

// windowStats is what a window condenses to: per-operation p50 and p95
// in ms and images per second, each scaled to reference host speed, taken
// per segment, median over the segments. The raw figures are the same
// without the scaling; slowdown is the median factor that was divided
// out.
type windowStats struct {
	p50, p95, rate float64
	rawP50, rawP95 float64
	rawRate        float64
	slowdown       float64
	segments       int
}

// summarizeWindow cuts the operations, in completion order, into
// consecutive segments of equal count. Every operation's time is divided
// by the host's slowdown factor while it ran (meter.factor). A segment's
// rate is its work over the time between the previous segment's last
// completion and its own — so back-to-back operations are never quantised
// by a segment boundary — with that time scaled the same way. The median
// over the segments then sets aside what interference the scaling missed.
func summarizeWindow(ops []op, m *meter) windowStats {
	sort.Slice(ops, func(i, j int) bool { return ops[i].end < ops[j].end })
	segs := max(1, min(maxSegments, len(ops)/minSegmentOps))
	var p50s, p95s, rates, raw50s, raw95s, rawRates, factors []float64
	prevEnd := time.Duration(0)
	for s := 0; s < segs; s++ {
		lo, hi := s*len(ops)/segs, (s+1)*len(ops)/segs
		if hi == lo {
			continue
		}
		var ms, rawMS []float64
		work := 0.0
		for _, o := range ops[lo:hi] {
			work += o.work
			if o.work > 0 {
				rawMS = append(rawMS, msOf(o.end-o.start))
				ms = append(ms, o.scaledMS(m.factor(o.start, o.end)))
			}
		}
		if span := ops[hi-1].end - prevEnd; span > 0 {
			f := m.factor(prevEnd, ops[hi-1].end)
			factors = append(factors, f)
			rawRates = append(rawRates, work/span.Seconds())
			rates = append(rates, work/span.Seconds()*f)
		}
		prevEnd = ops[hi-1].end
		if len(ms) > 0 {
			p50s, p95s = append(p50s, percentile(ms, 50)), append(p95s, percentile(ms, 95))
			raw50s, raw95s = append(raw50s, percentile(rawMS, 50)), append(raw95s, percentile(rawMS, 95))
		}
	}
	return windowStats{
		p50: median(p50s), p95: median(p95s), rate: median(rates),
		rawP50: median(raw50s), rawP95: median(raw95s), rawRate: median(rawRates),
		slowdown: median(factors), segments: segs,
	}
}
