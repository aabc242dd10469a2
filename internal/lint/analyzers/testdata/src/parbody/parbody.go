// Package parbody exercises the parbody analyzer: writes to captured
// shared state inside worksharing closures, against the safe rank- and
// range-indexed idioms of the runtime.
package parbody

import "par"

// bad demonstrates the data-race shapes the analyzer must flag.
func bad(p *par.Pool, out []float32, m map[int]float32) {
	var sum float32
	count := 0
	var last float32
	p.For(len(out), func(lo, hi, rank int) {
		for i := lo; i < hi; i++ {
			sum = sum + out[i] // want `write to captured "sum" inside Pool\.For closure`
		}
		count++              // want `write to captured "count" inside Pool\.For closure`
		last = out[lo]       // want `write to captured "last" inside Pool\.For closure`
		m[0] = float32(rank) // want `write to captured "m\[\.\.\.\]" inside Pool\.For closure`
	})

	var scratch []float32
	p.For(len(out), func(lo, hi, rank int) {
		scratch = append(scratch, out[lo]) // want `write to captured "scratch" inside Pool\.For closure`
	})

	type state struct{ n int }
	var shared state
	p.Region(func(rank int) {
		shared.n = rank // want `write to captured "shared\.n" inside Pool\.Region closure`
	})
	_ = sum + last
}

// good demonstrates the privatization idioms that must NOT be flagged.
func good(p *par.Pool, in, out []float32) {
	// Writes steered by the iteration range are disjoint by construction.
	p.For(len(out), func(lo, hi, rank int) {
		for i := lo; i < hi; i++ {
			out[i] = in[i] * 2
		}
	})

	// Rank-indexed privatization: each rank owns its slot.
	partials := make([]float32, p.Workers())
	p.For(len(in), func(lo, hi, rank int) {
		var local float32 // closure-local accumulation is fine
		for i := lo; i < hi; i++ {
			local += in[i]
		}
		partials[rank] = local
	})

	// Indices derived from the range (lo+j) are schedule-derived.
	p.For(len(out), func(lo, hi, rank int) {
		for j := 0; j+lo < hi; j++ {
			out[lo+j] = in[lo+j]
		}
	})

	// A pointer derived from a rank-indexed slot stays safe.
	p.Region(func(rank int) {
		slot := &partials[rank]
		*slot = 0
	})

	// The ordered merge is the sanctioned place to touch shared state.
	var sum float32
	p.Ordered(func(rank int) {
		sum += partials[rank]
	})
	_ = sum
}
