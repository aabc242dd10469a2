// Package interproc exercises parbody's interprocedural extension: the
// v1 engine stopped at the closure boundary, so every violation in this
// file passed clean — each write here hides inside a called helper, one
// or two calls below the worksharing closure. The fixture pins the v2
// regression: these must flag, and the steered helpers must not.
package interproc

import "par"

// fill writes every element of dst: unsteered, so calling it on a
// captured slice races across ranks.
func fill(dst []float32, v float32) {
	for i := range dst {
		dst[i] = v
	}
}

// deepFill buries fill's write a second call down.
func deepFill(dst []float32, v float32) {
	fill(dst, v)
}

// fillRange is the sanctioned shape: the written range is steered by
// its integer parameters, so disjoint [lo, hi) arguments stay race-free.
func fillRange(dst []float32, lo, hi int, v float32) {
	for i := lo; i < hi; i++ {
		dst[i] = v
	}
}

// acc is a receiver-based accumulator.
type acc struct{ vals []float32 }

// addAll writes the receiver's backing store unsteered.
func (a *acc) addAll(v float32) {
	for i := range a.vals {
		a.vals[i] += v
	}
}

// addRange steers the receiver write by its parameters.
func (a *acc) addRange(lo, hi int, v float32) {
	for i := lo; i < hi; i++ {
		a.vals[i] += v
	}
}

var seen int

// mark writes package-level state.
func mark() {
	seen++
}

func bad(p *par.Pool, out []float32, a *acc) {
	p.For(len(out), func(lo, hi, rank int) {
		fill(out, 1)     // want `call to fill inside Pool\.For closure writes captured "out"`
		deepFill(out, 1) // want `call to deepFill inside Pool\.For closure writes captured "out" .* 2 call\(s\) below the closure`
		a.addAll(1)      // want `call to addAll inside Pool\.For closure writes its captured receiver "a"`
		mark()           // want `call to mark inside Pool\.For closure writes package-level state`
	})

	// Steered helpers called with constants sever the steering chain:
	// every rank writes the same fixed range.
	p.For(len(out), func(lo, hi, rank int) {
		fillRange(out, 0, 4, 1) // want `call to fillRange inside Pool\.For closure writes captured "out"`
	})
}

func good(p *par.Pool, out []float32, accs []acc) {
	p.For(len(out), func(lo, hi, rank int) {
		// The helper's write range is steered by schedule-derived args.
		fillRange(out, lo, hi, 1)
		// A slice view with schedule-derived bounds is a rank-owned
		// window: the unsteered helper only touches this rank's slice.
		fill(out[lo:hi], 1)
		// Receiver writes steered by the closure's range are disjoint.
		accs[0].addRange(lo, hi, 1)
		// A rank-owned receiver may do unsteered writes: the target is
		// private to this rank.
		accs[rank].addAll(1)
	})

	// Locals derived from the schedule keep helper targets private.
	p.Region(func(rank int) {
		mine := accs[rank]
		mine.addAll(1)
	})
}
