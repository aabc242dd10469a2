// Package par is a miniature stand-in for coarsegrain/internal/par: the
// analyzers match the runtime's API structurally (method name + receiver
// type Pool + package name par), so this skeleton is all fixtures need.
package par

// Pool mimics the worker team of the real runtime.
type Pool struct{ workers int }

// NewPool creates a team of n workers.
func NewPool(n int) *Pool { return &Pool{workers: n} }

// Workers returns the team size.
func (p *Pool) Workers() int { return p.workers }

// Chunk mirrors the static-schedule chunk computation.
func Chunk(n, workers, rank int) (lo, hi int) {
	chunk := (n + workers - 1) / workers
	lo = rank * chunk
	hi = lo + chunk
	if lo > n {
		lo = n
	}
	if hi > n {
		hi = n
	}
	return lo, hi
}

// For runs body over [0, n) with static scheduling.
func (p *Pool) For(n int, body func(lo, hi, rank int)) {
	body(0, n, 0)
}

// Region runs body once per rank.
func (p *Pool) Region(body func(rank int)) {
	for r := 0; r < p.workers; r++ {
		body(r)
	}
}

// Ordered runs body for every rank in increasing order.
func (p *Pool) Ordered(body func(rank int)) {
	for r := 0; r < p.workers; r++ {
		body(r)
	}
}

// OrderedSlices folds ranks 0..P-1 in rank order over per-worker element
// slices — the sanctioned element-parallel ordered reduction.
func (p *Pool) OrderedSlices(n int, merge func(lo, hi, rank int)) {
	for w := 0; w < p.workers; w++ {
		lo, hi := Chunk(n, p.workers, w)
		for r := 0; r < p.workers; r++ {
			merge(lo, hi, r)
		}
	}
}
