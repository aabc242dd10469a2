// Package orderedreduce exercises the orderedreduce analyzer: float
// reductions whose visit order is not fixed, against the deterministic
// ordered-merge idiom.
package orderedreduce

import "par"

// badCrossRank accumulates floats across ranks outside Pool.Ordered.
func badCrossRank(p *par.Pool, in []float32) float32 {
	var sum float32
	var sums [4]float64
	p.For(len(in), func(lo, hi, rank int) {
		for i := lo; i < hi; i++ {
			sum += in[i] // want `cross-rank floating-point accumulation into "sum" inside Pool\.For closure`
		}
		sums[0] += float64(in[lo]) // want `cross-rank floating-point accumulation into "sums\[\.\.\.\]" inside Pool\.For closure`
	})
	return sum + float32(sums[0])
}

// badMapRange accumulates floats in map iteration order.
func badMapRange(weights map[string]float64) float64 {
	var total float64
	for _, w := range weights {
		total += w // want "floating-point accumulation into \"total\" is driven by `range` over a map"
	}
	var norm float64
	for _, w := range weights {
		norm = norm + w*w // want "floating-point accumulation into \"norm\" is driven by `range` over a map"
	}
	return total + norm
}

// badRawCrossRankFold hand-rolls the element-parallel rank fold inside a
// live worksharing region: the writes are element-disjoint, but the fold
// reads every rank's partials while those ranks may still be producing
// them, and bypasses the audited OrderedSlices merge.
func badRawCrossRankFold(p *par.Pool, parts [][]float32, dst []float32) {
	p.For(len(dst), func(lo, hi, rank int) {
		for r := 0; r < p.Workers(); r++ {
			for i := lo; i < hi; i++ {
				dst[i] += parts[r][i] // want `hand-rolled cross-rank fold into "dst\[\.\.\.\]" inside Pool\.For closure`
			}
		}
	})
}

// goodOrderedSlices routes the same fold through the sanctioned
// primitive: each element is owned by one worker and folded in rank
// order after the compute region has joined (never flagged).
func goodOrderedSlices(p *par.Pool, parts [][]float32, dst []float32) {
	p.OrderedSlices(len(dst), func(lo, hi, rank int) {
		for i := lo; i < hi; i++ {
			dst[i] += parts[rank][i]
		}
	})
}

// goodWorkersBoundedCompute shows that a Workers()-bounded loop alone is
// not a finding: this one only reads, writing nothing captured.
func goodWorkersBoundedCompute(p *par.Pool, parts [][]float32) []float32 {
	maxes := make([]float32, p.Workers())
	p.For(len(parts[0]), func(lo, hi, rank int) {
		var m float32
		for r := 0; r < p.Workers(); r++ {
			if parts[r][lo] > m {
				m = parts[r][lo]
			}
		}
		maxes[rank] = m
	})
	return maxes
}

// goodOrdered privatizes per rank and merges in rank order: the
// sanctioned deterministic reduction (never flagged).
func goodOrdered(p *par.Pool, in []float32) float32 {
	partials := make([]float32, p.Workers())
	p.For(len(in), func(lo, hi, rank int) {
		var local float32
		for i := lo; i < hi; i++ {
			local += in[i] // closure-local: visit order fixed within one rank
		}
		partials[rank] = local
	})
	var sum float32
	p.Ordered(func(rank int) {
		sum += partials[rank] // ordered merge: exempt by design
	})
	return sum
}

// goodMapUses shows map iteration that is fine: non-float accumulation,
// and float accumulation over a deterministically ordered slice.
func goodMapUses(weights map[string]float64, keys []string) float64 {
	n := 0
	for range weights {
		n++ // integer count: order-independent
	}
	var total float64
	for _, k := range keys { // sorted-keys idiom: slice range is ordered
		total += weights[k]
	}
	// Accumulation into a loop-local float resets each pass: harmless.
	for _, w := range weights {
		half := 0.0
		half += w / 2
		_ = half
	}
	// Per-key updates touch each entry exactly once: iteration order
	// cannot change the result, so they are not reductions.
	for k := range weights {
		weights[k] /= total
	}
	for k, w := range weights {
		weights[k] = w * w
	}
	return total + float64(n)
}
