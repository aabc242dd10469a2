// Package orderedreduce exercises the orderedreduce analyzer: float
// accumulation whose visit order is map iteration order, against the
// orders that are fixed.
package orderedreduce

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
