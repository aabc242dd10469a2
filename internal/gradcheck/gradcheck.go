// Package gradcheck verifies layer implementations against centered
// finite differences — the tool a layer author runs before trusting a new
// layer, mirroring Caffe's GradientChecker. Because the engines are
// network-agnostic, a layer that passes this check and honors the
// disjoint-range contract is automatically correct under every engine.
//
// The check builds the scalar objective J = Σ_t <top_t, w_t> for fixed
// random positive weights w_t, obtains analytic gradients by seeding the
// top diffs with w and running the layer's backward pass (including the
// optional serial hooks), and compares against (J(x+eps)-J(x-eps))/(2eps)
// for every bottom and parameter element.
package gradcheck

import (
	"fmt"
	"math"

	"coarsegrain/internal/blob"
	"coarsegrain/internal/layers"
	"coarsegrain/internal/rng"
)

// Config tunes the check.
type Config struct {
	// Eps is the finite-difference step (default 1e-3).
	Eps float64
	// Tol is the relative tolerance (default 2e-2): a mismatch is
	// reported when |analytic-numeric| > Tol * max(1, |analytic|,
	// |numeric|).
	Tol float64
	// CheckBottoms selects which bottoms' gradients to verify (nil =
	// all).
	CheckBottoms []bool
	// CheckParams verifies parameter gradients too.
	CheckParams bool
	// Seed drives the objective weights.
	Seed uint64
}

func (c *Config) normalize() {
	if c.Eps == 0 {
		c.Eps = 1e-3
	}
	if c.Tol == 0 {
		c.Tol = 2e-2
	}
}

// Mismatch describes one failing element.
type Mismatch struct {
	// Blob identifies the checked tensor ("bottom0", "param1", ...).
	Blob string
	// Index is the flat element index.
	Index int
	// Analytic and Numeric are the two gradient estimates.
	Analytic, Numeric float64
}

// String implements fmt.Stringer.
func (m Mismatch) String() string {
	return fmt.Sprintf("%s[%d]: analytic %g vs numeric %g", m.Blob, m.Index, m.Analytic, m.Numeric)
}

// forward runs the layer's full forward pass (hooks included).
func forward(l layers.Layer, bottoms, tops []*blob.Blob) {
	if p, ok := l.(layers.ForwardPreparer); ok {
		p.ForwardPrepare(bottoms, tops)
	}
	if n := l.ForwardExtent(); n > 0 {
		l.ForwardRange(0, n, bottoms, tops)
	}
	if f, ok := l.(layers.ForwardFinisher); ok {
		f.ForwardFinish(bottoms, tops)
	}
}

// backward runs the layer's full backward pass (hooks included),
// accumulating parameter gradients into the parameters themselves.
func backward(l layers.Layer, bottoms, tops []*blob.Blob) {
	n := l.BackwardExtent()
	if n == 0 {
		return
	}
	if p, ok := l.(layers.BackwardPreparer); ok {
		p.BackwardPrepare(bottoms, tops)
	}
	l.BackwardRange(0, n, bottoms, tops, l.Params())
}

// Check sets the layer up on the given bottoms and verifies its
// gradients, returning every mismatching element (empty = pass).
//
// The layer must be freshly constructed: Check calls SetUp. Layers whose
// forward consumes random state (Dropout) cannot be checked this way —
// freeze their state first or check them manually.
func Check(l layers.Layer, bottoms []*blob.Blob, cfg Config) ([]Mismatch, error) {
	cfg.normalize()
	nTops := 1
	if l.Type() == "Data" {
		nTops = 2
	}
	tops := make([]*blob.Blob, nTops)
	for i := range tops {
		tops[i] = blob.New()
	}
	if err := l.SetUp(bottoms, tops); err != nil {
		return nil, fmt.Errorf("gradcheck: SetUp: %w", err)
	}

	r := rng.New(cfg.Seed^0x9E3779B9, 42)
	forward(l, bottoms, tops) // fix top shapes
	weights := make([][]float32, len(tops))
	for ti, top := range tops {
		w := make([]float32, top.Count())
		for i := range w {
			w[i] = r.Range(0.5, 1.5)
		}
		weights[ti] = w
	}
	objective := func() float64 {
		forward(l, bottoms, tops)
		var j float64
		for ti, top := range tops {
			for i, v := range top.Data() {
				j += float64(v) * float64(weights[ti][i])
			}
		}
		return j
	}

	// Analytic gradients.
	for _, b := range bottoms {
		b.ZeroDiff()
	}
	for _, p := range l.Params() {
		p.ZeroDiff()
	}
	forward(l, bottoms, tops)
	for ti, top := range tops {
		copy(top.Diff(), weights[ti])
	}
	backward(l, bottoms, tops)

	var mismatches []Mismatch
	checkBlob := func(name string, target *blob.Blob) {
		grad := append([]float32(nil), target.Diff()...)
		d := target.Data()
		for i := range d {
			orig := d[i]
			d[i] = orig + float32(cfg.Eps)
			jPlus := objective()
			d[i] = orig - float32(cfg.Eps)
			jMinus := objective()
			d[i] = orig
			numeric := (jPlus - jMinus) / (2 * cfg.Eps)
			analytic := float64(grad[i])
			scale := math.Max(1, math.Max(math.Abs(analytic), math.Abs(numeric)))
			if math.Abs(analytic-numeric)/scale > cfg.Tol {
				mismatches = append(mismatches, Mismatch{
					Blob: name, Index: i, Analytic: analytic, Numeric: numeric,
				})
			}
		}
	}

	for bi, b := range bottoms {
		if cfg.CheckBottoms != nil && (bi >= len(cfg.CheckBottoms) || !cfg.CheckBottoms[bi]) {
			continue
		}
		checkBlob(fmt.Sprintf("bottom%d", bi), b)
	}
	if cfg.CheckParams {
		for pi, p := range l.Params() {
			checkBlob(fmt.Sprintf("param%d", pi), p)
		}
	}
	return mismatches, nil
}
