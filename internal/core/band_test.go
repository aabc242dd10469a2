package core

import (
	"fmt"
	"math"
	"testing"

	"coarsegrain/internal/blob"
	"coarsegrain/internal/layers"
	"coarsegrain/internal/par"
)

// The band contract, executed. Package layers states the rule the
// engines' race-freedom and the paper's convergence invariance rest on
// (Algorithms 4 and 5): distinct bands of one layer write disjoint
// outputs, and only the ordered fold combines their parameter gradients.
// TestBandContract runs the real range bodies of every catalogue layer
// one band at a time, under every cut, and checks the rule element by
// element. It is deterministic — it needs neither the race detector nor
// two bands running at once — and it sees through the Layer and
// ChannelRanger interfaces the engine calls the bodies by.

// poison is a signalling NaN with a payload. Every output starts a sweep
// holding it, so an element that still holds its bits was never written;
// arithmetic on it — a band accumulating into another band's element, or
// reading another band's unwritten output — yields a quiet NaN, whose bits
// differ.
var poison = math.Float32frombits(0x7f80dead)

// band is one range [lo, hi) of a cut's extent.
type band struct{ lo, hi int }

// schedule is one way to cut an extent into bands: the static chunks
// par.Chunk gives a team of p, which the bands' ordered fold reproduces.
type schedule struct {
	name  string
	p     int
	bands []band // one per rank, possibly empty
}

// schedules returns the cuts the harness runs an extent under: the
// static chunks at P = 2, 3 and 5, and unit-width bands (P = extent).
func schedules(extent int) []schedule {
	var out []schedule
	for _, p := range []int{2, 3, 5, extent} {
		s := schedule{name: fmt.Sprintf("P=%d", p), p: p}
		if p == extent {
			s.name = "unit"
		}
		for r := 0; r < p; r++ {
			lo, hi := par.Chunk(extent, p, r)
			s.bands = append(s.bands, band{lo, hi})
		}
		out = append(out, s)
	}
	return out
}

// output is one buffer a cut writes and the rectangle a band owns in it.
type output struct {
	name string
	v    []float32
	owns func(b band, i int) bool
}

// rect maps a blob to the rectangle a band owns in its data or diff.
type rect func(b *blob.Blob) func(band, int) bool

// untouched is the rectangle of a buffer a cut must not write.
func untouched(*blob.Blob) func(band, int) bool { return func(band, int) bool { return false } }

// bySamples is a samples band's rectangle: band [lo, hi) of extent e owns
// elements [lo·c/e, hi·c/e) of a buffer of c elements when e divides c,
// and nothing otherwise. Over a parameter gradient with e output
// channels, it is a channels band's rows of W or of the bias.
func bySamples(e int) rect {
	return func(b *blob.Blob) func(band, int) bool {
		if b.Count()%e != 0 {
			return untouched(b)
		}
		k := b.Count() / e
		return func(bd band, i int) bool { return i >= bd.lo*k && i < bd.hi*k }
	}
}

// byChannels is a channels band's rectangle: band [lo, hi) of extent e
// owns [n, lo:hi, …] for every sample n.
func byChannels(e int) rect {
	return func(b *blob.Blob) func(band, int) bool {
		s := b.Count() / b.Dim(0)
		if s%e != 0 {
			return untouched(b)
		}
		k := s / e
		return func(bd band, i int) bool { j := i % s; return j >= bd.lo*k && j < bd.hi*k }
	}
}

// outputs names each blob's data or diff and pairs it with its rectangle.
func outputs(name string, bs []*blob.Blob, diff bool, owns rect) []output {
	var out []output
	for i, b := range bs {
		v := b.Data()
		if diff {
			v = b.Diff()
		}
		out = append(out, output{fmt.Sprintf("%s %d", name, i), v, owns(b)})
	}
	return out
}

// extents is everything a band must not change about the layer's shape
// of work: its forward and backward extents and its channel extents.
func extents(l layers.Layer) [4]int {
	e := [4]int{l.ForwardExtent(), l.BackwardExtent()}
	if cr, ok := l.(layers.ChannelRanger); ok {
		e[2], e[3] = cr.ChannelExtents()
	}
	return e
}

func fill(v []float32, x float32) {
	for i := range v {
		v[i] = x
	}
}

// sweep poisons outs and runs the schedule's bands one at a time, in rank
// order or (desc) reversed. With zero set, a band's own rectangle is
// cleared before it runs — the rows of an accumulated gradient. After
// each band every element outside its rectangle must hold what it held
// before the band ran, and the layer's extents must not have moved.
func sweep(t *testing.T, what string, l layers.Layer, s schedule, desc, zero bool, outs []output, run func(b band, rank int)) {
	t.Helper()
	for _, o := range outs {
		fill(o.v, poison)
	}
	ext := extents(l)
	before := make([][]float32, len(outs))
	for k := range s.bands {
		r := k
		if desc {
			r = len(s.bands) - 1 - k
		}
		b := s.bands[r]
		if b.lo == b.hi {
			continue
		}
		for oi, o := range outs {
			if zero {
				for i := range o.v {
					if o.owns(b, i) {
						o.v[i] = 0
					}
				}
			}
			before[oi] = append(before[oi][:0], o.v...)
		}
		run(b, r)
		if got := extents(l); got != ext {
			t.Fatalf("%s: band [%d,%d) changed the layer's extents from %v to %v", what, b.lo, b.hi, ext, got)
		}
		for oi, o := range outs {
			for i, v := range o.v {
				if !o.owns(b, i) && math.Float32bits(v) != math.Float32bits(before[oi][i]) {
					t.Fatalf("%s: band [%d,%d) wrote %s[%d] outside its rectangle (bits %08x, were %08x)",
						what, b.lo, b.hi, o.name, i, math.Float32bits(v), math.Float32bits(before[oi][i]))
				}
			}
		}
	}
}

// sameOutputs fails unless every output holds the reference's bits.
func sameOutputs(t *testing.T, what string, got []output, want [][]float32) {
	t.Helper()
	for oi, o := range got {
		if i, ok := sameBits(o.v, want[oi]); !ok {
			t.Fatalf("%s: %s[%d] = %v, the engine's run has %v", what, o.name, i, o.v[i], want[oi][i])
		}
	}
}

// poisonedRun is one forward and backward pass of a case on an engine
// from the harness's starting state: tops and bottom gradients poisoned,
// parameter gradients zero, top gradients seeded.
func poisonedRun(t *testing.T, c layerCase, e Engine) (layers.Layer, []*blob.Blob, []*blob.Blob) {
	t.Helper()
	defer e.Close()
	l, bottom, top := c.setUp(t)
	for _, b := range top {
		fill(b.Data(), poison)
	}
	e.Forward(l, bottom, top)
	c.seedTopDiffs(top)
	for _, b := range bottom {
		fill(b.Diff(), poison)
	}
	for _, p := range l.Params() {
		p.ZeroDiff()
	}
	e.Backward(l, bottom, top)
	return l, bottom, top
}

// values returns the data or diff slices of blobs.
func values(bs []*blob.Blob, diff bool) [][]float32 {
	var out [][]float32
	for _, b := range bs {
		if diff {
			out = append(out, b.Diff())
		} else {
			out = append(out, b.Data())
		}
	}
	return out
}

// TestBandContract is the band contract of package layers run over every
// catalogue layer and every cut: samples forward and backward, and for a
// ChannelRanger channels forward, parameter gradient (dW) and bottom
// gradient (dX). Each cut runs under par.Chunk's bands at P = 2, 3 and 5
// and under unit-width bands, ascending and then descending, into poisoned
// outputs; a band owns, of an output of c elements,
//
//   - samples: [lo·c/e, hi·c/e) when the extent e divides c;
//   - channels: [n, lo:hi, …] for every sample n, plus rows lo:hi of W and
//     the bias for dW, which start at zero because they accumulate.
//
// Everything outside a band's rectangle must be untouched by it, and the
// final bits must equal the engine's own run of the cut: Sequential for
// tops and bottom gradients, Coarse(P)'s ordered fold for the privatized
// parameter gradients of a samples backward.
func TestBandContract(t *testing.T) {
	for _, c := range layerCases() {
		t.Run(c.name, func(t *testing.T) { bandContract(t, c) })
	}
}

// TestBandContractRunsTheDataFill: the Data case's forward extent is its
// batch, so TestBandContract sweeps the Data layer's load band by band
// rather than skipping a layer with no range to check.
func TestBandContractRunsTheDataFill(t *testing.T) {
	for _, c := range layerCases() {
		if c.name != "Data" {
			continue
		}
		l, _, top := c.setUp(t)
		if e, batch := l.ForwardExtent(), top[0].Shape()[0]; e != batch {
			t.Fatalf("Data forward extent %d, want the batch %d", e, batch)
		}
		return
	}
	t.Fatal("the catalogue has no Data case")
}

func bandContract(t *testing.T, c layerCase) {
	// The Sequential run is made on first use, so a band that breaks the
	// layer fails its own check before an engine trips over the damage.
	var ref layers.Layer
	var refBottom, refTop []*blob.Blob
	seq := func() {
		if ref == nil {
			ref, refBottom, refTop = poisonedRun(t, c, NewSequential())
		}
	}
	l, bottom, top := c.setUp(t)
	params := l.Params()
	orders := []struct {
		name string
		desc bool
	}{{"ascending", false}, {"descending", true}}
	cr, channelled := l.(layers.ChannelRanger)

	// Forward: the prepare hook runs once, as the engine runs it before
	// its region; the finish hook after every sweep.
	if p, ok := l.(layers.ForwardPreparer); ok {
		p.ForwardPrepare(bottom, top)
	}
	forward := func(cut string, e int, owns rect, run func(b band)) {
		outs := outputs("top", top, false, owns)
		for _, s := range schedules(e) {
			for _, o := range orders {
				what := fmt.Sprintf("%s forward, %s %s", cut, s.name, o.name)
				sweep(t, what, l, s, o.desc, false, outs, func(b band, _ int) { run(b) })
				if f, ok := l.(layers.ForwardFinisher); ok {
					f.ForwardFinish(bottom, top)
				}
				seq()
				sameOutputs(t, what, outs, values(refTop, false))
			}
		}
	}
	if e := l.ForwardExtent(); e > 0 {
		forward("samples", e, bySamples(e), func(b band) { l.ForwardRange(b.lo, b.hi, bottom, top) })
	}
	if channelled {
		out, _ := cr.ChannelExtents()
		forward("channels", out, byChannels(out), func(b band) { cr.ForwardChannels(b.lo, b.hi, bottom, top) })
	}

	// Backward, from the forward state every sweep left alike.
	e := l.BackwardExtent()
	if e == 0 {
		return
	}
	c.seedTopDiffs(top)
	if p, ok := l.(layers.BackwardPreparer); ok {
		p.BackwardPrepare(bottom, top)
	}
	// Samples: each band accumulates into its own zeroed private
	// gradients; the shared ones are poisoned and must stay so.
	outs := append(outputs("bottom diff", bottom, true, bySamples(e)), outputs("shared param diff", params, true, untouched)...)
	dX := outs[:len(bottom)]
	for _, s := range schedules(e) {
		var folded [][]float32
		if len(params) > 0 {
			coarse, _, _ := poisonedRun(t, c, NewCoarse(s.p))
			folded = values(coarse.Params(), true)
		}
		for _, o := range orders {
			what := fmt.Sprintf("samples backward, %s %s", s.name, o.name)
			privs := make([][]*blob.Blob, s.p)
			for r := range privs {
				for _, p := range params {
					privs[r] = append(privs[r], blob.New(p.Shape()...))
				}
			}
			sweep(t, what, l, s, o.desc, false, outs, func(b band, r int) {
				l.BackwardRange(b.lo, b.hi, bottom, top, privs[r])
			})
			seq()
			sameOutputs(t, what, dX, values(refBottom, true))
			for i, p := range params {
				sum := blob.New(p.Shape()...)
				for r := range privs {
					sum.AccumulateDiffRange(privs[r][i], 0, p.Count())
				}
				if j, ok := sameBits(sum.Diff(), folded[i]); !ok {
					t.Fatalf("%s: param %d grad folded in rank order [%d] = %v, Coarse(%d) has %v",
						what, i, j, sum.Diff()[j], s.p, folded[i][j])
				}
			}
		}
	}
	if !channelled {
		return
	}

	// Channels: dW bands own rows of the shared parameter gradients and
	// accumulate into them; dX bands own input channels of every sample.
	out, in := cr.ChannelExtents()
	outs = append(outputs("param diff", params, true, bySamples(out)), outputs("bottom diff", bottom, true, untouched)...)
	dW := outs[:len(params)]
	for _, s := range schedules(out) {
		for _, o := range orders {
			what := fmt.Sprintf("channels dW, %s %s", s.name, o.name)
			sweep(t, what, l, s, o.desc, true, outs, func(b band, _ int) { cr.BackwardParamChannels(b.lo, b.hi, bottom, top) })
			seq()
			sameOutputs(t, what, dW, values(ref.Params(), true))
		}
	}
	if in == 0 {
		return
	}
	outs = append(outputs("bottom diff", bottom, true, byChannels(in)), outputs("param diff", params, true, untouched)...)
	dX = outs[:len(bottom)]
	for _, s := range schedules(in) {
		for _, o := range orders {
			what := fmt.Sprintf("channels dX, %s %s", s.name, o.name)
			sweep(t, what, l, s, o.desc, false, outs, func(b band, _ int) { cr.BackwardDataChannels(b.lo, b.hi, bottom, top) })
			seq()
			sameOutputs(t, what, dX, values(refBottom, true))
		}
	}
}
