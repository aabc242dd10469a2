package layers

import (
	"fmt"
	"math"
	"testing"

	"coarsegrain/internal/blob"
	"coarsegrain/internal/rng"
)

// deconvLoops is the transposed convolution as the hand-written scatter
// and gather loop nests the layer ran before it became Convolution's
// adjoint, kept as the oracle of the lowered products. Weights are
// (C_in, C_out, KH, KW); x is (S, C_in, H, W), y is (S, C_out, outH, outW).
type deconvLoops struct {
	cfg                          ConvConfig
	num, channels, height, width int
	outH, outW                   int
}

func newDeconvLoops(l *Deconvolution, bottom *blob.Blob) deconvLoops {
	return deconvLoops{cfg: l.cfg, num: bottom.Num(), channels: bottom.Channels(),
		height: bottom.Height(), width: bottom.Width(), outH: l.plan.Height, outW: l.plan.Width}
}

// forward: y = bias, then every input pixel scatters v·w[ci,co] into a
// kernel-shaped patch of every output channel.
func (d deconvLoops) forward(w, bias, x, y []float32) {
	kh, kw := d.cfg.KernelH, d.cfg.KernelW
	o, ohw := d.cfg.NumOutput, d.outH*d.outW
	for s := 0; s < d.num; s++ {
		out := y[s*o*ohw : (s+1)*o*ohw]
		for co := 0; co < o; co++ {
			var b float32
			if bias != nil {
				b = bias[co]
			}
			for i := range out[co*ohw : (co+1)*ohw] {
				out[co*ohw+i] = b
			}
		}
		in := x[s*d.channels*d.height*d.width:]
		for ci := 0; ci < d.channels; ci++ {
			for ih := 0; ih < d.height; ih++ {
				for iw := 0; iw < d.width; iw++ {
					v := in[(ci*d.height+ih)*d.width+iw]
					for co := 0; co < o; co++ {
						d.taps(ih, iw, func(k, oidx int) {
							out[co*ohw+oidx] += v * w[(ci*o+co)*kh*kw+k]
						})
					}
				}
			}
		}
	}
}

// backward: the gather duals of the forward scatter.
//
//	dW[ci,co,k] += Σ x[ci,i] · dy[co, i*s-p+k]
//	dx[ci,i]     = Σ w[ci,co,k] · dy[co, i*s-p+k]
//	db[co]      += Σ dy[co]
func (d deconvLoops) backward(w, x, dy, dW, db, dx []float32) {
	kh, kw := d.cfg.KernelH, d.cfg.KernelW
	o, ohw := d.cfg.NumOutput, d.outH*d.outW
	hw := d.height * d.width
	for s := 0; s < d.num; s++ {
		outDiff := dy[s*o*ohw : (s+1)*o*ohw]
		for co := 0; db != nil && co < o; co++ {
			var sum float32
			for _, v := range outDiff[co*ohw : (co+1)*ohw] {
				sum += v
			}
			db[co] += sum
		}
		for ci := 0; ci < d.channels; ci++ {
			for i := 0; i < hw; i++ {
				xv := x[(s*d.channels+ci)*hw+i]
				var acc float32
				for co := 0; co < o; co++ {
					d.taps(i/d.width, i%d.width, func(k, oidx int) {
						g := outDiff[co*ohw+oidx]
						dW[(ci*o+co)*kh*kw+k] += xv * g
						acc += w[(ci*o+co)*kh*kw+k] * g
					})
				}
				if dx != nil {
					dx[(s*d.channels+ci)*hw+i] = acc
				}
			}
		}
	}
}

// taps calls f(k, oidx) for every kernel tap k of input pixel (ih, iw)
// that lands at output position oidx.
func (d deconvLoops) taps(ih, iw int, f func(k, oidx int)) {
	for ki := 0; ki < d.cfg.KernelH; ki++ {
		oh := ih*d.cfg.StrideH - d.cfg.PadH + ki
		if oh < 0 || oh >= d.outH {
			continue
		}
		for kj := 0; kj < d.cfg.KernelW; kj++ {
			ow := iw*d.cfg.StrideW - d.cfg.PadW + kj
			if ow < 0 || ow >= d.outW {
				continue
			}
			f(ki*d.cfg.KernelW+kj, oh*d.outW+ow)
		}
	}
}

func relClose(t *testing.T, what string, got, want []float32) {
	t.Helper()
	for i, v := range want {
		if d := math.Abs(float64(got[i] - v)); d > 1e-4*math.Max(1, math.Abs(float64(v))) {
			t.Fatalf("%s at %d: %v, loop oracle %v", what, i, got[i], v)
		}
	}
}

// TestDeconvolutionMatchesLoopOracle: the layer's lowered products agree
// with the scatter/gather loops within 1e-4 relative, in both passes and
// in ragged sample bands, across kernel sizes (square and not), strides
// and pads, with and without bias and input gradient.
func TestDeconvolutionMatchesLoopOracle(t *testing.T) {
	r := rng.New(85, 1)
	var cases []ConvConfig
	for _, k := range [][2]int{{1, 1}, {2, 2}, {3, 3}, {4, 4}, {5, 5}, {3, 2}, {2, 5}} {
		for stride := 1; stride <= 3; stride++ {
			for pad := 0; pad <= 2 && pad < min(k[0], k[1]); pad++ {
				cases = append(cases, ConvConfig{NumOutput: 2 + len(cases)%4, KernelH: k[0], KernelW: k[1],
					Stride: stride, Pad: pad, NoBias: len(cases)%3 == 2})
			}
		}
	}
	for ci, cfg := range cases {
		cfg.WeightFiller, cfg.BiasFiller, cfg.RNG = GaussianFiller{Std: 0.3}, GaussianFiller{Std: 0.3}, rng.New(86, 1)
		dx := ci%5 != 4
		name := fmt.Sprintf("k%dx%d s%d p%d o%d bias=%v dx=%v", cfg.KernelH, cfg.KernelW, cfg.Stride, cfg.Pad,
			cfg.NumOutput, !cfg.NoBias, dx)
		l, err := NewDeconvolution("dc", cfg)
		if err != nil {
			t.Fatal(err)
		}
		l.SetPropagateDown([]bool{dx})
		bottom := randomBlob(r, -1, 1, 3, 3, 5, 4)
		tops := setup(t, l, []*blob.Blob{bottom})
		oracle := newDeconvLoops(l, bottom)
		w := l.Params()[0].Data()
		var bias []float32
		if !cfg.NoBias {
			bias = l.Params()[1].Data()
		}

		for lo := 0; lo < 3; lo += 2 {
			l.ForwardRange(lo, min(lo+2, 3), []*blob.Blob{bottom}, tops)
		}
		want := make([]float32, tops[0].Count())
		oracle.forward(w, bias, bottom.Data(), want)
		relClose(t, name+" forward", tops[0].Data(), want)

		for i := range tops[0].Diff() {
			tops[0].Diff()[i] = r.Range(-1, 1)
		}
		for _, p := range l.Params() {
			p.ZeroDiff()
		}
		for lo := 0; lo < 3; lo += 2 {
			l.BackwardRange(lo, min(lo+2, 3), []*blob.Blob{bottom}, tops, l.Params())
		}
		wantW := make([]float32, len(w))
		var wantB, wantX []float32
		if !cfg.NoBias {
			wantB = make([]float32, cfg.NumOutput)
		}
		if dx {
			wantX = make([]float32, bottom.Count())
		}
		oracle.backward(w, bottom.Data(), tops[0].Diff(), wantW, wantB, wantX)
		relClose(t, name+" dW", l.Params()[0].Diff(), wantW)
		if wantB != nil {
			relClose(t, name+" db", l.Params()[1].Diff(), wantB)
		}
		if wantX != nil {
			relClose(t, name+" dx", bottom.Diff(), wantX)
		}
	}
}
