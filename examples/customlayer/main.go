// Custom-layer example: the paper's *network-agnostic* headline claim,
// demonstrated. A brand-new "research-stage" layer — here Swish,
// x·sigmoid(βx), a post-2016 activation no library kernel existed for —
// is defined below in ~60 lines against the generic Layer contract. It
// immediately runs, in parallel, under the coarse-grain engine: no engine
// changes, no per-layer kernel, no "recoding efforts" (§3.3). Its
// learnable β even gets the privatized, order-reduced gradient treatment
// automatically.
//
//	go run ./examples/customlayer
package main

import (
	"fmt"
	"log"
	"math"

	"coarsegrain/internal/blob"
	"coarsegrain/internal/core"
	"coarsegrain/internal/data"
	"coarsegrain/internal/layers"
	"coarsegrain/internal/net"
	"coarsegrain/internal/rng"
	"coarsegrain/internal/solver"
)

// Swish is y = x * sigmoid(beta*x) with a learnable scalar beta
// (Ramachandran et al., 2017). The only parallelization work is declaring
// the coalesced loop: (sample, channel) planes, via ForwardExtent and
// disjoint ranges — everything the paper's transformation needs.
type Swish struct {
	beta          *blob.Blob // 1-element learnable parameter
	name          string
	extent, plane int
	propagateDown bool
}

// Interface conformance is the whole integration story. Swish has a
// parameter, so it runs backward even when its bottom needs no gradient:
// it takes the net's flags to skip dx then, and the assertion makes a
// misspelt method a compile error rather than a silent miss.
var (
	_ layers.Layer           = (*Swish)(nil)
	_ layers.PropagateDowner = (*Swish)(nil)
)

// NewSwish creates a Swish layer with beta initialized to 1.
func NewSwish(name string) *Swish {
	b := blob.Named(name+"_beta", 1)
	b.Data()[0] = 1
	return &Swish{beta: b, name: name, propagateDown: true}
}

func (l *Swish) Name() string         { return l.name }
func (l *Swish) Type() string         { return "Swish" }
func (l *Swish) Params() []*blob.Blob { return []*blob.Blob{l.beta} }
func (l *Swish) SetPropagateDown(f []bool) {
	if len(f) > 0 {
		l.propagateDown = f[0]
	}
}

func (l *Swish) SetUp(bottom, top []*blob.Blob) error {
	if len(bottom) != 1 || len(top) != 1 {
		return fmt.Errorf("swish: want 1 bottom and 1 top")
	}
	l.Reshape(bottom, top)
	return nil
}

func (l *Swish) Reshape(bottom, top []*blob.Blob) {
	top[0].ReshapeLike(bottom[0])
	l.extent = bottom[0].Dim(0)
	if bottom[0].AxisCount() >= 2 {
		l.extent *= bottom[0].Dim(1)
	}
	l.plane = bottom[0].Count() / l.extent
}

func (l *Swish) ForwardExtent() int { return l.extent }

func (l *Swish) ForwardRange(lo, hi int, bottom, top []*blob.Blob) {
	beta := float64(l.beta.Data()[0])
	in, out := bottom[0].Data(), top[0].Data()
	for i := lo * l.plane; i < hi*l.plane; i++ {
		x := float64(in[i])
		out[i] = float32(x / (1 + math.Exp(-beta*x)))
	}
}

func (l *Swish) BackwardExtent() int { return l.extent }

func (l *Swish) BackwardRange(lo, hi int, bottom, top []*blob.Blob, paramGrads []*blob.Blob) {
	beta := float64(l.beta.Data()[0])
	in := bottom[0].Data()
	dy := top[0].Diff()
	dx := bottom[0].Diff()
	var dBeta float64
	for i := lo * l.plane; i < hi*l.plane; i++ {
		x := float64(in[i])
		s := 1 / (1 + math.Exp(-beta*x))
		y := x * s
		// dy/dx = s + beta*y*(1-s); dy/dbeta = x*y*(1-s).
		if l.propagateDown {
			dx[i] = dy[i] * float32(s+beta*y*(1-s))
		}
		dBeta += float64(dy[i]) * x * y * (1 - s)
	}
	paramGrads[0].Diff()[0] += float32(dBeta)
}

func main() {
	src := data.NewSyntheticMNIST(512, 31)
	d, err := layers.NewData("data", src, 32)
	check(err)
	conv, err := layers.NewConvolution("conv", layers.ConvConfig{
		NumOutput: 6, Kernel: 5, Stride: 2,
		WeightFiller: layers.XavierFiller{}, RNG: rng.New(31, 1),
	})
	check(err)
	ip, err := layers.NewInnerProduct("ip", layers.IPConfig{
		NumOutput: 10, WeightFiller: layers.XavierFiller{}, RNG: rng.New(31, 2),
	})
	check(err)

	engine := core.NewCoarse(4)
	defer engine.Close()
	network, err := net.New([]net.LayerSpec{
		{Layer: d, Tops: []string{"data", "label"}},
		{Layer: conv, Bottoms: []string{"data"}, Tops: []string{"conv"}},
		{Layer: NewSwish("swish"), Bottoms: []string{"conv"}, Tops: []string{"swish"}}, // <- the new layer
		{Layer: ip, Bottoms: []string{"swish"}, Tops: []string{"ip"}},
		{Layer: layers.NewSoftmaxWithLoss("loss"), Bottoms: []string{"ip", "label"}, Tops: []string{"loss"}},
		{Layer: layers.NewAccuracy("acc", 1), Bottoms: []string{"ip", "label"}, Tops: []string{"acc"}},
	}, engine)
	check(err)

	s, err := solver.New(solver.Config{Type: solver.SGD, BaseLR: 0.02, Momentum: 0.9}, network)
	check(err)

	fmt.Printf("training a net containing a custom Swish layer on %d coarse workers\n", engine.Workers())
	for e := 0; e < 5; e++ {
		losses := s.Step(20)
		acc, _ := network.Output("acc")
		var beta float32
		for _, l := range network.Layers() {
			if sw, ok := l.(*Swish); ok {
				beta = sw.beta.Data()[0]
			}
		}
		fmt.Printf("iter %3d  loss %.4f  acc %.2f  learned beta %.4f\n",
			s.Iter(), losses[len(losses)-1], acc, beta)
	}
	fmt.Println("\nthe Swish layer required zero engine changes — batch-level")
	fmt.Println("parallelism and privatized+ordered beta gradients came from the")
	fmt.Println("generic contract (the paper's network-agnostic property)")
}

func check(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
