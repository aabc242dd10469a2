package bench

import (
	"fmt"
	"io"
	"time"

	"coarsegrain/internal/blas"
	"coarsegrain/internal/core"
	"coarsegrain/internal/layers"
	"coarsegrain/internal/net"
	"coarsegrain/internal/rng"
	"coarsegrain/internal/zoo"
)

// GemmShape is one GEMM a benchmark network actually issues: per-sample
// lowered convolutions (M = output channels, N = outH*outW, K = C*KH*KW)
// and batch-band fully connected passes (M = batch). These are the shapes
// PERFORMANCE.md's kernel table reports and the shapes the blocked kernel
// is tuned for.
type GemmShape struct {
	Name           string
	TransA, TransB blas.Transpose
	M, N, K        int
}

// NetGemmShapes returns the fixed selection of the network's GEMM shapes
// ("mnist" or "cifar") that the ledger (benchmark/, bench_test.go) keys
// its blas.gemm_* rows on; it stays as it is so those rows stay
// comparable. ZooShapes is the complete, derived list.
func NetGemmShapes(netName string) []GemmShape {
	nt, tr := blas.NoTrans, blas.Trans
	if netName == "cifar" {
		return []GemmShape{
			{"conv1-fwd", nt, nt, 32, 1024, 75},
			{"conv2-fwd", nt, nt, 32, 256, 800},
			{"conv3-fwd", nt, nt, 64, 64, 800},
			{"conv1-bwdX", tr, nt, 75, 1024, 32},
		}
	}
	return []GemmShape{
		{"conv1-fwd", nt, nt, 20, 576, 25},
		{"conv2-fwd", nt, nt, 50, 64, 500},
		{"conv2-bwdW", nt, tr, 50, 500, 64},
		{"conv2-bwdX", tr, nt, 500, 64, 50},
		{"ip1-fwd", nt, tr, 64, 500, 800},
		{"ip1-bwdW", tr, nt, 500, 800, 64},
	}
}

// ZooShapes derives, from the zoo network itself, every GEMM its
// lowered convolutions and inner products issue on a batch (or coarse
// band) of the given size: forward, weight gradient (bwdW) and input
// gradient (bwdX) per layer. NetGemmShapes is a fixed subset of these;
// this is the list the kernel figure reports and the dispatch test walks,
// so a layer added to a zoo net cannot miss either. The first
// convolution's bwdX is listed although the net skips it (its bottom is
// the data blob).
func ZooShapes(netName string, batch int) ([]GemmShape, error) {
	o := Options{Net: netName, Batch: batch}
	if err := o.normalize(); err != nil {
		return nil, err
	}
	specs, err := zoo.Build(o.Net, o.model.Source, zoo.Options{BatchSize: o.Batch, Seed: 1, LoweredConv: true})
	if err != nil {
		return nil, err
	}
	n, err := net.New(specs, core.NewSequential())
	if err != nil {
		return nil, err
	}
	nt, tr := blas.NoTrans, blas.Trans
	var out []GemmShape
	for _, spec := range specs {
		name := spec.Layer.Name()
		switch spec.Layer.(type) {
		case *layers.Convolution:
			w := spec.Layer.Params()[0] // O x C x KH x KW
			o := w.Dim(0)
			ckk := w.Count() / o
			ohw := n.Blob(spec.Tops[0]).Count() / (batch * o)
			out = append(out,
				GemmShape{name + "-fwd", nt, nt, o, ohw, ckk},
				GemmShape{name + "-bwdW", nt, tr, o, ckk, ohw},
				GemmShape{name + "-bwdX", tr, nt, ckk, ohw, o})
		case *layers.InnerProduct:
			w := spec.Layer.Params()[0] // N x K
			no, k := w.Dim(0), w.Dim(1)
			out = append(out,
				GemmShape{name + "-fwd", nt, tr, batch, no, k},
				GemmShape{name + "-bwdW", tr, nt, no, k, batch},
				GemmShape{name + "-bwdX", nt, nt, batch, k, no})
		}
	}
	return out, nil
}

// GemmKernelResult compares the retained reference kernel against the
// blocked packed kernel on every GEMM shape the network issues.
type GemmKernelResult struct {
	Net    string
	Shapes []GemmShape
	// RefMFLOPS[i] and BlockedMFLOPS[i] are throughputs for Shapes[i],
	// each kernel forced; Blocked[i] is the one blas.Gemm dispatches to.
	RefMFLOPS, BlockedMFLOPS []float64
	Blocked                  []bool
}

// Render prints the kernel comparison table.
func (r *GemmKernelResult) Render(w io.Writer) {
	fmt.Fprintf(w, "== %s GEMM kernel throughput (reference vs blocked, this host) ==\n", r.Net)
	fmt.Fprintf(w, "%-12s %6s %6s %6s %12s %12s %8s %9s\n", "shape", "M", "N", "K", "ref MFLOP/s", "blk MFLOP/s", "blk/ref", "Gemm uses")
	for i, s := range r.Shapes {
		uses := "ref"
		if r.Blocked[i] {
			uses = "blocked"
		}
		fmt.Fprintf(w, "%-12s %6d %6d %6d %12.0f %12.0f %7.2fx %9s\n",
			s.Name, s.M, s.N, s.K, r.RefMFLOPS[i], r.BlockedMFLOPS[i], ratio(r.BlockedMFLOPS[i], r.RefMFLOPS[i]), uses)
	}
}

func ratio(a, b float64) float64 {
	if b <= 0 {
		return 0
	}
	return a / b
}

// GemmKernels runs the kernel comparison for the selected network at its
// training batch size, each kernel forced past the dispatch, so the table
// shows what the dispatch chose between.
func GemmKernels(o Options) (*GemmKernelResult, error) {
	if err := o.normalize(); err != nil {
		return nil, err
	}
	shapes, err := ZooShapes(o.Net, o.Batch)
	if err != nil {
		return nil, err
	}
	res := &GemmKernelResult{
		Net: o.Net, Shapes: shapes,
		RefMFLOPS:     make([]float64, len(shapes)),
		BlockedMFLOPS: make([]float64, len(shapes)),
		Blocked:       make([]bool, len(shapes)),
	}
	for i, s := range shapes {
		//dnnlint:ignore hotalloc benchmark harness: fresh operands per timed kernel by design
		res.RefMFLOPS[i], res.BlockedMFLOPS[i] = timeGemmPair(s)
		res.Blocked[i] = blas.GemmIsBlocked(s.M, s.N, s.K)
	}
	return res, nil
}

// DispatchSweepResult is the measurement blas.GemmIsBlocked is read off: the
// blocked kernel's speed over the reference kernel's on a grid of small
// shapes around where packing stops paying.
type DispatchSweepResult struct {
	Ms, Ns, Ks []int
	// Speedup[mi][ni][ki] = blocked MFLOP/s / reference MFLOP/s.
	Speedup [][][]float64
}

// Render prints one N x K block per M, marking the cells the dispatch
// sends to the reference kernel.
func (r *DispatchSweepResult) Render(w io.Writer) {
	fmt.Fprintln(w, "== GEMM dispatch sweep: blocked/ref speed, A*B untransposed (* = Gemm uses ref) ==")
	for mi, m := range r.Ms {
		fmt.Fprintf(w, "M=%-5d", m)
		for _, k := range r.Ks {
			fmt.Fprintf(w, " %7s", fmt.Sprintf("K=%d", k))
		}
		fmt.Fprintln(w)
		for ni, n := range r.Ns {
			fmt.Fprintf(w, " N=%-4d", n)
			for ki, k := range r.Ks {
				mark := " "
				if !blas.GemmIsBlocked(m, n, k) {
					mark = "*"
				}
				fmt.Fprintf(w, " %6.2f%s", r.Speedup[mi][ni][ki], mark)
			}
			fmt.Fprintln(w)
		}
	}
}

// DispatchSweep measures the default grid.
func DispatchSweep() *DispatchSweepResult {
	return dispatchSweep([]int{1, 8, 64}, []int{1, 4, 16, 64, 512}, []int{1, 2, 4, 8, 32, 256})
}

func dispatchSweep(ms, ns, ks []int) *DispatchSweepResult {
	res := &DispatchSweepResult{Ms: ms, Ns: ns, Ks: ks}
	for _, m := range ms {
		var block [][]float64
		for _, n := range ns {
			var row []float64
			for _, k := range ks {
				ref, blk := timeGemmPair(GemmShape{"sweep", blas.NoTrans, blas.NoTrans, m, n, k})
				row = append(row, ratio(blk, ref))
			}
			block = append(block, row)
		}
		res.Speedup = append(res.Speedup, block)
	}
	return res
}

// timePair returns the seconds one call of each of two kernels takes. The
// two are timed in alternating windows of a few milliseconds and each
// keeps its best window, so a neighbour's burst on a shared host lands on
// both or on neither.
func timePair(kernels [2]func()) (secs [2]float64) {
	run := func(f func(), reps int) time.Duration {
		start := time.Now()
		for i := 0; i < reps; i++ {
			f()
		}
		return time.Since(start)
	}
	// Per kernel: a repetition count filling a ~3 ms window, then the
	// best of five alternating windows.
	const window = 3 * time.Millisecond
	var reps [2]int
	var best [2]time.Duration
	for i, f := range kernels {
		reps[i] = 1
		for run(f, reps[i]) < window/8 {
			reps[i] *= 4
		}
		reps[i] = max(1, int(float64(reps[i])*float64(window)/float64(run(f, reps[i])+1)))
	}
	for round := 0; round < 5; round++ {
		for i, f := range kernels {
			if d := run(f, reps[i]); round == 0 || d < best[i] {
				best[i] = d
			}
		}
	}
	for i := range secs {
		secs[i] = best[i].Seconds() / float64(reps[i])
	}
	return secs
}

func randomFloats(r *rng.RNG, n int) []float32 {
	out := make([]float32, n)
	for i := range out {
		out[i] = r.Range(-1, 1)
	}
	return out
}

// timeGemmPair returns the throughput of the reference and of the blocked
// kernel on shape s in MFLOP/s.
func timeGemmPair(s GemmShape) (ref, blocked float64) {
	arows, acols := s.M, s.K
	if s.TransA == blas.Trans {
		arows, acols = s.K, s.M
	}
	brows, bcols := s.K, s.N
	if s.TransB == blas.Trans {
		brows, bcols = s.N, s.K
	}
	r := rng.New(11, 11)
	a := randomFloats(r, arows*acols)
	b := randomFloats(r, brows*bcols)
	c := make([]float32, s.M*s.N)
	secs := timePair([2]func(){
		func() { blas.GemmReference(s.TransA, s.TransB, s.M, s.N, s.K, 1, a, acols, b, bcols, 0, c, s.N) },
		func() { blas.GemmBlocked(s.TransA, s.TransB, s.M, s.N, s.K, 1, a, acols, b, bcols, 0, c, s.N) },
	})
	flops := 2 * float64(s.M) * float64(s.N) * float64(s.K)
	return flops / secs[0] / 1e6, flops / secs[1] / 1e6
}

// ZooConv is one lowered convolution of a zoo net: its per-sample
// geometry and output channel count.
type ZooConv struct {
	Name string
	Geom blas.ConvGeom
	O    int
}

// ZooConvs derives the convolutions of a zoo net ("mnist" or "cifar") from
// the net itself, as ZooShapes derives their GEMMs.
func ZooConvs(netName string) ([]ZooConv, error) {
	o := Options{Net: netName, Batch: 1}
	if err := o.normalize(); err != nil {
		return nil, err
	}
	specs, err := zoo.Build(o.Net, o.model.Source, zoo.Options{BatchSize: o.Batch, Seed: 1, LoweredConv: true})
	if err != nil {
		return nil, err
	}
	if _, err := net.New(specs, core.NewSequential()); err != nil {
		return nil, err
	}
	var out []ZooConv
	for _, spec := range specs {
		if c, ok := spec.Layer.(*layers.Convolution); ok {
			out = append(out, ZooConv{netName + "." + c.Name(), c.Geom(), c.Params()[0].Dim(0)})
		}
	}
	return out, nil
}

// ConvSweepRow is one convolution's two gatherable products, each timed
// with the lowered matrix gathered in place and with it packed into
// panels, both forced past blas.ConvGathers.
type ConvSweepRow struct {
	ZooConv
	// Microseconds per sample; FwdGatherUS is 0 where the forward product
	// cannot gather (StrideW != 1).
	FwdGatherUS, FwdPackedUS, DWGatherUS, DWPackedUS float64
	// FwdUse and DWUse are the gathered kernels' lane utilisation
	// (blas.ConvPlan.LaneUse); FwdGathers and DWGathers what dispatch picks.
	FwdUse, DWUse         float64
	FwdGathers, DWGathers bool
}

// ConvSweepResult is the measurement blas.ConvGathers is read off.
type ConvSweepResult struct{ Rows []ConvSweepRow }

// Render prints the sweep, one line per convolution.
func (r *ConvSweepResult) Render(w io.Writer) {
	fmt.Fprintln(w, "== lowered conv operand sweep: gathered vs packed B, us/sample each forced (this host) ==")
	fmt.Fprintf(w, "%-22s %5s %5s | %9s %9s %7s %5s %7s | %9s %9s %7s %5s %7s\n", "conv (C,HxW,k,p,s)", "O", "outW",
		"fwd gath", "fwd pack", "pk/gath", "lanes", "uses", "dW gath", "dW pack", "pk/gath", "lanes", "uses")
	uses := func(gather bool) string {
		if gather {
			return "gather"
		}
		return "packed"
	}
	for _, c := range r.Rows {
		g := c.Geom
		fwd := fmt.Sprintf("%9s %9.1f %7s %5s", "-", c.FwdPackedUS, "-", "-")
		if c.FwdGatherUS > 0 {
			fwd = fmt.Sprintf("%9.1f %9.1f %6.2fx %4.0f%%", c.FwdGatherUS, c.FwdPackedUS, ratio(c.FwdPackedUS, c.FwdGatherUS), 100*c.FwdUse)
		}
		fmt.Fprintf(w, "%-22s %5d %5d | %s %7s | %9.1f %9.1f %6.2fx %4.0f%% %7s\n",
			c.Name, c.O, g.OutW(), fwd, uses(c.FwdGathers),
			c.DWGatherUS, c.DWPackedUS, ratio(c.DWPackedUS, c.DWGatherUS), 100*c.DWUse, uses(c.DWGathers))
	}
}

// sweepGeoms are the geometries beside the zoo's that show where each
// product's choice could flip: output rows that leave a lane group mostly
// empty, kernel rows of 1, 3 and 7 columns, a strided convolution.
var sweepGeoms = []ZooConv{
	{"c16,12x12,k5 outW=8", blas.ConvGeom{Channels: 16, Height: 12, Width: 12, KernelH: 5, KernelW: 5, StrideH: 1, StrideW: 1}, 32},
	{"c16,9x9,k5 outW=5", blas.ConvGeom{Channels: 16, Height: 9, Width: 9, KernelH: 5, KernelW: 5, StrideH: 1, StrideW: 1}, 32},
	{"c16,14x14,k3 outW=12", blas.ConvGeom{Channels: 16, Height: 14, Width: 14, KernelH: 3, KernelW: 3, StrideH: 1, StrideW: 1}, 32},
	{"c16,16x16,k3,p1", blas.ConvGeom{Channels: 16, Height: 16, Width: 16, KernelH: 3, KernelW: 3, PadH: 1, PadW: 1, StrideH: 1, StrideW: 1}, 32},
	{"c16,16x16,k4,p1", blas.ConvGeom{Channels: 16, Height: 16, Width: 16, KernelH: 4, KernelW: 4, PadH: 1, PadW: 1, StrideH: 1, StrideW: 1}, 32},
	{"c64,16x16,k1", blas.ConvGeom{Channels: 64, Height: 16, Width: 16, KernelH: 1, KernelW: 1, StrideH: 1, StrideW: 1}, 32},
	{"c8,28x28,k7,p3", blas.ConvGeom{Channels: 8, Height: 28, Width: 28, KernelH: 7, KernelW: 7, PadH: 3, PadW: 3, StrideH: 1, StrideW: 1}, 16},
	{"c16,31x31,k5,p2,s2", blas.ConvGeom{Channels: 16, Height: 31, Width: 31, KernelH: 5, KernelW: 5, PadH: 2, PadW: 2, StrideH: 2, StrideW: 2}, 32},
	{"c3,227x227,k11,s4", blas.ConvGeom{Channels: 3, Height: 227, Width: 227, KernelH: 11, KernelW: 11, StrideH: 4, StrideW: 4}, 96},
}

// ConvSweep times every zoo convolution and the extra sweep geometries.
func ConvSweep() (*ConvSweepResult, error) {
	var convs []ZooConv
	for _, netName := range []string{"mnist", "cifar"} {
		zc, err := ZooConvs(netName)
		if err != nil {
			return nil, err
		}
		convs = append(convs, zc...)
	}
	res := &ConvSweepResult{}
	for _, c := range append(convs, sweepGeoms...) {
		//dnnlint:ignore hotalloc benchmark harness: fresh operands per timed kernel by design
		res.Rows = append(res.Rows, timeConv(c))
	}
	return res, nil
}

func timeConv(c ZooConv) ConvSweepRow {
	g, o := c.Geom, c.O
	ckk, ohw := g.Rows(), g.Cols()
	r := rng.New(12, 12)
	im := randomFloats(r, g.Channels*g.Height*g.Width)
	w := randomFloats(r, o*ckk)
	dTop := randomFloats(r, o*ohw)
	out := make([]float32, o*ohw)
	wGrad := make([]float32, o*ckk)
	gather, packed := blas.NewConvPlanForced(g, true), blas.NewConvPlanForced(g, false)
	row := ConvSweepRow{ZooConv: c}
	row.FwdGathers, row.DWGathers = blas.ConvGathers(g)
	row.FwdUse, row.DWUse = gather.LaneUse()
	s := blas.GetScratch()
	defer blas.PutScratch(s)
	s.PackA(blas.NoTrans, o, ckk, w, ckk)
	fwd := timePair([2]func(){
		func() { blas.ConvForward(s, gather, o, im, nil, out) },
		func() { blas.ConvForward(s, packed, o, im, nil, out) },
	})
	row.FwdPackedUS = fwd[1] * 1e6
	if row.FwdUse > 0 { // else both timed the packed path
		row.FwdGatherUS = fwd[0] * 1e6
	}
	dw := timePair([2]func(){
		func() { blas.ConvBackwardWeights(s, gather, o, dTop, im, wGrad) },
		func() { blas.ConvBackwardWeights(s, packed, o, dTop, im, wGrad) },
	})
	row.DWGatherUS, row.DWPackedUS = dw[0]*1e6, dw[1]*1e6
	return row
}
