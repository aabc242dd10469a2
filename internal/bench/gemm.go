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
	specs, err := zoo.Build(o.Net, sourceFor(o), zoo.Options{BatchSize: o.Batch, Seed: 1, LoweredConv: true})
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

type gemmFunc func(ta, tb blas.Transpose, m, n, k int, alpha float32, a []float32, lda int, b []float32, ldb int, beta float32, c []float32, ldc int)

// timeGemmPair returns the throughput of the reference and of the blocked
// kernel on shape s in MFLOP/s. The two are timed in alternating windows
// of a few milliseconds and each keeps its best window, so a neighbour's
// burst on a shared host lands on both or on neither.
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
	a := make([]float32, arows*acols)
	b := make([]float32, brows*bcols)
	c := make([]float32, s.M*s.N)
	for i := range a {
		a[i] = r.Range(-1, 1)
	}
	for i := range b {
		b[i] = r.Range(-1, 1)
	}
	run := func(f gemmFunc, reps int) time.Duration {
		start := time.Now()
		for i := 0; i < reps; i++ {
			f(s.TransA, s.TransB, s.M, s.N, s.K, 1, a, acols, b, bcols, 0, c, s.N)
		}
		return time.Since(start)
	}
	// Per kernel: a repetition count filling a ~3 ms window, then the
	// best of five alternating windows.
	const window = 3 * time.Millisecond
	kernels := [2]gemmFunc{blas.GemmReference, blas.GemmBlocked}
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
	mflops := func(i int) float64 {
		return 2 * float64(s.M) * float64(s.N) * float64(s.K) * float64(reps[i]) / best[i].Seconds() / 1e6
	}
	return mflops(0), mflops(1)
}
