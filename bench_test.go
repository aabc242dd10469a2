// Package coarsegrain_test holds the testing.B benchmark suite: one
// benchmark family per table/figure of the paper's evaluation (DESIGN.md
// §3 maps each to its experiment id). Run with:
//
//	go test -bench=. -benchmem
//
// Wall-clock speedups across worker counts are only meaningful on a
// multi-core host; `cmd/dnnbench` additionally reports the calibrated
// model numbers that stand in for the paper's 16-core machine.
package coarsegrain_test

import (
	"fmt"
	"testing"

	"coarsegrain/internal/bench"
	"coarsegrain/internal/blas"
	"coarsegrain/internal/blob"
	"coarsegrain/internal/core"
	"coarsegrain/internal/data"
	"coarsegrain/internal/layers"
	"coarsegrain/internal/net"
	"coarsegrain/internal/par"
	"coarsegrain/internal/rng"
	"coarsegrain/internal/solver"
	"coarsegrain/internal/zoo"
)

// threadCounts is the paper's evaluated worker set.
var threadCounts = []int{1, 2, 4, 8, 12, 16}

// buildLeNet builds the MNIST benchmark net on an engine, on the direct
// or (lowered) the im2col+GEMM convolution.
func buildLeNet(b *testing.B, batch int, eng core.Engine, lowered bool) *net.Net {
	b.Helper()
	src := data.NewSyntheticMNIST(4*batch, 1)
	specs, err := zoo.LeNet(src, zoo.Options{BatchSize: batch, Seed: 1, LoweredConv: lowered})
	if err != nil {
		b.Fatal(err)
	}
	n, err := net.New(specs, eng)
	if err != nil {
		b.Fatal(err)
	}
	return n
}

// buildCIFAR builds the CIFAR-10-full benchmark net (reduced batch so the
// direct convolutions fit benchmark time), like buildLeNet.
func buildCIFAR(b *testing.B, batch int, eng core.Engine, lowered bool) *net.Net {
	b.Helper()
	src := data.NewSyntheticCIFAR(4*batch, 1)
	specs, err := zoo.CIFARFull(src, zoo.Options{BatchSize: batch, Seed: 1, LoweredConv: lowered})
	if err != nil {
		b.Fatal(err)
	}
	n, err := net.New(specs, eng)
	if err != nil {
		b.Fatal(err)
	}
	return n
}

func iterate(b *testing.B, n *net.Net) {
	b.Helper()
	n.ZeroParamDiffs()
	n.ForwardBackward() // warm-up + shape settle
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n.ZeroParamDiffs()
		n.ForwardBackward()
	}
}

// --- Figures 4 & 6 (MNIST): full training iteration per engine/threads ---

func BenchmarkFigure6MNISTCoarse(b *testing.B) {
	for _, t := range threadCounts {
		b.Run(fmt.Sprintf("threads=%d", t), func(b *testing.B) {
			eng := core.NewCoarse(t)
			defer eng.Close()
			iterate(b, buildLeNet(b, 64, eng, false))
		})
	}
}

func BenchmarkFigure6MNISTSequential(b *testing.B) {
	iterate(b, buildLeNet(b, 64, core.NewSequential(), false))
}

func BenchmarkFigure6MNISTFine(b *testing.B) {
	eng := core.NewFine(16)
	defer eng.Close()
	iterate(b, buildLeNet(b, 64, eng, false))
}

// BenchmarkFigure6MNISTFineLowered is the cuDNN-GPU analogue: the fine
// engine on the lowered convolution.
func BenchmarkFigure6MNISTFineLowered(b *testing.B) {
	eng := core.NewFine(16)
	defer eng.Close()
	iterate(b, buildLeNet(b, 64, eng, true))
}

// --- Figures 7 & 9 (CIFAR-10) ---

func BenchmarkFigure9CIFARCoarse(b *testing.B) {
	for _, t := range threadCounts {
		b.Run(fmt.Sprintf("threads=%d", t), func(b *testing.B) {
			eng := core.NewCoarse(t)
			defer eng.Close()
			iterate(b, buildCIFAR(b, 16, eng, false))
		})
	}
}

func BenchmarkFigure9CIFARSequential(b *testing.B) {
	iterate(b, buildCIFAR(b, 16, core.NewSequential(), false))
}

func BenchmarkFigure9CIFARFineLowered(b *testing.B) {
	eng := core.NewFine(16)
	defer eng.Close()
	iterate(b, buildCIFAR(b, 16, eng, true))
}

// --- Figures 5 & 8: per-layer passes (the dominating layers) ---

// layerBench times one layer's forward or backward under an engine.
func layerBench(b *testing.B, mk func() (layers.Layer, []*blob.Blob, []*blob.Blob), eng core.Engine, backward bool) {
	b.Helper()
	l, bottoms, tops := mk()
	eng.Forward(l, bottoms, tops)
	if backward {
		r := rng.New(9, 9)
		for i := range tops[0].Diff() {
			tops[0].Diff()[i] = r.Range(-1, 1)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if backward {
			for _, p := range l.Params() {
				p.ZeroDiff()
			}
			eng.Backward(l, bottoms, tops)
		} else {
			eng.Forward(l, bottoms, tops)
		}
	}
}

// mkConv1 replicates LeNet's conv1 geometry (batch 64, 1x28x28 -> 20x24x24).
func mkConv1(b *testing.B) func() (layers.Layer, []*blob.Blob, []*blob.Blob) {
	return func() (layers.Layer, []*blob.Blob, []*blob.Blob) {
		r := rng.New(3, 3)
		l, err := layers.NewConvolution("conv1", layers.ConvConfig{
			NumOutput: 20, Kernel: 5, WeightFiller: layers.XavierFiller{}, RNG: r,
		})
		if err != nil {
			b.Fatal(err)
		}
		bottom := blob.New(64, 1, 28, 28)
		for i := range bottom.Data() {
			bottom.Data()[i] = r.Range(0, 1)
		}
		tops := []*blob.Blob{blob.New()}
		if err := l.SetUp([]*blob.Blob{bottom}, tops); err != nil {
			b.Fatal(err)
		}
		return l, []*blob.Blob{bottom}, tops
	}
}

func BenchmarkFigure5Conv1(b *testing.B) {
	for _, t := range []int{1, 4, 16} {
		for _, phase := range []string{"fwd", "bwd"} {
			b.Run(fmt.Sprintf("%s/threads=%d", phase, t), func(b *testing.B) {
				eng := core.NewCoarse(t)
				defer eng.Close()
				layerBench(b, mkConv1(b), eng, phase == "bwd")
			})
		}
	}
}

// mkPool2 replicates LeNet's pool2 geometry (the poorly scaling layer).
func mkPool2(b *testing.B) func() (layers.Layer, []*blob.Blob, []*blob.Blob) {
	return func() (layers.Layer, []*blob.Blob, []*blob.Blob) {
		r := rng.New(4, 4)
		l, err := layers.NewPooling("pool2", layers.PoolConfig{Method: layers.MaxPool, Kernel: 2, Stride: 2})
		if err != nil {
			b.Fatal(err)
		}
		bottom := blob.New(64, 50, 8, 8)
		for i := range bottom.Data() {
			bottom.Data()[i] = r.Range(0, 1)
		}
		tops := []*blob.Blob{blob.New()}
		if err := l.SetUp([]*blob.Blob{bottom}, tops); err != nil {
			b.Fatal(err)
		}
		return l, []*blob.Blob{bottom}, tops
	}
}

func BenchmarkFigure5Pool2(b *testing.B) {
	for _, t := range []int{1, 4, 16} {
		b.Run(fmt.Sprintf("fwd/threads=%d", t), func(b *testing.B) {
			eng := core.NewCoarse(t)
			defer eng.Close()
			layerBench(b, mkPool2(b), eng, false)
		})
	}
}

// mkIP1 replicates LeNet's ip1 (800 -> 500), the other limiting layer.
func mkIP1(b *testing.B) func() (layers.Layer, []*blob.Blob, []*blob.Blob) {
	return func() (layers.Layer, []*blob.Blob, []*blob.Blob) {
		r := rng.New(5, 5)
		l, err := layers.NewInnerProduct("ip1", layers.IPConfig{
			NumOutput: 500, WeightFiller: layers.XavierFiller{}, RNG: r,
		})
		if err != nil {
			b.Fatal(err)
		}
		bottom := blob.New(64, 800)
		for i := range bottom.Data() {
			bottom.Data()[i] = r.Range(-1, 1)
		}
		tops := []*blob.Blob{blob.New()}
		if err := l.SetUp([]*blob.Blob{bottom}, tops); err != nil {
			b.Fatal(err)
		}
		return l, []*blob.Blob{bottom}, tops
	}
}

func BenchmarkFigure5IP1(b *testing.B) {
	for _, t := range []int{1, 4, 16} {
		for _, phase := range []string{"fwd", "bwd"} {
			b.Run(fmt.Sprintf("%s/threads=%d", phase, t), func(b *testing.B) {
				eng := core.NewCoarse(t)
				defer eng.Close()
				layerBench(b, mkIP1(b), eng, phase == "bwd")
			})
		}
	}
}

// --- Substrate benches: the BLAS kernels behind every layer ---

func BenchmarkGemm(b *testing.B) {
	r := rng.New(6, 6)
	for _, n := range []int{32, 128, 512} {
		a := make([]float32, n*n)
		bm := make([]float32, n*n)
		c := make([]float32, n*n)
		for i := range a {
			a[i] = r.Range(-1, 1)
			bm[i] = r.Range(-1, 1)
		}
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			b.SetBytes(int64(3 * n * n * 4))
			for i := 0; i < b.N; i++ {
				blas.Gemm(blas.NoTrans, blas.NoTrans, n, n, n, 1, a, n, bm, n, 0, c, n)
			}
		})
	}
}

// BenchmarkGemmKernels times the retained reference kernel against the
// blocked packed kernel on the exact GEMM shapes the benchmark networks
// emit (bench.NetGemmShapes; PERFORMANCE.md records a run). SetBytes is
// the flop count, so the MB/s column reads directly as MFLOP/s.
func BenchmarkGemmKernels(b *testing.B) {
	r := rng.New(11, 11)
	for _, netName := range []string{"mnist", "cifar"} {
		for _, s := range bench.NetGemmShapes(netName) {
			arows, acols := s.M, s.K
			if s.TransA == blas.Trans {
				arows, acols = s.K, s.M
			}
			brows, bcols := s.K, s.N
			if s.TransB == blas.Trans {
				brows, bcols = s.N, s.K
			}
			a := make([]float32, arows*acols)
			bm := make([]float32, brows*bcols)
			c := make([]float32, s.M*s.N)
			for i := range a {
				a[i] = r.Range(-1, 1)
			}
			for i := range bm {
				bm[i] = r.Range(-1, 1)
			}
			flops := int64(2) * int64(s.M) * int64(s.N) * int64(s.K)
			b.Run(fmt.Sprintf("%s/%s/ref", netName, s.Name), func(b *testing.B) {
				b.SetBytes(flops)
				for i := 0; i < b.N; i++ {
					blas.GemmReference(s.TransA, s.TransB, s.M, s.N, s.K, 1, a, acols, bm, bcols, 0, c, s.N)
				}
			})
			b.Run(fmt.Sprintf("%s/%s/blocked", netName, s.Name), func(b *testing.B) {
				b.SetBytes(flops)
				for i := 0; i < b.N; i++ {
					blas.Gemm(s.TransA, s.TransB, s.M, s.N, s.K, 1, a, acols, bm, bcols, 0, c, s.N)
				}
			})
		}
	}
}

func BenchmarkIm2col(b *testing.B) {
	im := make([]float32, 3*32*32)
	outH := blas.ConvOutSize(32, 5, 2, 1)
	col := make([]float32, 3*5*5*outH*outH)
	b.SetBytes(int64(len(col) * 4))
	for i := 0; i < b.N; i++ {
		blas.Im2col(im, 3, 32, 32, 5, 5, 2, 2, 1, 1, col)
	}
}

// --- Convergence-experiment cost (T-conv): one training step ---

func BenchmarkTrainingStep(b *testing.B) {
	for _, t := range []int{1, 4} {
		b.Run(fmt.Sprintf("coarse/threads=%d", t), func(b *testing.B) {
			eng := core.NewCoarse(t)
			defer eng.Close()
			n := buildLeNet(b, 16, eng, false)
			s, err := solver.New(zoo.LeNetSolver(), n)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.Step(1)
			}
		})
	}
}

// --- Parallel runtime overhead (the model's RegionOverheadUS term) ---

func BenchmarkParallelRegion(b *testing.B) {
	for _, w := range []int{2, 8, 16} {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			p := par.NewPool(w)
			defer p.Close()
			for i := 0; i < b.N; i++ {
				p.For(w, func(lo, hi, rank int) {})
			}
		})
	}
}

// --- Ablation: direct vs lowered (im2col+GEMM) convolution in the coarse
// path — the "research-stage code" vs "optimized library" contrast the
// paper's introduction draws. ---

func BenchmarkConvImplementation(b *testing.B) {
	for _, lowered := range []bool{false, true} {
		name := "direct"
		if lowered {
			name = "lowered"
		}
		b.Run(name, func(b *testing.B) {
			mk := func() (layers.Layer, []*blob.Blob, []*blob.Blob) {
				r := rng.New(10, 10)
				l, err := layers.NewConvolution("conv2", layers.ConvConfig{
					NumOutput: 50, Kernel: 5, Lowered: lowered,
					WeightFiller: layers.XavierFiller{}, RNG: r,
				})
				if err != nil {
					b.Fatal(err)
				}
				bottom := blob.New(64, 20, 12, 12) // LeNet conv2 geometry
				for i := range bottom.Data() {
					bottom.Data()[i] = r.Range(-1, 1)
				}
				tops := []*blob.Blob{blob.New()}
				if err := l.SetUp([]*blob.Blob{bottom}, tops); err != nil {
					b.Fatal(err)
				}
				return l, []*blob.Blob{bottom}, tops
			}
			eng := core.NewCoarse(1)
			defer eng.Close()
			layerBench(b, mk, eng, false)
		})
	}
}
