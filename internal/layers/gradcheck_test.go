package layers_test

import (
	"math"
	"testing"

	"coarsegrain/internal/blob"
	"coarsegrain/internal/gradcheck"
	"coarsegrain/internal/layers"
	"coarsegrain/internal/rng"
)

// checkGrad verifies a layer's BackwardRange against centered finite
// differences of its forward pass with gradcheck.Check, the one
// implementation of the check, and reports every mismatching element.
func checkGrad(t *testing.T, l layers.Layer, bottoms []*blob.Blob, cfg gradcheck.Config) {
	t.Helper()
	mis, err := gradcheck.Check(l, bottoms, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range mis {
		t.Error(m)
	}
}

// randomBlob creates a blob with uniform values in [lo, hi).
func randomBlob(r *rng.RNG, lo, hi float32, shape ...int) *blob.Blob {
	b := blob.New(shape...)
	d := b.Data()
	for i := range d {
		d[i] = r.Range(lo, hi)
	}
	return b
}

// awayFromZero creates a blob with values of magnitude in [0.2, 1) and
// random sign, keeping a ReLU's inputs away from its kink at 0.
func awayFromZero(r *rng.RNG, shape ...int) *blob.Blob {
	b := blob.New(shape...)
	for i := range b.Data() {
		v := r.Range(0.2, 1)
		if r.Bernoulli(0.5) {
			v = -v
		}
		b.Data()[i] = v
	}
	return b
}

func TestGradConvolution(t *testing.T) {
	r := rng.New(1, 10)
	l, err := layers.NewConvolution("c", layers.ConvConfig{NumOutput: 3, Kernel: 3, Stride: 1, Pad: 1,
		WeightFiller: layers.GaussianFiller{Std: 0.3}, RNG: r.Split(0)})
	if err != nil {
		t.Fatal(err)
	}
	checkGrad(t, l, []*blob.Blob{randomBlob(r, -1, 1, 2, 2, 5, 5)}, gradcheck.Config{Eps: 1e-2, CheckParams: true})
}

func TestGradConvolutionStridePad(t *testing.T) {
	r := rng.New(2, 10)
	l, err := layers.NewConvolution("c", layers.ConvConfig{NumOutput: 2, KernelH: 3, KernelW: 2,
		StrideH: 2, StrideW: 1, PadH: 1, PadW: 0,
		WeightFiller: layers.GaussianFiller{Std: 0.3}, RNG: r.Split(0)})
	if err != nil {
		t.Fatal(err)
	}
	checkGrad(t, l, []*blob.Blob{randomBlob(r, -1, 1, 2, 3, 6, 5)}, gradcheck.Config{Eps: 1e-2, CheckParams: true})
}

func TestGradConvolutionNoBias(t *testing.T) {
	r := rng.New(3, 10)
	l, err := layers.NewConvolution("c", layers.ConvConfig{NumOutput: 2, Kernel: 3, NoBias: true,
		WeightFiller: layers.GaussianFiller{Std: 0.3}, RNG: r.Split(0)})
	if err != nil {
		t.Fatal(err)
	}
	checkGrad(t, l, []*blob.Blob{randomBlob(r, -1, 1, 2, 2, 4, 4)}, gradcheck.Config{Eps: 1e-2, CheckParams: true})
}

func TestConvLoweredGradientCheck(t *testing.T) {
	r := rng.New(62, 1)
	l, err := layers.NewConvolution("c", layers.ConvConfig{NumOutput: 2, Kernel: 3, Pad: 1, Lowered: true,
		WeightFiller: layers.GaussianFiller{Std: 0.3}, RNG: r.Split(0)})
	if err != nil {
		t.Fatal(err)
	}
	checkGrad(t, l, []*blob.Blob{randomBlob(r, -1, 1, 2, 2, 5, 5)}, gradcheck.Config{Eps: 1e-2, CheckParams: true})
}

func TestGradPoolingMax(t *testing.T) {
	r := rng.New(4, 10)
	l, err := layers.NewPooling("p", layers.PoolConfig{Method: layers.MaxPool, Kernel: 2, Stride: 2})
	if err != nil {
		t.Fatal(err)
	}
	// Well-separated values avoid argmax flips under perturbation.
	bottom := blob.New(2, 2, 4, 4)
	for i := range bottom.Data() {
		bottom.Data()[i] = float32(i%17) + 0.1*r.Float32()
	}
	checkGrad(t, l, []*blob.Blob{bottom}, gradcheck.Config{})
}

func TestGradPoolingAve(t *testing.T) {
	r := rng.New(5, 10)
	l, err := layers.NewPooling("p", layers.PoolConfig{Method: layers.AvePool, Kernel: 3, Stride: 2})
	if err != nil {
		t.Fatal(err)
	}
	checkGrad(t, l, []*blob.Blob{randomBlob(r, -1, 1, 2, 2, 5, 5)}, gradcheck.Config{Eps: 1e-2})
}

func TestGradInnerProduct(t *testing.T) {
	r := rng.New(6, 10)
	l, err := layers.NewInnerProduct("ip", layers.IPConfig{NumOutput: 4,
		WeightFiller: layers.GaussianFiller{Std: 0.3}, RNG: r.Split(0)})
	if err != nil {
		t.Fatal(err)
	}
	checkGrad(t, l, []*blob.Blob{randomBlob(r, -1, 1, 3, 5)}, gradcheck.Config{Eps: 1e-2, CheckParams: true})
}

func TestGradInnerProduct4D(t *testing.T) {
	r := rng.New(7, 10)
	l, err := layers.NewInnerProduct("ip", layers.IPConfig{NumOutput: 3, NoBias: true,
		WeightFiller: layers.GaussianFiller{Std: 0.3}, RNG: r.Split(0)})
	if err != nil {
		t.Fatal(err)
	}
	checkGrad(t, l, []*blob.Blob{randomBlob(r, -1, 1, 2, 2, 3, 3)}, gradcheck.Config{Eps: 1e-2, CheckParams: true})
}

func TestGradReLU(t *testing.T) {
	r := rng.New(8, 10)
	checkGrad(t, layers.NewReLU("r", 0), []*blob.Blob{awayFromZero(r, 2, 3, 4, 4)}, gradcheck.Config{})
}

func TestGradLeakyReLU(t *testing.T) {
	r := rng.New(9, 10)
	checkGrad(t, layers.NewReLU("r", 0.1), []*blob.Blob{awayFromZero(r, 2, 6)}, gradcheck.Config{})
}

func TestGradSigmoid(t *testing.T) {
	r := rng.New(10, 10)
	checkGrad(t, layers.NewSigmoid("s"), []*blob.Blob{randomBlob(r, -2, 2, 3, 4)}, gradcheck.Config{Eps: 1e-2})
}

func TestGradTanH(t *testing.T) {
	r := rng.New(11, 10)
	checkGrad(t, layers.NewTanH("t"), []*blob.Blob{randomBlob(r, -2, 2, 3, 4)}, gradcheck.Config{Eps: 1e-2})
}

func TestGradLRN(t *testing.T) {
	r := rng.New(12, 10)
	l, err := layers.NewLRN("n", layers.LRNConfig{LocalSize: 3, Alpha: 0.5, Beta: 0.75})
	if err != nil {
		t.Fatal(err)
	}
	checkGrad(t, l, []*blob.Blob{randomBlob(r, -1, 1, 2, 5, 3, 3)}, gradcheck.Config{})
}

func TestGradSoftmax(t *testing.T) {
	r := rng.New(13, 10)
	checkGrad(t, layers.NewSoftmax("sm"), []*blob.Blob{randomBlob(r, -2, 2, 3, 5)}, gradcheck.Config{})
}

func TestGradSoftmaxWithLoss(t *testing.T) {
	r := rng.New(14, 10)
	scores := randomBlob(r, -2, 2, 4, 5)
	labels := blob.New(4)
	for s := 0; s < 4; s++ {
		labels.Data()[s] = float32(r.Intn(5))
	}
	checkGrad(t, layers.NewSoftmaxWithLoss("loss"), []*blob.Blob{scores, labels},
		gradcheck.Config{CheckBottoms: []bool{true, false}})
}

func TestGradEuclideanLoss(t *testing.T) {
	r := rng.New(15, 10)
	a := randomBlob(r, -1, 1, 3, 4)
	b := randomBlob(r, -1, 1, 3, 4)
	checkGrad(t, layers.NewEuclideanLoss("el"), []*blob.Blob{a, b}, gradcheck.Config{})
}

func TestGradDropoutFrozenMask(t *testing.T) {
	// Dropout gradients are exact for a fixed mask: prepare once, then
	// verify that backward applies the same mask as forward.
	r := rng.New(16, 10)
	l, err := layers.NewDropout("d", 0.4, r.Split(0))
	if err != nil {
		t.Fatal(err)
	}
	bottom := randomBlob(r, -1, 1, 3, 6)
	tops := []*blob.Blob{blob.New()}
	if err := l.SetUp([]*blob.Blob{bottom}, tops); err != nil {
		t.Fatal(err)
	}
	l.ForwardPrepare([]*blob.Blob{bottom}, tops)
	l.ForwardRange(0, l.ForwardExtent(), []*blob.Blob{bottom}, tops)
	for i := range tops[0].Diff() {
		tops[0].Diff()[i] = 1
	}
	l.BackwardRange(0, l.BackwardExtent(), []*blob.Blob{bottom}, tops, nil)
	for i := range bottom.Data() {
		want := float32(0)
		if tops[0].Data()[i] != 0 {
			want = tops[0].Data()[i] / bottom.Data()[i] // the mask scale
		}
		got := bottom.Diff()[i]
		if math.Abs(float64(got-want)) > 1e-4 {
			t.Fatalf("dropout grad[%d] = %v, want %v", i, got, want)
		}
	}
}

func TestGradDeconvolution(t *testing.T) {
	r := rng.New(81, 10)
	l, err := layers.NewDeconvolution("dc", layers.ConvConfig{NumOutput: 3, Kernel: 3, Stride: 2, Pad: 1,
		WeightFiller: layers.GaussianFiller{Std: 0.3}, RNG: r.Split(0)})
	if err != nil {
		t.Fatal(err)
	}
	checkGrad(t, l, []*blob.Blob{randomBlob(r, -1, 1, 2, 2, 4, 4)}, gradcheck.Config{Eps: 1e-2, CheckParams: true})
}

func TestGradDeconvolutionNoBias(t *testing.T) {
	r := rng.New(82, 10)
	l, err := layers.NewDeconvolution("dc", layers.ConvConfig{NumOutput: 2, Kernel: 2, NoBias: true,
		WeightFiller: layers.GaussianFiller{Std: 0.3}, RNG: r.Split(0)})
	if err != nil {
		t.Fatal(err)
	}
	checkGrad(t, l, []*blob.Blob{randomBlob(r, -1, 1, 2, 3, 3, 3)}, gradcheck.Config{Eps: 1e-2, CheckParams: true})
}

func TestEltwiseProdGradient(t *testing.T) {
	r := rng.New(21, 1)
	a := randomBlob(r, 0.5, 1.5, 3, 4)
	b := randomBlob(r, 0.5, 1.5, 3, 4)
	checkGrad(t, layers.NewEltwise("e", layers.EltwiseProd, nil), []*blob.Blob{a, b}, gradcheck.Config{})
}

func TestEltwiseSumGradient(t *testing.T) {
	r := rng.New(22, 1)
	a := randomBlob(r, -1, 1, 2, 5)
	b := randomBlob(r, -1, 1, 2, 5)
	c := randomBlob(r, -1, 1, 2, 5)
	checkGrad(t, layers.NewEltwise("e", layers.EltwiseSum, []float32{0.5, 2, -1}), []*blob.Blob{a, b, c}, gradcheck.Config{})
}

func TestConcatGradient(t *testing.T) {
	r := rng.New(24, 1)
	a := randomBlob(r, -1, 1, 2, 2, 3, 3)
	b := randomBlob(r, -1, 1, 2, 4, 3, 3)
	checkGrad(t, layers.NewConcat("c"), []*blob.Blob{a, b}, gradcheck.Config{})
}

func TestBatchNormGradientTrainMode(t *testing.T) {
	r := rng.New(72, 1)
	l, err := layers.NewBatchNorm("bn", layers.BNConfig{Eps: 1e-4})
	if err != nil {
		t.Fatal(err)
	}
	checkGrad(t, l, []*blob.Blob{randomBlob(r, -1, 1, 4, 3, 2, 2)}, gradcheck.Config{Tol: 3e-2, CheckParams: true})
}

func TestBatchNormGradientTestMode(t *testing.T) {
	r := rng.New(73, 1)
	l, err := layers.NewBatchNorm("bn", layers.BNConfig{Eps: 1e-4})
	if err != nil {
		t.Fatal(err)
	}
	l.SetTrain(false)
	checkGrad(t, l, []*blob.Blob{randomBlob(r, -1, 1, 4, 3, 2, 2)}, gradcheck.Config{CheckParams: true})
}
