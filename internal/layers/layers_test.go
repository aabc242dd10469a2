package layers

import (
	"fmt"
	"math"
	"testing"

	"coarsegrain/internal/blas"
	"coarsegrain/internal/blob"
	"coarsegrain/internal/rng"
)

// runForward drives a layer through the sequential path.
func runForward(l Layer, bottoms, tops []*blob.Blob) {
	if p, ok := l.(ForwardPreparer); ok {
		p.ForwardPrepare(bottoms, tops)
	}
	if n := l.ForwardExtent(); n > 0 {
		l.ForwardRange(0, n, bottoms, tops)
	}
	if f, ok := l.(ForwardFinisher); ok {
		f.ForwardFinish(bottoms, tops)
	}
}

func setup(t *testing.T, l Layer, bottoms []*blob.Blob) []*blob.Blob {
	t.Helper()
	tops := make([]*blob.Blob, topArity(l))
	for i := range tops {
		tops[i] = blob.New()
	}
	if err := l.SetUp(bottoms, tops); err != nil {
		t.Fatalf("SetUp: %v", err)
	}
	return tops
}

// topArity returns how many top blobs a layer type produces.
func topArity(l Layer) int {
	switch l.Type() {
	case "Data":
		return 2
	default:
		return 1
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

func almostEq(t *testing.T, got, want, tol float32, msg string) {
	t.Helper()
	if math.Abs(float64(got-want)) > float64(tol) {
		t.Fatalf("%s: got %v, want %v", msg, got, want)
	}
}

// --- Convolution ---

func TestConvForwardKnownValues(t *testing.T) {
	l, err := NewConvolution("c", ConvConfig{NumOutput: 1, Kernel: 2,
		WeightFiller: ConstantFiller{Value: 1}, BiasFiller: ConstantFiller{Value: 10}})
	if err != nil {
		t.Fatal(err)
	}
	bottom := blob.New(1, 1, 3, 3)
	copy(bottom.Data(), []float32{1, 2, 3, 4, 5, 6, 7, 8, 9})
	tops := setup(t, l, []*blob.Blob{bottom})
	runForward(l, []*blob.Blob{bottom}, tops)
	// All-ones 2x2 kernel: window sums + bias 10.
	want := []float32{12 + 10, 16 + 10, 24 + 10, 28 + 10}
	for i, w := range want {
		almostEq(t, tops[0].Data()[i], w, 1e-5, "conv output")
	}
	if s := tops[0].Shape(); s[0] != 1 || s[1] != 1 || s[2] != 2 || s[3] != 2 {
		t.Fatalf("conv top shape %v", s)
	}
}

func TestConvShapesLeNet(t *testing.T) {
	// conv1 of LeNet: 20 maps, 5x5, on 28x28 -> 24x24.
	r := rng.New(1, 1)
	l, err := NewConvolution("conv1", ConvConfig{NumOutput: 20, Kernel: 5, RNG: r})
	if err != nil {
		t.Fatal(err)
	}
	bottom := blob.New(4, 1, 28, 28)
	tops := setup(t, l, []*blob.Blob{bottom})
	if s := tops[0].Shape(); s[1] != 20 || s[2] != 24 || s[3] != 24 {
		t.Fatalf("lenet conv1 shape %v", s)
	}
	if w := l.Params()[0].Shape(); w[0] != 20 || w[1] != 1 || w[2] != 5 || w[3] != 5 {
		t.Fatalf("weight shape %v", w)
	}
	if l.ForwardExtent() != 4*20 {
		t.Fatalf("forward extent %d", l.ForwardExtent())
	}
	if l.BackwardExtent() != 4 {
		t.Fatalf("backward extent %d", l.BackwardExtent())
	}
}

// forUnevenBands cuts [0, n) into at most parts bands of unequal width
// (quadratic cut points, so the first is the thinnest and some may be
// empty) and runs body on each non-empty one in order.
func forUnevenBands(n, parts int, body func(lo, hi int)) {
	lo := 0
	for i := 1; i <= parts; i++ {
		if hi := n * i * i / (parts * parts); hi > lo {
			body(lo, hi)
			lo = hi
		}
	}
}

// forwardChannels and backwardChannels run a ChannelRanger's passes as the
// fine-grain engine schedules them (core.NewFine), serially over uneven bands.
func forwardChannels(l ChannelRanger, bottom, top []*blob.Blob, parts int) {
	out, _ := l.ChannelExtents()
	forUnevenBands(out, parts, func(lo, hi int) { l.ForwardChannels(lo, hi, bottom, top) })
}

func backwardChannels(l ChannelRanger, bottom, top []*blob.Blob, parts int) {
	out, in := l.ChannelExtents()
	forUnevenBands(out, parts, func(lo, hi int) { l.BackwardParamChannels(lo, hi, bottom, top) })
	forUnevenBands(in, parts, func(lo, hi int) { l.BackwardDataChannels(lo, hi, bottom, top) })
}

// forwardBands is runForward with the range body cut into uneven bands, as
// the fine-grain engine schedules a layer without a channel axis.
func forwardBands(l Layer, bottoms, tops []*blob.Blob, parts int) {
	if p, ok := l.(ForwardPreparer); ok {
		p.ForwardPrepare(bottoms, tops)
	}
	forUnevenBands(l.ForwardExtent(), parts, func(lo, hi int) { l.ForwardRange(lo, hi, bottoms, tops) })
	if f, ok := l.(ForwardFinisher); ok {
		f.ForwardFinish(bottoms, tops)
	}
}

// forwardBandsMatchSeq runs l forward sequentially and then over uneven
// bands, and fails unless the two tops agree bit for bit.
func forwardBandsMatchSeq(t *testing.T, l Layer, bottom *blob.Blob, parts int, what string) {
	t.Helper()
	tops := setup(t, l, []*blob.Blob{bottom})
	runForward(l, []*blob.Blob{bottom}, tops)
	ref := append([]float32(nil), tops[0].Data()...)
	tops[0].ZeroData()
	forwardBands(l, []*blob.Blob{bottom}, tops, parts)
	for i := range ref {
		if math.Float32bits(tops[0].Data()[i]) != math.Float32bits(ref[i]) {
			t.Fatalf("%s fine forward differs at %d: %v vs %v", what, i, tops[0].Data()[i], ref[i])
		}
	}
}

// The channel ranges against the direct loop nest's full ranges: on the
// direct kernel bit for bit (each channel band runs the reference's own
// loops in its order), on the lowered one within float tolerance (the
// GEMM reorders the sums).
func TestConvEnginePathsAgree(t *testing.T) {
	r := rng.New(2, 1)
	mk := func(lowered bool) (*Convolution, *blob.Blob, []*blob.Blob) {
		rr := rng.New(7, 7)
		l, err := NewConvolution("c", ConvConfig{NumOutput: 4, Kernel: 3, Pad: 1, Lowered: lowered,
			WeightFiller: GaussianFiller{Std: 0.2}, RNG: rr})
		if err != nil {
			t.Fatal(err)
		}
		bottom := randomBlob(r, -1, 1, 3, 2, 6, 6)
		tops := setup(t, l, []*blob.Blob{bottom})
		return l, bottom, tops
	}
	// Sequential reference on the direct loop nest. The channel variants,
	// on the direct and on the lowered kernel, must share its inputs:
	// rebuild bottom identically by copying.
	lSeq, bSeq, tSeq := mk(false)
	runForward(lSeq, []*blob.Blob{bSeq}, tSeq)

	type variant struct {
		name          string
		l             *Convolution
		b             *blob.Blob
		top           []*blob.Blob
		fwdTol, dwTol float32
	}
	var variants []variant
	for _, lowered := range []bool{false, true} {
		v := variant{name: "direct channels", fwdTol: 0, dwTol: 0}
		if lowered {
			v = variant{name: "lowered channels", fwdTol: 1e-4, dwTol: 1e-3}
		}
		v.l, v.b, v.top = mk(lowered)
		v.b.CopyDataFrom(bSeq)
		v.l.Params()[0].CopyDataFrom(lSeq.Params()[0])
		v.l.Params()[1].CopyDataFrom(lSeq.Params()[1])
		forwardChannels(v.l, []*blob.Blob{v.b}, v.top, 3)
		for i := range tSeq[0].Data() {
			almostEq(t, v.top[0].Data()[i], tSeq[0].Data()[i], v.fwdTol, v.name+" forward")
		}
		variants = append(variants, v)
	}

	// Backward agreement: seed identical top diffs.
	for i := range tSeq[0].Diff() {
		g := r.Range(-1, 1)
		tSeq[0].Diff()[i] = g
		for _, v := range variants {
			v.top[0].Diff()[i] = g
		}
	}
	lSeq.BackwardRange(0, lSeq.BackwardExtent(), []*blob.Blob{bSeq}, tSeq, lSeq.Params())
	for _, v := range variants {
		backwardChannels(v.l, []*blob.Blob{v.b}, v.top, 3)
		for i := range bSeq.Diff() {
			almostEq(t, v.b.Diff()[i], bSeq.Diff()[i], v.fwdTol, v.name+" bottom grad")
		}
		for pi := range lSeq.Params() {
			for i := range lSeq.Params()[pi].Diff() {
				almostEq(t, v.l.Params()[pi].Diff()[i], lSeq.Params()[pi].Diff()[i], v.dwTol, v.name+" param grad")
			}
		}
	}
}

func TestConvBadConfig(t *testing.T) {
	if _, err := NewConvolution("c", ConvConfig{NumOutput: 0, Kernel: 3}); err == nil {
		t.Fatal("zero NumOutput accepted")
	}
	if _, err := NewConvolution("c", ConvConfig{NumOutput: 2}); err == nil {
		t.Fatal("zero kernel accepted")
	}
}

func TestConvWrongBottomRank(t *testing.T) {
	l, _ := NewConvolution("c", ConvConfig{NumOutput: 1, Kernel: 2})
	if err := l.SetUp([]*blob.Blob{blob.New(3, 4)}, []*blob.Blob{blob.New()}); err == nil {
		t.Fatal("2-D bottom accepted")
	}
}

func TestConvPropagateDownSkipsBottomDiff(t *testing.T) {
	r := rng.New(3, 1)
	l, err := NewConvolution("c", ConvConfig{NumOutput: 2, Kernel: 2, RNG: r})
	if err != nil {
		t.Fatal(err)
	}
	bottom := randomBlob(r, -1, 1, 2, 1, 4, 4)
	tops := setup(t, l, []*blob.Blob{bottom})
	l.SetPropagateDown([]bool{false})
	runForward(l, []*blob.Blob{bottom}, tops)
	for i := range tops[0].Diff() {
		tops[0].Diff()[i] = 1
	}
	for i := range bottom.Diff() {
		bottom.Diff()[i] = 42 // sentinel
	}
	l.BackwardRange(0, l.BackwardExtent(), []*blob.Blob{bottom}, tops, l.Params())
	for i := range bottom.Diff() {
		if bottom.Diff()[i] != 42 {
			t.Fatal("bottom diff touched despite SetPropagateDown(false)")
		}
	}
	// Weight gradient must still be computed.
	if l.Params()[0].AsumDiff() == 0 {
		t.Fatal("weight gradient not computed")
	}
}

// --- Pooling ---

func TestMaxPoolForwardAndMask(t *testing.T) {
	l, err := NewPooling("p", PoolConfig{Method: MaxPool, Kernel: 2, Stride: 2})
	if err != nil {
		t.Fatal(err)
	}
	bottom := blob.New(1, 1, 4, 4)
	copy(bottom.Data(), []float32{
		1, 2, 5, 6,
		3, 4, 7, 8,
		9, 10, 13, 14,
		11, 12, 15, 16,
	})
	tops := setup(t, l, []*blob.Blob{bottom})
	runForward(l, []*blob.Blob{bottom}, tops)
	want := []float32{4, 8, 12, 16}
	for i, w := range want {
		almostEq(t, tops[0].Data()[i], w, 0, "max pool")
	}
	// Backward routes gradient to the argmax positions.
	copy(tops[0].Diff(), []float32{1, 2, 3, 4})
	l.BackwardRange(0, l.BackwardExtent(), []*blob.Blob{bottom}, tops, nil)
	if bottom.DiffAt(0, 0, 1, 1) != 1 || bottom.DiffAt(0, 0, 1, 3) != 2 ||
		bottom.DiffAt(0, 0, 3, 1) != 3 || bottom.DiffAt(0, 0, 3, 3) != 4 {
		t.Fatalf("max pool backward wrong: %v", bottom.Diff())
	}
	if bottom.DiffAt(0, 0, 0, 0) != 0 {
		t.Fatal("gradient leaked to non-max position")
	}
}

func TestAvePoolForward(t *testing.T) {
	l, err := NewPooling("p", PoolConfig{Method: AvePool, Kernel: 2, Stride: 2})
	if err != nil {
		t.Fatal(err)
	}
	bottom := blob.New(1, 1, 2, 2)
	copy(bottom.Data(), []float32{1, 2, 3, 4})
	tops := setup(t, l, []*blob.Blob{bottom})
	runForward(l, []*blob.Blob{bottom}, tops)
	almostEq(t, tops[0].Data()[0], 2.5, 1e-6, "ave pool")
}

func TestPoolFineMatchesSeq(t *testing.T) {
	r := rng.New(4, 1)
	for _, m := range []PoolMethod{MaxPool, AvePool} {
		l, err := NewPooling("p", PoolConfig{Method: m, Kernel: 3, Stride: 2})
		if err != nil {
			t.Fatal(err)
		}
		forwardBandsMatchSeq(t, l, randomBlob(r, -1, 1, 2, 3, 8, 8), 3, m.String())
	}
}

func TestPoolShapesCIFAR(t *testing.T) {
	// pool1 of CIFAR: 3x3 stride 2 on 32x32 -> 16x16 (ceil mode).
	l, _ := NewPooling("p", PoolConfig{Method: MaxPool, Kernel: 3, Stride: 2})
	bottom := blob.New(2, 32, 32, 32)
	tops := setup(t, l, []*blob.Blob{bottom})
	if s := tops[0].Shape(); s[2] != 16 || s[3] != 16 {
		t.Fatalf("cifar pool1 shape %v", s)
	}
}

// --- InnerProduct ---

func TestInnerProductKnownValues(t *testing.T) {
	l, err := NewInnerProduct("ip", IPConfig{NumOutput: 2,
		WeightFiller: ConstantFiller{Value: 1}, BiasFiller: ConstantFiller{Value: 5}})
	if err != nil {
		t.Fatal(err)
	}
	bottom := blob.New(2, 3)
	copy(bottom.Data(), []float32{1, 2, 3, 4, 5, 6})
	tops := setup(t, l, []*blob.Blob{bottom})
	runForward(l, []*blob.Blob{bottom}, tops)
	want := []float32{11, 11, 20, 20} // row sums + bias
	for i, w := range want {
		almostEq(t, tops[0].Data()[i], w, 1e-5, "ip output")
	}
}

// The channel ranges the fine-grain engine cuts an InnerProduct into
// against its full sample ranges: forward, dW, db and dx.
func TestInnerProductFineMatchesSeq(t *testing.T) {
	r := rng.New(5, 1)
	l, err := NewInnerProduct("ip", IPConfig{NumOutput: 7,
		WeightFiller: GaussianFiller{Std: 0.3}, RNG: r.Split(0)})
	if err != nil {
		t.Fatal(err)
	}
	bottom := randomBlob(r, -1, 1, 5, 9)
	tops := setup(t, l, []*blob.Blob{bottom})
	runForward(l, []*blob.Blob{bottom}, tops)
	ref := append([]float32(nil), tops[0].Data()...)
	tops[0].ZeroData()
	forwardChannels(l, []*blob.Blob{bottom}, tops, 4)
	for i := range ref {
		almostEq(t, tops[0].Data()[i], ref[i], 1e-5, "ip fine forward")
	}

	// Backward comparison.
	for i := range tops[0].Diff() {
		tops[0].Diff()[i] = r.Range(-1, 1)
	}
	l.Params()[0].ZeroDiff()
	l.Params()[1].ZeroDiff()
	l.BackwardRange(0, l.BackwardExtent(), []*blob.Blob{bottom}, tops, l.Params())
	wRef := append([]float32(nil), l.Params()[0].Diff()...)
	bRef := append([]float32(nil), l.Params()[1].Diff()...)
	xRef := append([]float32(nil), bottom.Diff()...)
	l.Params()[0].ZeroDiff()
	l.Params()[1].ZeroDiff()
	bottom.ZeroDiff()
	backwardChannels(l, []*blob.Blob{bottom}, tops, 4)
	for i := range wRef {
		almostEq(t, l.Params()[0].Diff()[i], wRef[i], 1e-4, "ip fine dW")
	}
	for i := range bRef {
		almostEq(t, l.Params()[1].Diff()[i], bRef[i], 1e-4, "ip fine db")
	}
	for i := range xRef {
		almostEq(t, bottom.Diff()[i], xRef[i], 1e-4, "ip fine dx")
	}
}

func TestInnerProductBadConfig(t *testing.T) {
	if _, err := NewInnerProduct("ip", IPConfig{NumOutput: -1}); err == nil {
		t.Fatal("negative NumOutput accepted")
	}
}

// --- Activations ---

func TestReLUValues(t *testing.T) {
	l := NewReLU("r", 0)
	bottom := blob.New(1, 4)
	copy(bottom.Data(), []float32{-2, -0.5, 0.5, 2})
	tops := setup(t, l, []*blob.Blob{bottom})
	runForward(l, []*blob.Blob{bottom}, tops)
	want := []float32{0, 0, 0.5, 2}
	for i, w := range want {
		almostEq(t, tops[0].Data()[i], w, 0, "relu")
	}
}

func TestSigmoidValues(t *testing.T) {
	l := NewSigmoid("s")
	bottom := blob.New(1, 3)
	copy(bottom.Data(), []float32{0, 100, -100})
	tops := setup(t, l, []*blob.Blob{bottom})
	runForward(l, []*blob.Blob{bottom}, tops)
	almostEq(t, tops[0].Data()[0], 0.5, 1e-6, "sigmoid(0)")
	almostEq(t, tops[0].Data()[1], 1, 1e-6, "sigmoid(100)")
	almostEq(t, tops[0].Data()[2], 0, 1e-6, "sigmoid(-100)")
}

func TestTanHValues(t *testing.T) {
	l := NewTanH("t")
	bottom := blob.New(1, 2)
	copy(bottom.Data(), []float32{0, 1})
	tops := setup(t, l, []*blob.Blob{bottom})
	runForward(l, []*blob.Blob{bottom}, tops)
	almostEq(t, tops[0].Data()[0], 0, 1e-6, "tanh(0)")
	almostEq(t, tops[0].Data()[1], float32(math.Tanh(1)), 1e-6, "tanh(1)")
}

func TestElementwiseFineMatchesSeq(t *testing.T) {
	r := rng.New(6, 1)
	forwardBandsMatchSeq(t, NewReLU("r", 0.1), randomBlob(r, -1, 1, 4, 3, 5, 5), 5, "relu")
}

// --- LRN ---

func TestLRNUniformInput(t *testing.T) {
	// With all inputs = v, interior channels see scale = K + alpha*v²
	// (window fully populated: sum = n*v², times alpha/n).
	l, err := NewLRN("n", LRNConfig{LocalSize: 3, Alpha: 0.3, Beta: 1, K: 1})
	if err != nil {
		t.Fatal(err)
	}
	bottom := blob.New(1, 5, 1, 1)
	v := float32(2)
	for i := range bottom.Data() {
		bottom.Data()[i] = v
	}
	tops := setup(t, l, []*blob.Blob{bottom})
	runForward(l, []*blob.Blob{bottom}, tops)
	wantInterior := v / (1 + 0.3*v*v)
	almostEq(t, tops[0].Data()[2], wantInterior, 1e-5, "lrn interior")
	// Edge channel: window has 2 entries -> scale = 1 + (0.3/3)*2v².
	wantEdge := v / (1 + 0.1*2*v*v)
	almostEq(t, tops[0].Data()[0], wantEdge, 1e-5, "lrn edge")
}

func TestLRNFineMatchesSeq(t *testing.T) {
	r := rng.New(7, 1)
	l, err := NewLRN("n", LRNConfig{LocalSize: 5, Alpha: 0.01, Beta: 0.75})
	if err != nil {
		t.Fatal(err)
	}
	forwardBandsMatchSeq(t, l, randomBlob(r, -1, 1, 2, 8, 4, 4), 3, "lrn")
}

func TestLRNEvenSizeRejected(t *testing.T) {
	if _, err := NewLRN("n", LRNConfig{LocalSize: 4}); err == nil {
		t.Fatal("even LocalSize accepted")
	}
}

// --- Softmax & losses ---

func TestSoftmaxSumsToOne(t *testing.T) {
	r := rng.New(8, 1)
	l := NewSoftmax("sm")
	bottom := randomBlob(r, -3, 3, 4, 7)
	tops := setup(t, l, []*blob.Blob{bottom})
	runForward(l, []*blob.Blob{bottom}, tops)
	for s := 0; s < 4; s++ {
		var sum float32
		for c := 0; c < 7; c++ {
			v := tops[0].At(s, c)
			if v < 0 || v > 1 {
				t.Fatalf("prob out of range: %v", v)
			}
			sum += v
		}
		almostEq(t, sum, 1, 1e-5, "softmax sum")
	}
}

func TestSoftmaxShiftInvariance(t *testing.T) {
	l := NewSoftmax("sm")
	bottom := blob.New(1, 3)
	copy(bottom.Data(), []float32{1, 2, 3})
	tops := setup(t, l, []*blob.Blob{bottom})
	runForward(l, []*blob.Blob{bottom}, tops)
	ref := append([]float32(nil), tops[0].Data()...)
	copy(bottom.Data(), []float32{101, 102, 103})
	runForward(l, []*blob.Blob{bottom}, tops)
	for i := range ref {
		almostEq(t, tops[0].Data()[i], ref[i], 1e-5, "softmax shift invariance")
	}
}

func TestSoftmaxWithLossUniformScores(t *testing.T) {
	l := NewSoftmaxWithLoss("loss")
	scores := blob.New(3, 10) // all zeros -> uniform distribution
	labels := blob.New(3)
	labels.Data()[0], labels.Data()[1], labels.Data()[2] = 0, 5, 9
	tops := setup(t, l, []*blob.Blob{scores, labels})
	runForward(l, []*blob.Blob{scores, labels}, tops)
	almostEq(t, tops[0].Data()[0], float32(math.Log(10)), 1e-5, "uniform loss = ln(10)")
}

func TestSoftmaxWithLossPerfectPrediction(t *testing.T) {
	l := NewSoftmaxWithLoss("loss")
	scores := blob.New(2, 4)
	labels := blob.New(2)
	scores.Set(50, 0, 1)
	labels.Data()[0] = 1
	scores.Set(50, 1, 3)
	labels.Data()[1] = 3
	tops := setup(t, l, []*blob.Blob{scores, labels})
	runForward(l, []*blob.Blob{scores, labels}, tops)
	if tops[0].Data()[0] > 1e-4 {
		t.Fatalf("confident correct prediction should have ~0 loss, got %v", tops[0].Data()[0])
	}
}

func TestSoftmaxWithLossLabelOutOfRangePanics(t *testing.T) {
	l := NewSoftmaxWithLoss("loss")
	scores := blob.New(1, 3)
	labels := blob.New(1)
	labels.Data()[0] = 7
	tops := setup(t, l, []*blob.Blob{scores, labels})
	defer func() {
		if recover() == nil {
			t.Fatal("bad label did not panic")
		}
	}()
	runForward(l, []*blob.Blob{scores, labels}, tops)
}

func TestSoftmaxWithLossBatchMismatch(t *testing.T) {
	l := NewSoftmaxWithLoss("loss")
	if err := l.SetUp([]*blob.Blob{blob.New(3, 4), blob.New(2)}, []*blob.Blob{blob.New()}); err == nil {
		t.Fatal("batch mismatch accepted")
	}
}

func TestEuclideanLossKnownValue(t *testing.T) {
	l := NewEuclideanLoss("el")
	a := blob.New(2, 2)
	b := blob.New(2, 2)
	copy(a.Data(), []float32{1, 2, 3, 4})
	copy(b.Data(), []float32{1, 0, 3, 2}) // diffs 0,2,0,2
	tops := setup(t, l, []*blob.Blob{a, b})
	runForward(l, []*blob.Blob{a, b}, tops)
	almostEq(t, tops[0].Data()[0], 2, 1e-5, "euclidean loss (0.5*(4+4)/2)")
}

// --- Accuracy ---

func TestAccuracyTop1(t *testing.T) {
	l := NewAccuracy("acc", 1)
	scores := blob.New(4, 3)
	labels := blob.New(4)
	put := func(s int, vals [3]float32, lab int) {
		for c, v := range vals {
			scores.Set(v, s, c)
		}
		labels.Data()[s] = float32(lab)
	}
	put(0, [3]float32{1, 5, 2}, 1) // correct
	put(1, [3]float32{9, 5, 2}, 1) // wrong
	put(2, [3]float32{1, 2, 3}, 2) // correct
	put(3, [3]float32{1, 2, 3}, 0) // wrong
	tops := setup(t, l, []*blob.Blob{scores, labels})
	runForward(l, []*blob.Blob{scores, labels}, tops)
	almostEq(t, tops[0].Data()[0], 0.5, 1e-6, "top-1 accuracy")
}

func TestAccuracyTopK(t *testing.T) {
	l := NewAccuracy("acc", 2)
	scores := blob.New(2, 4)
	labels := blob.New(2)
	copy(scores.Data(), []float32{
		9, 5, 2, 1, // label 1 is 2nd -> in top-2
		9, 5, 2, 1, // label 3 is 4th -> not in top-2
	})
	labels.Data()[0] = 1
	labels.Data()[1] = 3
	tops := setup(t, l, []*blob.Blob{scores, labels})
	runForward(l, []*blob.Blob{scores, labels}, tops)
	almostEq(t, tops[0].Data()[0], 0.5, 1e-6, "top-2 accuracy")
	if l.BackwardExtent() != 0 {
		t.Fatal("accuracy should have no backward")
	}
}

// --- Dropout ---

func TestDropoutTestModeIsIdentity(t *testing.T) {
	r := rng.New(9, 1)
	l, err := NewDropout("d", 0.5, r.Split(0))
	if err != nil {
		t.Fatal(err)
	}
	l.SetTrain(false)
	bottom := randomBlob(r, -1, 1, 3, 4)
	tops := setup(t, l, []*blob.Blob{bottom})
	runForward(l, []*blob.Blob{bottom}, tops)
	for i := range bottom.Data() {
		if tops[0].Data()[i] != bottom.Data()[i] {
			t.Fatal("test-mode dropout is not identity")
		}
	}
}

func TestDropoutTrainStatistics(t *testing.T) {
	r := rng.New(10, 1)
	ratio := float32(0.3)
	l, err := NewDropout("d", ratio, r.Split(0))
	if err != nil {
		t.Fatal(err)
	}
	bottom := blob.New(100, 100)
	for i := range bottom.Data() {
		bottom.Data()[i] = 1
	}
	tops := setup(t, l, []*blob.Blob{bottom})
	runForward(l, []*blob.Blob{bottom}, tops)
	zeros := 0
	var mean float64
	for _, v := range tops[0].Data() {
		if v == 0 {
			zeros++
		}
		mean += float64(v)
	}
	n := float64(bottom.Count())
	if frac := float64(zeros) / n; math.Abs(frac-float64(ratio)) > 0.02 {
		t.Fatalf("drop fraction %v, want ~%v", frac, ratio)
	}
	// Inverted dropout preserves the expectation.
	if mean/n < 0.95 || mean/n > 1.05 {
		t.Fatalf("mean after dropout %v, want ~1", mean/n)
	}
}

func TestDropoutBadRatio(t *testing.T) {
	if _, err := NewDropout("d", 1.0, nil); err == nil {
		t.Fatal("ratio 1.0 accepted")
	}
	if _, err := NewDropout("d", -0.1, nil); err == nil {
		t.Fatal("negative ratio accepted")
	}
}

// --- Data ---

type countingSource struct{ n int }

func (s countingSource) Len() int           { return s.n }
func (s countingSource) SampleShape() []int { return []int{1, 2, 2} }
func (s countingSource) Classes() int       { return s.n }
func (s countingSource) Read(i int, out []float32) int {
	for j := range out {
		out[j] = float32(i)
	}
	return i
}

func TestDataLayerBatches(t *testing.T) {
	l, err := NewData("data", countingSource{n: 10}, 4)
	if err != nil {
		t.Fatal(err)
	}
	tops := setup(t, l, nil)
	if s := tops[0].Shape(); s[0] != 4 || s[1] != 1 || s[2] != 2 || s[3] != 2 {
		t.Fatalf("data top shape %v", s)
	}
	runForward(l, nil, tops)
	for s := 0; s < 4; s++ {
		if tops[1].Data()[s] != float32(s) {
			t.Fatalf("labels %v", tops[1].Data())
		}
		if tops[0].At(s, 0, 0, 0) != float32(s) {
			t.Fatal("pixels wrong")
		}
	}
	// Second batch continues; third wraps (10 samples, batch 4).
	runForward(l, nil, tops)
	if tops[1].Data()[0] != 4 {
		t.Fatalf("second batch starts at %v", tops[1].Data()[0])
	}
	runForward(l, nil, tops)
	if tops[1].Data()[0] != 8 || tops[1].Data()[2] != 0 {
		t.Fatalf("wrap batch labels %v", tops[1].Data())
	}
	if l.Epoch() != 1 {
		t.Fatalf("epoch = %d, want 1", l.Epoch())
	}
	l.Rewind()
	runForward(l, nil, tops)
	if tops[1].Data()[0] != 0 {
		t.Fatal("rewind did not reset cursor")
	}
}

func TestDataSkipMatchesReadingThrough(t *testing.T) {
	// Skip(n) must land cursor and epoch exactly where loading n
	// batches would, wraparound included — the data half of what makes
	// a resumed (or elastically re-formed) run bit-identical.
	read, err := NewData("read", countingSource{n: 10}, 4)
	if err != nil {
		t.Fatal(err)
	}
	readTops := setup(t, read, nil)
	for i := 0; i < 7; i++ { // 28 samples over a 10-sample source
		runForward(read, nil, readTops)
	}

	skip, err := NewData("skip", countingSource{n: 10}, 4)
	if err != nil {
		t.Fatal(err)
	}
	skipTops := setup(t, skip, nil)
	skip.Skip(7)
	if skip.Epoch() != read.Epoch() {
		t.Fatalf("epoch after Skip(7) = %d, want %d", skip.Epoch(), read.Epoch())
	}
	runForward(read, nil, readTops)
	runForward(skip, nil, skipTops)
	for s := 0; s < 4; s++ {
		if skipTops[1].Data()[s] != readTops[1].Data()[s] {
			t.Fatalf("batch after Skip diverged: %v vs %v", skipTops[1].Data(), readTops[1].Data())
		}
	}

	// Zero and negative skips are no-ops.
	before := skipTops[1].Data()[0]
	skip.Skip(0)
	skip.Skip(-3)
	runForward(read, nil, readTops)
	runForward(skip, nil, skipTops)
	if skipTops[1].Data()[0] != readTops[1].Data()[0] {
		t.Fatalf("no-op skip moved the cursor (was %v)", before)
	}
}

func TestDataLayerErrors(t *testing.T) {
	if _, err := NewData("d", nil, 4); err == nil {
		t.Fatal("nil source accepted")
	}
	if _, err := NewData("d", countingSource{n: 10}, 0); err == nil {
		t.Fatal("zero batch accepted")
	}
	if _, err := NewData("d", countingSource{n: 0}, 1); err == nil {
		t.Fatal("empty source accepted")
	}
}

// --- Fillers ---

func TestFillers(t *testing.T) {
	r := rng.New(11, 1)
	b := blob.New(100, 50)

	ConstantFiller{Value: 3}.Fill(b, r)
	if b.Data()[17] != 3 {
		t.Fatal("constant filler")
	}

	XavierFiller{}.Fill(b, r)
	s := float32(math.Sqrt(3.0 / 50.0))
	for _, v := range b.Data() {
		if v < -s || v >= s {
			t.Fatalf("xavier value %v outside [-%v, %v)", v, s, s)
		}
	}

	GaussianFiller{Mean: 1, Std: 0.1}.Fill(b, r)
	var mean float64
	for _, v := range b.Data() {
		mean += float64(v)
	}
	mean /= float64(b.Count())
	if math.Abs(mean-1) > 0.01 {
		t.Fatalf("gaussian filler mean %v", mean)
	}

	UniformFiller{Min: 2, Max: 3}.Fill(b, r)
	for _, v := range b.Data() {
		if v < 2 || v >= 3 {
			t.Fatalf("uniform filler value %v", v)
		}
	}

	MSRAFiller{}.Fill(b, r)
	var sq float64
	for _, v := range b.Data() {
		sq += float64(v) * float64(v)
	}
	variance := sq / float64(b.Count())
	if math.Abs(variance-2.0/50.0) > 0.01 {
		t.Fatalf("msra variance %v, want %v", variance, 2.0/50.0)
	}
}

// TestGaussianFillersDrawGaussian: the Gaussian and MSRA fillers, which
// draw their normals in one batch, write what r.Gaussian per element
// writes, bit for bit, and leave r where it would.
func TestGaussianFillersDrawGaussian(t *testing.T) {
	for _, c := range []struct {
		f         Filler
		mean, std float32
	}{
		{GaussianFiller{Mean: 1, Std: 0.1}, 1, 0.1},
		{GaussianFiller{Std: 0.3}, 0, 0.3},
		{MSRAFiller{}, 0, float32(math.Sqrt(2.0 / 75))},
	} {
		b := blob.New(10, 3, 5, 5)
		r, want := rng.New(5, 9), rng.New(5, 9)
		c.f.Fill(b, r)
		for i, v := range b.Data() {
			if w := want.Gaussian(c.mean, c.std); math.Float32bits(v) != math.Float32bits(w) {
				t.Fatalf("%s: element %d is %v, r.Gaussian draws %v", c.f, i, v, w)
			}
		}
		if *r != *want {
			t.Fatalf("%s: the filler leaves its stream elsewhere than r.Gaussian", c.f)
		}
	}
}

func TestFillerByName(t *testing.T) {
	for _, name := range []string{"constant", "gaussian", "uniform", "xavier", "msra", ""} {
		if _, err := FillerByName(name, 0.5); err != nil {
			t.Fatalf("FillerByName(%q): %v", name, err)
		}
	}
	if _, err := FillerByName("bogus", 0); err == nil {
		t.Fatal("unknown filler accepted")
	}
}

// --- Coalesced-range consistency: computing a layer forward in arbitrary
// chunk splits must equal the single-range result (the property the coarse
// engine relies on). ---

func TestChunkedForwardEqualsWhole(t *testing.T) {
	r := rng.New(12, 1)
	mk := func() []Layer {
		conv, _ := NewConvolution("c", ConvConfig{NumOutput: 3, Kernel: 3, RNG: rng.New(1, 1)})
		pool, _ := NewPooling("p", PoolConfig{Method: MaxPool, Kernel: 2, Stride: 2})
		ip, _ := NewInnerProduct("ip", IPConfig{NumOutput: 4, RNG: rng.New(2, 2)})
		lrn, _ := NewLRN("n", LRNConfig{LocalSize: 3, Alpha: 0.1, Beta: 0.75})
		return []Layer{conv, pool, NewReLU("r", 0), ip, lrn, NewSoftmax("sm")}
	}
	for _, l := range mk() {
		var bottom *blob.Blob
		switch l.Type() {
		case "InnerProduct", "Softmax":
			bottom = randomBlob(r, -1, 1, 6, 10)
		default:
			bottom = randomBlob(r, -1, 1, 6, 4, 8, 8)
		}
		tops := setup(t, l, []*blob.Blob{bottom})
		runForward(l, []*blob.Blob{bottom}, tops)
		ref := append([]float32(nil), tops[0].Data()...)
		tops[0].ZeroData()
		// Recompute in ragged chunks.
		n := l.ForwardExtent()
		for lo := 0; lo < n; {
			hi := lo + 1 + (lo % 3)
			if hi > n {
				hi = n
			}
			l.ForwardRange(lo, hi, []*blob.Blob{bottom}, tops)
			lo = hi
		}
		for i := range ref {
			if tops[0].Data()[i] != ref[i] {
				t.Fatalf("%s: chunked forward differs at %d", l.Type(), i)
			}
		}
	}
}

// The lowered (im2col+GEMM) convolution must agree with the direct loop
// nest in both passes, under arbitrary chunked range splits.
func TestConvLoweredMatchesDirect(t *testing.T) {
	r := rng.New(61, 1)
	mk := func(lowered bool) (*Convolution, *blob.Blob, []*blob.Blob) {
		l, err := NewConvolution("c", ConvConfig{
			NumOutput: 4, Kernel: 3, Pad: 1, Stride: 2, Lowered: lowered,
			WeightFiller: GaussianFiller{Std: 0.3}, RNG: rng.New(8, 8),
		})
		if err != nil {
			t.Fatal(err)
		}
		bottom := blob.New(5, 3, 7, 6)
		tops := setup(t, l, []*blob.Blob{bottom})
		return l, bottom, tops
	}
	ld, bd, td := mk(false)
	ll, bl, tl := mk(true)
	for i := range bd.Data() {
		v := r.Range(-1, 1)
		bd.Data()[i] = v
		bl.Data()[i] = v
	}
	runForward(ld, []*blob.Blob{bd}, td)
	// Lowered forward in ragged chunks (extent = samples).
	n := ll.ForwardExtent()
	if n != 5 {
		t.Fatalf("lowered forward extent %d, want 5", n)
	}
	for lo := 0; lo < n; lo += 2 {
		ll.ForwardRange(lo, min(lo+2, n), []*blob.Blob{bl}, tl)
	}
	for i := range td[0].Data() {
		almostEq(t, tl[0].Data()[i], td[0].Data()[i], 1e-4, "lowered forward")
	}

	for i := range td[0].Diff() {
		g := r.Range(-1, 1)
		td[0].Diff()[i] = g
		tl[0].Diff()[i] = g
	}
	ld.BackwardRange(0, ld.BackwardExtent(), []*blob.Blob{bd}, td, ld.Params())
	for lo := 0; lo < ll.BackwardExtent(); lo += 3 {
		ll.BackwardRange(lo, min(lo+3, ll.BackwardExtent()), []*blob.Blob{bl}, tl, ll.Params())
	}
	for i := range bd.Diff() {
		almostEq(t, bl.Diff()[i], bd.Diff()[i], 1e-4, "lowered bottom grad")
	}
	for pi := range ld.Params() {
		for i := range ld.Params()[pi].Diff() {
			almostEq(t, ll.Params()[pi].Diff()[i], ld.Params()[pi].Diff()[i], 1e-3, "lowered param grad")
		}
	}
}

// im2colForward is the convolution lowered the old way, kept as the
// oracle of the implicit GEMM: per sample, Im2col into a column matrix,
// one GEMM W·col, then a separate bias pass.
func im2colForward(l *Convolution, bottom, top *blob.Blob) {
	o, ckk, ohw := l.cfg.NumOutput, l.plan.Rows(), l.plan.Cols()
	chw := l.channels * l.height * l.width
	col := make([]float32, ckk*ohw)
	for s := 0; s < l.num; s++ {
		blas.Im2col(bottom.Data()[s*chw:], l.channels, l.height, l.width, l.cfg.KernelH, l.cfg.KernelW,
			l.cfg.PadH, l.cfg.PadW, l.cfg.StrideH, l.cfg.StrideW, col)
		out := top.Data()[s*o*ohw : (s+1)*o*ohw]
		blas.Gemm(blas.NoTrans, blas.NoTrans, o, ohw, ckk, 1, l.params[0].Data(), ckk, col, ohw, 0, out, ohw)
		if !l.cfg.NoBias {
			for oc, b := range l.params[1].Data() {
				blas.AddScalar(out[oc*ohw:(oc+1)*ohw], b)
			}
		}
	}
}

// im2colBackward is im2colForward's backward: per sample, dW += dTop·colᵀ
// and dcol = Wᵀ·dTop as GEMMs, the bias gradient as row sums, and dX =
// Col2im of the whole dcol.
func im2colBackward(l *Convolution, bottom, top *blob.Blob) {
	o, ckk, ohw := l.cfg.NumOutput, l.plan.Rows(), l.plan.Cols()
	chw := l.channels * l.height * l.width
	w := l.params[0].Data()
	col, dcol := make([]float32, ckk*ohw), make([]float32, ckk*ohw)
	for s := 0; s < l.num; s++ {
		outDiff := top.Diff()[s*o*ohw : (s+1)*o*ohw]
		blas.Im2col(bottom.Data()[s*chw:], l.channels, l.height, l.width, l.cfg.KernelH, l.cfg.KernelW,
			l.cfg.PadH, l.cfg.PadW, l.cfg.StrideH, l.cfg.StrideW, col)
		blas.Gemm(blas.NoTrans, blas.Trans, o, ckk, ohw, 1, outDiff, ohw, col, ohw, 1, l.params[0].Diff(), ckk)
		if !l.cfg.NoBias {
			for oc := range o {
				var sum float32
				for _, v := range outDiff[oc*ohw : (oc+1)*ohw] {
					sum += v
				}
				l.params[1].Diff()[oc] += sum
			}
		}
		if !l.propagates(0) {
			continue
		}
		blas.Gemm(blas.Trans, blas.NoTrans, ckk, ohw, o, 1, w, ckk, outDiff, ohw, 0, dcol, ohw)
		inDiff := bottom.Diff()[s*chw : (s+1)*chw]
		clear(inDiff)
		blas.Col2im(dcol, l.channels, l.height, l.width, l.cfg.KernelH, l.cfg.KernelW,
			l.cfg.PadH, l.cfg.PadW, l.cfg.StrideH, l.cfg.StrideW, inDiff)
	}
}

// TestAddRowSumsMatchesOneRowLoop: the bias gradient's four-row sum is,
// bit for bit, the one-row loop it replaced — every row summed left to
// right into its own accumulator — on output-channel counts below, at and
// past a group of four, with signed zeros, infinities and NaNs among the
// entries (a row holding +Inf and -Inf sums to NaN either way).
func TestAddRowSumsMatchesOneRowLoop(t *testing.T) {
	oneRow := func(dst, m []float32, cols int) {
		for i := range dst {
			var sum float32
			for _, v := range m[i*cols : (i+1)*cols] {
				sum += v
			}
			dst[i] += sum
		}
	}
	special := []float32{0, float32(math.Copysign(0, -1)), float32(math.Inf(1)), float32(math.Inf(-1)), float32(math.NaN())}
	r := rng.New(64, 1)
	for _, o := range []int{1, 3, 4, 5, 20, 50} {
		for _, cols := range []int{1, 7, 64, 576} {
			m := make([]float32, o*cols)
			for i := range m {
				m[i] = r.Range(-1, 1)
				if r.Intn(97) == 0 {
					m[i] = special[r.Intn(len(special))]
				}
			}
			dst := make([]float32, o)
			for i := range dst {
				dst[i] = r.Range(-1, 1)
			}
			dst[0] = float32(math.Copysign(0, -1))
			got, want := append([]float32(nil), dst...), append([]float32(nil), dst...)
			addRowSums(got, m, cols)
			oneRow(want, m, cols)
			for i := range want {
				if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
					t.Fatalf("o=%d cols=%d: row %d sums to %#08x, one-row loop %#08x", o, cols, i, math.Float32bits(got[i]), math.Float32bits(want[i]))
				}
			}
		}
	}
}

// The lowered layer against the Im2col + GEMM + Col2im oracle, both ways
// it runs: the coarse engine's ragged sample bands (ForwardRange and
// BackwardRange) and the fine engine's output- and input-channel bands
// (the ChannelRanger bodies, on uneven cuts so bands start off a
// micro-tile boundary). Forward, dX, dW and db must agree bit for bit,
// with and without bias and propagation, on geometries with padding,
// stride, non-square kernels and an outW no micro-tile divides.
func TestConvLoweredBitIdenticalToIm2colOracle(t *testing.T) {
	r := rng.New(63, 1)
	const dWOnly = 3 // the config whose bottom gradient does not propagate
	for ci, cfg := range []ConvConfig{
		{NumOutput: 6, Kernel: 5},                                   // LeNet-like, no padding
		{NumOutput: 5, Kernel: 3, Pad: 1, NoBias: true},             // padded, no bias
		{NumOutput: 4, KernelH: 3, KernelW: 2, PadH: 2, StrideH: 2}, // non-square, pad beyond need
		{NumOutput: 7, Kernel: 3, Pad: 2, Stride: 2},                // strided, dW only
		{NumOutput: 3, Kernel: 1},                                   // 1x1
	} {
		mk := func() (*Convolution, *blob.Blob, []*blob.Blob) {
			c := cfg
			c.Lowered, c.WeightFiller, c.RNG = true, GaussianFiller{Std: 0.3}, rng.New(9, uint64(ci))
			c.BiasFiller = GaussianFiller{Std: 0.3}
			l, err := NewConvolution("c", c)
			if err != nil {
				t.Fatal(err)
			}
			l.SetPropagateDown([]bool{ci != dWOnly})
			bottom := blob.New(5, 12, 9, 11) // ckk = 300 at kernel 5: two KC blocks
			return l, bottom, setup(t, l, []*blob.Blob{bottom})
		}
		lw, bw, tw := mk()
		for i := range bw.Data() {
			bw.Data()[i] = r.Range(-1, 1)
		}
		for i := range tw[0].Diff() {
			tw[0].Diff()[i] = r.Range(-1, 1)
		}
		im2colForward(lw, bw, tw[0])
		im2colBackward(lw, bw, tw[0])

		check := func(name string, l *Convolution, b *blob.Blob, top []*blob.Blob) {
			t.Helper()
			name = fmt.Sprintf("config %d %s", ci, name)
			bitIdentical(t, name+" forward", top[0].Data(), tw[0].Data())
			if ci != dWOnly {
				bitIdentical(t, name+" bottom grad", b.Diff(), bw.Diff())
			}
			for pi := range lw.Params() {
				bitIdentical(t, fmt.Sprintf("%s param %d grad", name, pi), l.Params()[pi].Diff(), lw.Params()[pi].Diff())
			}
		}
		prime := func() (*Convolution, *blob.Blob, []*blob.Blob) {
			l, b, top := mk()
			b.CopyDataFrom(bw)
			copy(top[0].Diff(), tw[0].Diff())
			return l, b, top
		}

		lc, bc, tc := prime()
		for lo := 0; lo < 5; lo += 2 {
			lc.ForwardRange(lo, min(lo+2, 5), []*blob.Blob{bc}, tc)
		}
		for lo := 0; lo < 5; lo += 3 {
			lc.BackwardRange(lo, min(lo+3, 5), []*blob.Blob{bc}, tc, lc.Params())
		}
		check("coarse ranges", lc, bc, tc)

		for _, parts := range []int{2, 3, 5} {
			lf, bf, tf := prime()
			forwardChannels(lf, []*blob.Blob{bf}, tf, parts)
			backwardChannels(lf, []*blob.Blob{bf}, tf, parts)
			check(fmt.Sprintf("channels/%d", parts), lf, bf, tf)
		}
	}
}

func bitIdentical(t *testing.T, what string, got, want []float32) {
	t.Helper()
	for i, v := range want {
		if got[i] != v {
			t.Fatalf("%s differs from the Im2col oracle at %d: %v vs %v", what, i, got[i], v)
		}
	}
}

func TestDeconvolutionShapesAndUpsampling(t *testing.T) {
	// kernel 2, stride 2, no pad: exact 2x upsampling.
	l, err := NewDeconvolution("dc", ConvConfig{NumOutput: 1, Kernel: 2, Stride: 2,
		WeightFiller: ConstantFiller{Value: 1}, NoBias: true})
	if err != nil {
		t.Fatal(err)
	}
	bottom := blob.New(1, 1, 2, 2)
	copy(bottom.Data(), []float32{1, 2, 3, 4})
	tops := setup(t, l, []*blob.Blob{bottom})
	if s := tops[0].Shape(); s[2] != 4 || s[3] != 4 {
		t.Fatalf("deconv shape %v, want 4x4", s)
	}
	runForward(l, []*blob.Blob{bottom}, tops)
	// Each input pixel becomes a 2x2 block of its value.
	want := []float32{
		1, 1, 2, 2,
		1, 1, 2, 2,
		3, 3, 4, 4,
		3, 3, 4, 4,
	}
	for i, v := range want {
		almostEq(t, tops[0].Data()[i], v, 1e-6, "deconv upsample")
	}
	// Weight shape: (C_in, C_out, KH, KW).
	if s := l.Params()[0].Shape(); s[0] != 1 || s[1] != 1 || s[2] != 2 || s[3] != 2 {
		t.Fatalf("deconv weight shape %v", s)
	}
}

func TestDeconvolutionInvertsConvShapes(t *testing.T) {
	// conv k5/s1 shrinks 28->24; deconv k5/s1 restores 24->28.
	conv, _ := NewConvolution("c", ConvConfig{NumOutput: 4, Kernel: 5, RNG: rng.New(1, 1)})
	dec, _ := NewDeconvolution("d", ConvConfig{NumOutput: 1, Kernel: 5, RNG: rng.New(1, 2)})
	bottom := blob.New(2, 1, 28, 28)
	mid := []*blob.Blob{blob.New()}
	if err := conv.SetUp([]*blob.Blob{bottom}, mid); err != nil {
		t.Fatal(err)
	}
	out := []*blob.Blob{blob.New()}
	if err := dec.SetUp(mid, out); err != nil {
		t.Fatal(err)
	}
	if s := out[0].Shape(); s[2] != 28 || s[3] != 28 {
		t.Fatalf("deconv did not restore 28x28: %v", s)
	}
}

func TestDeconvolutionChunkedForward(t *testing.T) {
	r := rng.New(83, 1)
	l, err := NewDeconvolution("dc", ConvConfig{NumOutput: 2, Kernel: 3, Stride: 2,
		WeightFiller: GaussianFiller{Std: 0.3}, RNG: rng.New(5, 5)})
	if err != nil {
		t.Fatal(err)
	}
	bottom := randomBlob(r, -1, 1, 5, 2, 4, 4)
	tops := setup(t, l, []*blob.Blob{bottom})
	runForward(l, []*blob.Blob{bottom}, tops)
	ref := append([]float32(nil), tops[0].Data()...)
	tops[0].ZeroData()
	n := l.ForwardExtent()
	for lo := 0; lo < n; lo += 2 {
		l.ForwardRange(lo, min(lo+2, n), []*blob.Blob{bottom}, tops)
	}
	for i := range ref {
		if tops[0].Data()[i] != ref[i] {
			t.Fatal("chunked deconv forward differs")
		}
	}
}
