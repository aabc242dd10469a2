package prototxt

import (
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"coarsegrain/internal/data"
	"coarsegrain/internal/net"
	"coarsegrain/internal/solver"
)

func TestParseScalarsAndBlocks(t *testing.T) {
	doc, err := Parse(`
name: "LeNet"   # a comment
count: 42
rate: 0.5
flag: true
block {
  inner: "x"
  inner2 { deep: 3 }
}
`)
	if err != nil {
		t.Fatal(err)
	}
	if doc.String("name", "") != "LeNet" {
		t.Fatalf("name = %q", doc.String("name", ""))
	}
	if v, _ := doc.Int("count", 0); v != 42 {
		t.Fatalf("count = %d", v)
	}
	if v, _ := doc.Float("rate", 0); v != 0.5 {
		t.Fatalf("rate = %v", v)
	}
	fv, _ := doc.Get("flag")
	if b, err := fv.Bool(); err != nil || !b {
		t.Fatal("flag not parsed")
	}
	blk := doc.Msg("block")
	if blk == nil || blk.String("inner", "") != "x" {
		t.Fatal("block not parsed")
	}
	if d, _ := blk.Msg("inner2").Int("deep", 0); d != 3 {
		t.Fatal("nested block not parsed")
	}
}

func TestParseRepeatedFields(t *testing.T) {
	doc, err := Parse(`
bottom: "a"
bottom: "b"
layer { name: "l1" }
layer { name: "l2" }
`)
	if err != nil {
		t.Fatal(err)
	}
	bs := doc.All("bottom")
	if len(bs) != 2 || bs[0].Scalar != "a" || bs[1].Scalar != "b" {
		t.Fatalf("bottoms %v", bs)
	}
	if ls := doc.All("layer"); len(ls) != 2 {
		t.Fatalf("layers %d", len(ls))
	}
}

func TestParseColonBeforeBlock(t *testing.T) {
	doc, err := Parse(`param: { value: 1 }`)
	if err != nil {
		t.Fatal(err)
	}
	if doc.Msg("param") == nil {
		t.Fatal("colon-block not parsed")
	}
}

func TestParseNegativeAndExponent(t *testing.T) {
	doc, err := Parse(`a: -0.5 b: 5e-05`)
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := doc.Float("a", 0); v != -0.5 {
		t.Fatalf("a = %v", v)
	}
	if v, _ := doc.Float("b", 0); v != 5e-05 {
		t.Fatalf("b = %v", v)
	}
}

// parseErrorInputs are malformed documents Parse must refuse; FuzzParse
// seeds its corpus with them.
var parseErrorInputs = []string{
	`name "x"`,       // missing colon
	`block { name: `, // truncated
	`name: "unterm`,  // unterminated string
	`}`,              // stray brace... actually parsed as terminator
	`: "x"`,          // missing field name
	`a: !`,           // bad character
}

func TestParseErrors(t *testing.T) {
	for _, src := range parseErrorInputs {
		if _, err := Parse(src); err == nil && src != `}` {
			t.Errorf("Parse(%q) accepted", src)
		}
	}
}

func TestValueErrors(t *testing.T) {
	v := Value{Scalar: "abc"}
	if _, err := v.Float(); err == nil {
		t.Fatal("non-number accepted")
	}
	if _, err := v.Bool(); err == nil {
		t.Fatal("non-bool accepted")
	}
}

func TestRenderRoundTrip(t *testing.T) {
	src := `name: "N"
layer {
  name: "l1"
  type: "ReLU"
}
`
	doc, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	rendered := doc.Render("")
	doc2, err := Parse(rendered)
	if err != nil {
		t.Fatalf("re-parse of rendered output: %v\n%s", err, rendered)
	}
	if doc2.String("name", "") != "N" || doc2.Msg("layer").String("type", "") != "ReLU" {
		t.Fatalf("round trip lost data:\n%s", rendered)
	}
}

func TestBuildNetFromLeNetConfig(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "..", "configs", "lenet.prototxt"))
	if err != nil {
		t.Fatal(err)
	}
	src := data.NewSyntheticMNIST(128, 1)
	specs, err := ParseNet(string(raw), BuildOptions{Source: src, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(specs) != 10 { // Figure 3's 9 and the Accuracy layer
		t.Fatalf("LeNet prototxt produced %d layers", len(specs))
	}
	n, err := net.New(specs, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := n.Blob("conv1").Shape(); got[1] != 20 || got[2] != 24 {
		t.Fatalf("conv1 shape %v", got)
	}
	if loss := n.ForwardBackward(); loss <= 0 {
		t.Fatalf("loss %v", loss)
	}
}

func TestBuildNetFromCIFARConfig(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "..", "configs", "cifar10_full.prototxt"))
	if err != nil {
		t.Fatal(err)
	}
	src := data.NewSyntheticCIFAR(32, 1)
	specs, err := ParseNet(string(raw), BuildOptions{Source: src, Seed: 1, BatchOverride: 8})
	if err != nil {
		t.Fatal(err)
	}
	if len(specs) != 15 { // Figure 3's 14 and the Accuracy layer
		t.Fatalf("CIFAR prototxt produced %d layers", len(specs))
	}
	n, err := net.New(specs, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := n.Blob("data").Shape(); got[0] != 8 {
		t.Fatalf("batch override ignored: %v", got)
	}
	if got := n.Blob("norm1").Shape(); got[1] != 32 || got[2] != 16 {
		t.Fatalf("norm1 shape %v", got)
	}
	if loss := n.Forward(); loss <= 0 {
		t.Fatalf("loss %v", loss)
	}
}

func TestBuildSolverFromConfigs(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "..", "configs", "lenet_solver.prototxt"))
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := ParseSolver(string(raw))
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Type != solver.SGD || cfg.BaseLR != 0.01 || cfg.Momentum != 0.9 ||
		cfg.LRPolicy != "inv" || cfg.Power != 0.75 {
		t.Fatalf("lenet solver parsed wrong: %+v", cfg)
	}
	raw2, err := os.ReadFile(filepath.Join("..", "..", "configs", "cifar10_full_solver.prototxt"))
	if err != nil {
		t.Fatal(err)
	}
	cfg2, err := ParseSolver(string(raw2))
	if err != nil {
		t.Fatal(err)
	}
	if cfg2.BaseLR != 0.001 || cfg2.LRPolicy != "fixed" || cfg2.WeightDecay != 0.004 {
		t.Fatalf("cifar solver parsed wrong: %+v", cfg2)
	}
}

// An Adam solver file's momentum, momentum2 and delta are Caffe's β1, β2
// and ε: two updates from set gradients land on the hand-computed weights.
// The first step pins β2 and ε (β1 cancels in it), the second pins β1.
func TestAdamSolverFileTakesHandComputedSteps(t *testing.T) {
	cfg, err := ParseSolver(`type: "Adam" base_lr: 0.1 momentum: 0.5 momentum2: 0.9 delta: 1e-4`)
	if err != nil {
		t.Fatal(err)
	}
	specs, err := ParseNet(`
layer { name: "data" type: "Data" top: "data" top: "label" data_param { batch_size: 2 } }
layer { name: "ip" type: "InnerProduct" bottom: "data" top: "ip" inner_product_param { num_output: 3 } }
layer { name: "loss" type: "SoftmaxWithLoss" bottom: "ip" bottom: "label" top: "loss" }
`, BuildOptions{Source: data.NewSyntheticMNIST(4, 1), Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	n, err := net.New(specs, nil)
	if err != nil {
		t.Fatal(err)
	}
	s, err := solver.New(cfg, n)
	if err != nil {
		t.Fatal(err)
	}
	const lr, b1, b2, eps = 0.1, 0.5, 0.9, 1e-4
	w := n.Params()[0]
	want := make([]float64, w.Count())
	m1 := make([]float64, w.Count())
	m2 := make([]float64, w.Count())
	for i, v := range w.Data() {
		want[i] = float64(v)
	}
	for step, scale := range []float32{1, -0.25} {
		n.ZeroParamDiffs()
		for i := range w.Diff() {
			w.Diff()[i] = scale * float32(i%7-3) * 1e-3
		}
		grads := append([]float32(nil), w.Diff()...)
		s.UpdateFromGradients()
		iter := float64(step + 1)
		corr := math.Sqrt(1-math.Pow(b2, iter)) / (1 - math.Pow(b1, iter))
		for i, g32 := range grads {
			g := float64(g32)
			m1[i] = b1*m1[i] + (1-b1)*g
			m2[i] = b2*m2[i] + (1-b2)*g*g
			want[i] -= lr * corr * m1[i] / (math.Sqrt(m2[i]) + eps)
			if got := float64(w.Data()[i]); math.Abs(got-want[i]) > 1e-6 {
				t.Fatalf("step %d, weight %d: got %v, want %v", step+1, i, got, want[i])
			}
		}
	}
}

func TestBuildNetErrors(t *testing.T) {
	src := data.NewSyntheticMNIST(16, 1)
	cases := []string{
		``,                                 // no layers
		`layer { type: "ReLU" }`,           // missing name
		`layer { name: "x" }`,              // missing type
		`layer { name: "x" type: "Warp" }`, // unknown type
		`layer { name: "d" type: "Data" top: "data" top: "label" }`, // handled below with nil source
	}
	for i, c := range cases {
		opt := BuildOptions{Source: src}
		if i == len(cases)-1 {
			opt.Source = nil
		}
		if _, err := ParseNet(c, opt); err == nil {
			t.Errorf("case %d accepted: %s", i, c)
		}
	}
}

// A window geometry with no output over a 1x28x28 MNIST sample is an
// error from building the net, never a panic: a negative pad is refused
// by the layer's constructor (ParseNet), an empty output by the layer's
// SetUp (net.New), each naming the layer.
func TestBuildRefusesEmptyGeometry(t *testing.T) {
	const dataLayer = `layer { name: "d" type: "Data" top: "data" top: "label" data_param { batch_size: 1 } }
`
	for _, tc := range []struct{ layer, want string }{
		{`layer { name: "c" type: "Convolution" bottom: "data" top: "c"
  convolution_param { num_output: 2 kernel_size: 5 pad: -1 } }`, "layer c: convolution: pad must not be negative"},
		{`layer { name: "c" type: "Convolution" bottom: "data" top: "c"
  convolution_param { num_output: 2 kernel_size: 40 } }`, "layer c: output size -11x-11 over bottom [1 1 28 28]"},
		{`layer { name: "p" type: "Pooling" bottom: "data" top: "p"
  pooling_param { pool: MAX kernel_size: 40 } }`, "layer p: output size -11x-11 over bottom [1 1 28 28]"},
	} {
		specs, err := ParseNet(dataLayer+tc.layer, BuildOptions{Source: data.NewSyntheticMNIST(4, 1), Seed: 1})
		if err == nil {
			_, err = net.New(specs, nil)
		}
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("err = %v, want %q", err, tc.want)
		}
	}
}

func TestBuildAllLayerTypes(t *testing.T) {
	// One prototxt exercising every supported type.
	src := data.NewSyntheticMNIST(32, 1)
	text := `
layer { name: "d" type: "Data" top: "data" top: "label" data_param { batch_size: 4 } }
layer { name: "c" type: "Convolution" bottom: "data" top: "c"
  convolution_param { num_output: 2 kernel_size: 5 stride: 2 weight_filler { type: "xavier" } } }
layer { name: "p" type: "Pooling" bottom: "c" top: "p" pooling_param { pool: MAX kernel_size: 2 stride: 2 } }
layer { name: "n" type: "LRN" bottom: "p" top: "n" lrn_param { local_size: 3 alpha: 0.0001 beta: 0.75 } }
layer { name: "r" type: "ReLU" bottom: "n" top: "r" relu_param { negative_slope: 0.01 } }
layer { name: "s" type: "Sigmoid" bottom: "r" top: "s" }
layer { name: "th" type: "TanH" bottom: "s" top: "th" }
layer { name: "dr" type: "Dropout" bottom: "th" top: "dr" dropout_param { dropout_ratio: 0.2 } }
layer { name: "sp" type: "Split" bottom: "dr" top: "dr1" top: "dr2" top: "dr3" }
layer { name: "ip" type: "InnerProduct" bottom: "dr1" top: "ip" inner_product_param { num_output: 10 } }
layer { name: "ipb" type: "InnerProduct" bottom: "dr2" top: "ipb" inner_product_param { num_output: 10 } }
layer { name: "elt" type: "Eltwise" bottom: "ip" bottom: "ipb" top: "elt" eltwise_param { operation: SUM coeff: 0.5 coeff: 0.5 } }
layer { name: "fl" type: "Flatten" bottom: "elt" top: "fl" }
layer { name: "cc" type: "Concat" bottom: "fl" top: "cc" }
layer { name: "sm" type: "Softmax" bottom: "dr3" top: "sm" }
layer { name: "acc" type: "Accuracy" bottom: "cc" bottom: "label" top: "acc" accuracy_param { top_k: 2 } }
layer { name: "loss" type: "SoftmaxWithLoss" bottom: "cc" bottom: "label" top: "loss" }
`
	specs, err := ParseNet(text, BuildOptions{Source: src, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	n, err := net.New(specs, nil)
	if err != nil {
		t.Fatal(err)
	}
	if loss := n.ForwardBackward(); loss <= 0 {
		t.Fatalf("loss %v", loss)
	}
}

func TestLegacyLayersKeyword(t *testing.T) {
	src := data.NewSyntheticMNIST(16, 1)
	text := `
layers { name: "d" type: "DATA" top: "data" top: "label" data_param { batch_size: 2 } }
layers { name: "r" type: "RELU" bottom: "data" top: "r" }
`
	specs, err := ParseNet(text, BuildOptions{Source: src})
	if err != nil {
		t.Fatal(err)
	}
	if len(specs) != 2 {
		t.Fatalf("legacy layers produced %d specs", len(specs))
	}
}

func TestRenderQuoting(t *testing.T) {
	doc, _ := Parse(`a: "hello world"`)
	out := doc.Render("")
	if !strings.Contains(out, `"hello world"`) {
		t.Fatalf("rendered %q", out)
	}
}

// Render must write what Parse reads back: non-ASCII text and either quote
// character survive a round trip unchanged.
func TestRenderRoundTripsEveryScalar(t *testing.T) {
	for _, src := range []string{
		`name: "é"`,
		`name: "Ł"`,
		`name: "naïve layer"`,
		`name: '"quoted"'`,
		`name: "it's"`,
		`name: "back\slash"`,
	} {
		doc, err := Parse(src)
		if err != nil {
			t.Fatalf("Parse(%q): %v", src, err)
		}
		out := doc.Render("")
		doc2, err := Parse(out)
		if err != nil {
			t.Fatalf("%q renders as %q, which does not parse: %v", src, out, err)
		}
		if got, want := doc2.String("name", ""), doc.String("name", ""); got != want {
			t.Fatalf("%q round-trips to %q, want %q", src, got, want)
		}
	}
}

// FuzzParse feeds Parse arbitrary documents: it must never panic, and any
// document it accepts must render to text that parses back to the same
// rendering.
func FuzzParse(f *testing.F) {
	configs, err := filepath.Glob(filepath.Join("..", "..", "configs", "*.prototxt"))
	if err != nil || len(configs) == 0 {
		f.Fatalf("no configs to seed from: %v", err)
	}
	for _, path := range configs {
		raw, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(string(raw))
	}
	for _, src := range parseErrorInputs {
		f.Add(src)
	}
	f.Fuzz(func(t *testing.T, src string) {
		doc, err := Parse(src)
		if err != nil {
			return
		}
		out := doc.Render("")
		doc2, err := Parse(out)
		if err != nil {
			t.Fatalf("rendered document does not parse: %v\n%s", err, out)
		}
		if again := doc2.Render(""); again != out {
			t.Fatalf("render is not stable:\n%s\nthen\n%s", out, again)
		}
	})
}

func TestTransformParamOnDataLayer(t *testing.T) {
	src := data.NewSyntheticCIFAR(32, 1)
	text := `
layer {
  name: "d" type: "Data" top: "data" top: "label"
  data_param { batch_size: 4 }
  transform_param { scale: 2.0 crop_size: 28 mirror: true mean_value: 0.5 mean_value: 0.5 mean_value: 0.5 }
}
layer { name: "r" type: "ReLU" bottom: "data" top: "r" }
`
	specs, err := ParseNet(text, BuildOptions{Source: src, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	n, err := net.New(specs, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Crop applied: 28x28 instead of 32x32.
	if s := n.Blob("data").Shape(); s[2] != 28 || s[3] != 28 {
		t.Fatalf("transform crop not applied: %v", s)
	}
	n.Forward()
	// Values scaled by 2 after subtracting 0.5: range [-1, 1].
	for _, v := range n.Blob("data").Data() {
		if v < -1.001 || v > 1.001 {
			t.Fatalf("transform value %v out of range", v)
		}
	}
}

func TestTransformParamErrors(t *testing.T) {
	src := data.NewSyntheticCIFAR(8, 1)
	text := `
layer { name: "d" type: "Data" top: "data" top: "label"
  transform_param { crop_size: 99 } }
`
	if _, err := ParseNet(text, BuildOptions{Source: src}); err == nil {
		t.Fatal("oversized crop accepted")
	}
}

func TestDeconvolutionFromPrototxt(t *testing.T) {
	src := data.NewSyntheticMNIST(16, 1)
	text := `
layer { name: "d" type: "Data" top: "data" top: "label" data_param { batch_size: 2 } }
layer { name: "c" type: "Convolution" bottom: "data" top: "c"
  convolution_param { num_output: 2 kernel_size: 5 stride: 2 weight_filler { type: "xavier" } } }
layer { name: "up" type: "Deconvolution" bottom: "c" top: "up"
  convolution_param { num_output: 1 kernel_size: 4 stride: 2 pad: 1 weight_filler { type: "xavier" } } }
`
	specs, err := ParseNet(text, BuildOptions{Source: src, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	n, err := net.New(specs, nil)
	if err != nil {
		t.Fatal(err)
	}
	// conv: 28 -> 12; deconv k4/s2/p1: (12-1)*2 - 2 + 4 = 24.
	if s := n.Blob("up").Shape(); s[2] != 24 || s[3] != 24 {
		t.Fatalf("deconv shape %v", s)
	}
	n.ZeroParamDiffs()
	if loss := n.Forward(); loss != 0 {
		// No loss layer: Forward returns 0; just ensure it runs.
		t.Fatalf("unexpected loss %v", loss)
	}
}

// BatchSize reads what BuildNet would build at: the first Data layer's
// batch_size, Caffe's 64 when it names none, an error when there is no
// Data layer to size.
func TestBatchSize(t *testing.T) {
	for src, want := range map[string]int{
		`layer { name: "d" type: "Data" data_param { batch_size: 24 } }`: 24,
		`layers { name: "d" type: DATA }`:                                64,
		`layer { name: "r" type: "ReLU" }`:                               0,
	} {
		doc, err := Parse(src)
		if err != nil {
			t.Fatal(err)
		}
		got, err := BatchSize(doc)
		if got != want || (err == nil) != (want > 0) {
			t.Errorf("%s: batch %d (%v), want %d", src, got, err, want)
		}
	}
}

// Deconvolution reads the convolution_param Convolution reads: per-axis
// kernels and bias_term too.
func TestDeconvolutionReadsEveryConvField(t *testing.T) {
	src := data.NewSyntheticMNIST(16, 1)
	text := `
layer { name: "d" type: "Data" top: "data" top: "label" data_param { batch_size: 2 } }
layer { name: "c" type: "Convolution" bottom: "data" top: "c"
  convolution_param { num_output: 2 kernel_size: 5 stride: 2 } }
layer { name: "up" type: "Deconvolution" bottom: "c" top: "up"
  convolution_param { num_output: 3 kernel_h: 3 kernel_w: 2 stride: 2 pad: 1 bias_term: false } }
`
	specs, err := ParseNet(text, BuildOptions{Source: src, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	n, err := net.New(specs, nil)
	if err != nil {
		t.Fatal(err)
	}
	if p := specs[2].Layer.Params(); len(p) != 1 {
		t.Fatalf("bias_term: false built %d parameter blobs, want 1", len(p))
	}
	// conv: 28 -> 12; deconv: (12-1)*2 - 2 + 3 = 23 high, (12-1)*2 - 2 + 2 = 22 wide.
	if s := n.Blob("up").Shape(); s[1] != 3 || s[2] != 23 || s[3] != 22 {
		t.Fatalf("deconv shape %v, want [2 3 23 22]", s)
	}
}

func TestInnerProductReadsBiasTerm(t *testing.T) {
	src := data.NewSyntheticMNIST(16, 1)
	text := `
layer { name: "d" type: "Data" top: "data" top: "label" data_param { batch_size: 2 } }
layer { name: "ip" type: "InnerProduct" bottom: "data" top: "ip" inner_product_param { num_output: 10 bias_term: false } }
`
	specs, err := ParseNet(text, BuildOptions{Source: src, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := net.New(specs, nil); err != nil {
		t.Fatal(err)
	}
	if p := specs[1].Layer.Params(); len(p) != 1 {
		t.Fatalf("bias_term: false built %d parameter blobs, want 1", len(p))
	}
}

// LRN reads k, the additive constant of its denominator: with a one-channel
// window, y = x * (k + alpha*x²)^-beta.
func TestLRNReadsK(t *testing.T) {
	src := data.NewSyntheticMNIST(16, 1)
	text := `
layer { name: "d" type: "Data" top: "data" top: "label" data_param { batch_size: 2 } }
layer { name: "n" type: "LRN" bottom: "data" top: "n" lrn_param { local_size: 1 alpha: 0.0001 beta: 0.75 k: 2 } }
`
	specs, err := ParseNet(text, BuildOptions{Source: src, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	n, err := net.New(specs, nil)
	if err != nil {
		t.Fatal(err)
	}
	n.Forward()
	for i, x := range n.Blob("data").Data() {
		want := float64(x) * math.Pow(2+1e-4*float64(x)*float64(x), -0.75)
		if got := n.Blob("n").Data()[i]; math.Abs(float64(got)-want) > 1e-5 {
			t.Fatalf("LRN output %d: %v, want %v for k = 2", i, got, want)
		}
	}
}

// TestPerAxisWindowFields: Convolution, Deconvolution and Pooling read
// Caffe's per-axis kernel_h/_w, pad_h/_w and stride_h/_w beside the square
// fields, and build the output shape Caffe's formulas give on a 28x28
// input: floor for convolution, ceil (less a window starting in the
// padding) for pooling, and the transpose of convolution's for
// deconvolution.
func TestPerAxisWindowFields(t *testing.T) {
	conv := func(in, k, p, s int) int { return (in+2*p-k)/s + 1 }
	pool := func(in, k, p, s int) int {
		out := (in+2*p-k+s-1)/s + 1
		if p > 0 && (out-1)*s >= in+p {
			out--
		}
		return out
	}
	deconv := func(in, k, p, s int) int { return s*(in-1) + k - 2*p }
	for _, tc := range []struct {
		typ, param string
		out        func(in, k, p, s int) int
		// The window the param spells out, per axis.
		kh, kw, ph, pw, sh, sw int
	}{
		{"Convolution", `convolution_param { num_output: 2 kernel_size: 3 pad_h: 1 pad_w: 1 stride_h: 2 stride_w: 2 }`,
			conv, 3, 3, 1, 1, 2, 2},
		{"Convolution", `convolution_param { num_output: 2 kernel_h: 5 kernel_w: 3 pad_h: 2 stride_h: 1 stride_w: 3 }`,
			conv, 5, 3, 2, 0, 1, 3},
		{"Convolution", `convolution_param { num_output: 2 kernel_size: 4 pad: 1 pad_w: 3 stride: 2 stride_h: 3 }`,
			conv, 4, 4, 1, 3, 3, 2},
		{"Pooling", `pooling_param { pool: MAX kernel_size: 2 stride_h: 2 stride_w: 2 }`,
			pool, 2, 2, 0, 0, 2, 2},
		{"Pooling", `pooling_param { pool: AVE kernel_h: 3 kernel_w: 2 pad_h: 1 stride_h: 2 stride_w: 3 }`,
			pool, 3, 2, 1, 0, 2, 3},
		{"Pooling", `pooling_param { pool: MAX kernel_size: 3 pad_w: 1 stride_h: 3 stride_w: 2 }`,
			pool, 3, 3, 0, 1, 3, 2},
		{"Deconvolution", `convolution_param { num_output: 1 kernel_size: 4 pad_h: 1 stride_h: 2 stride_w: 3 }`,
			deconv, 4, 4, 1, 0, 2, 3},
	} {
		text := `layer { name: "d" type: "Data" top: "data" top: "label" data_param { batch_size: 2 } }
layer { name: "w" type: "` + tc.typ + `" bottom: "data" top: "w" ` + tc.param + ` }`
		specs, err := ParseNet(text, BuildOptions{Source: data.NewSyntheticMNIST(4, 1), Seed: 1})
		if err != nil {
			t.Fatalf("%s: %v", tc.param, err)
		}
		n, err := net.New(specs, nil)
		if err != nil {
			t.Fatalf("%s: %v", tc.param, err)
		}
		s := n.Blob("w").Shape()
		if h, w := tc.out(28, tc.kh, tc.ph, tc.sh), tc.out(28, tc.kw, tc.pw, tc.sw); s[2] != h || s[3] != w {
			t.Errorf("%s %s: top %dx%d, want Caffe's %dx%d", tc.typ, tc.param, s[2], s[3], h, w)
		}
	}
}
