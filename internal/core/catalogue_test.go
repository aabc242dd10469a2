package core

import (
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"strings"
	"testing"

	"coarsegrain/internal/blob"
	"coarsegrain/internal/data"
	"coarsegrain/internal/layers"
	"coarsegrain/internal/rng"
)

// layerCase builds one catalogue layer and its bottoms, deterministically:
// two calls return layers with equal parameters over equal inputs.
type layerCase struct {
	name string
	mk   func(t *testing.T) (layers.Layer, []*blob.Blob)
	// tops is the number of top blobs the layer writes (1 when zero).
	tops int
	// reluGrad zeroes the top gradient wherever the top is not positive,
	// the exact zeros a following ReLU leaves, which the direct
	// convolution's backward skips.
	reluGrad bool
}

// newTops returns the case's empty top blobs.
func (c layerCase) newTops() []*blob.Blob {
	top := []*blob.Blob{blob.New()}
	for len(top) < c.tops {
		top = append(top, blob.New())
	}
	return top
}

// randomBottom is a blob of the shape with uniform values in [-1, 1).
func randomBottom(seed uint64, shape ...int) *blob.Blob {
	b := blob.New(shape...)
	r := rng.New(seed, 9)
	for i := range b.Data() {
		b.Data()[i] = r.Range(-1, 1)
	}
	return b
}

// labelBottom is a blob of n class labels in [0, classes).
func labelBottom(n, classes int) *blob.Blob {
	b := blob.New(n)
	for i := range b.Data() {
		b.Data()[i] = float32(i * 3 % classes)
	}
	return b
}

// layerCases is the whole layer catalogue, one case per constructor of
// package layers and a variant for each way an engine cuts a layer
// differently: both convolution kernels and InnerProduct (channel ranges;
// with and without a bias, with and without a bottom gradient),
// BatchNorm and Deconvolution with and without a bottom gradient, the
// parameter-free range bodies, the two layers with parameters but no
// channel axis (serial backward under Fine), the layers with several
// bottoms or tops, the loss and accuracy layers (serial finish) and Data
// (a samples range after a serial prepare hook). Channel counts stay below 5, so a cut into 5 bands
// leaves some bands empty. TestEveryLayerConstructorHasACase keeps the
// list whole.
func layerCases() []layerCase {
	var cases []layerCase
	variants := []struct {
		name           string
		noBias, noGrad bool
	}{{"bias", false, false}, {"nobias", true, false}, {"nograd", false, true}}
	for _, lowered := range []bool{false, true} {
		kernel := "direct"
		if lowered {
			kernel = "lowered"
		}
		for _, v := range variants {
			cases = append(cases, layerCase{name: "Convolution/" + kernel + "/" + v.name, reluGrad: true, mk: func(t *testing.T) (layers.Layer, []*blob.Blob) {
				l, err := layers.NewConvolution("conv", layers.ConvConfig{
					NumOutput: 4, Kernel: 3, Pad: 1, Stride: 2, NoBias: v.noBias,
					Lowered: lowered, WeightFiller: layers.GaussianFiller{Std: 0.2},
					BiasFiller: layers.GaussianFiller{Std: 0.2}, RNG: rng.New(31, 1),
				})
				if err != nil {
					t.Fatal(err)
				}
				l.SetPropagateDown([]bool{!v.noGrad})
				return l, []*blob.Blob{randomBottom(31, 3, 3, 7, 6)}
			}})
		}
	}
	for _, v := range variants {
		name := "InnerProduct"
		if v.name != "bias" {
			name += "/" + v.name
		}
		cases = append(cases, layerCase{name: name, mk: func(t *testing.T) (layers.Layer, []*blob.Blob) {
			l, err := layers.NewInnerProduct("ip", layers.IPConfig{NumOutput: 3, NoBias: v.noBias,
				WeightFiller: layers.GaussianFiller{Std: 0.3}, BiasFiller: layers.GaussianFiller{Std: 0.3},
				RNG: rng.New(32, 1)})
			if err != nil {
				t.Fatal(err)
			}
			l.SetPropagateDown([]bool{!v.noGrad})
			return l, []*blob.Blob{randomBottom(32, 4, 2, 3, 3)}
		}})
	}
	// The two other layers with parameters and a bottom gradient, with
	// and without that gradient.
	for _, noGrad := range []bool{false, true} {
		suffix := ""
		if noGrad {
			suffix = "/nograd"
		}
		cases = append(cases,
			layerCase{name: "BatchNorm" + suffix, mk: func(t *testing.T) (layers.Layer, []*blob.Blob) {
				l, err := layers.NewBatchNorm("bn", layers.BNConfig{})
				if err != nil {
					t.Fatal(err)
				}
				l.SetPropagateDown([]bool{!noGrad})
				return l, []*blob.Blob{randomBottom(38, 6, 3, 4, 4)}
			}},
			layerCase{name: "Deconvolution" + suffix, mk: func(t *testing.T) (layers.Layer, []*blob.Blob) {
				l, err := layers.NewDeconvolution("deconv", layers.ConvConfig{NumOutput: 3, Kernel: 3, Stride: 2,
					WeightFiller: layers.GaussianFiller{Std: 0.3}, BiasFiller: layers.GaussianFiller{Std: 0.3},
					RNG: rng.New(39, 1)})
				if err != nil {
					t.Fatal(err)
				}
				l.SetPropagateDown([]bool{!noGrad})
				return l, []*blob.Blob{randomBottom(39, 3, 4, 4, 4)}
			}},
		)
	}
	cases = append(cases,
		layerCase{name: "LRN", mk: func(t *testing.T) (layers.Layer, []*blob.Blob) {
			l, err := layers.NewLRN("norm", layers.LRNConfig{LocalSize: 3, Alpha: 0.5})
			if err != nil {
				t.Fatal(err)
			}
			return l, []*blob.Blob{randomBottom(33, 3, 4, 5, 5)}
		}},
		layerCase{name: "ReLU", mk: func(*testing.T) (layers.Layer, []*blob.Blob) {
			return layers.NewReLU("relu", 0.1), []*blob.Blob{randomBottom(34, 3, 4, 5, 5)}
		}},
		layerCase{name: "Sigmoid", mk: func(*testing.T) (layers.Layer, []*blob.Blob) {
			return layers.NewSigmoid("sig"), []*blob.Blob{randomBottom(35, 3, 4, 5, 5)}
		}},
		layerCase{name: "TanH", mk: func(*testing.T) (layers.Layer, []*blob.Blob) {
			return layers.NewTanH("tanh"), []*blob.Blob{randomBottom(36, 3, 4, 5, 5)}
		}},
		layerCase{name: "SoftmaxWithLoss", mk: func(*testing.T) (layers.Layer, []*blob.Blob) {
			return layers.NewSoftmaxWithLoss("loss"), []*blob.Blob{randomBottom(37, 5, 7), labelBottom(5, 7)}
		}},
		layerCase{name: "Accuracy", mk: func(*testing.T) (layers.Layer, []*blob.Blob) {
			return layers.NewAccuracy("acc", 2), []*blob.Blob{randomBottom(42, 5, 7), labelBottom(5, 7)}
		}},
		layerCase{name: "Concat", mk: func(*testing.T) (layers.Layer, []*blob.Blob) {
			return layers.NewConcat("concat"), []*blob.Blob{randomBottom(43, 3, 2, 3, 3), randomBottom(44, 3, 3, 3, 3)}
		}},
		layerCase{name: "Flatten", mk: func(*testing.T) (layers.Layer, []*blob.Blob) {
			return layers.NewFlatten("flat"), []*blob.Blob{randomBottom(45, 3, 4, 3, 2)}
		}},
		layerCase{name: "Dropout", mk: func(t *testing.T) (layers.Layer, []*blob.Blob) {
			l, err := layers.NewDropout("drop", 0.4, rng.New(46, 1))
			if err != nil {
				t.Fatal(err)
			}
			return l, []*blob.Blob{randomBottom(46, 3, 4, 5, 5)}
		}},
		layerCase{name: "EuclideanLoss", mk: func(*testing.T) (layers.Layer, []*blob.Blob) {
			return layers.NewEuclideanLoss("euclid"), []*blob.Blob{randomBottom(47, 4, 6), randomBottom(48, 4, 6)}
		}},
		layerCase{name: "Softmax", mk: func(*testing.T) (layers.Layer, []*blob.Blob) {
			return layers.NewSoftmax("softmax"), []*blob.Blob{randomBottom(49, 4, 3, 2)}
		}},
		layerCase{name: "Split", tops: 2, mk: func(*testing.T) (layers.Layer, []*blob.Blob) {
			return layers.NewSplit("split"), []*blob.Blob{randomBottom(50, 3, 4, 5)}
		}},
		layerCase{name: "Data", tops: 2, mk: func(t *testing.T) (layers.Layer, []*blob.Blob) {
			l, err := layers.NewData("data", data.NewSyntheticMNIST(16, 51), 4)
			if err != nil {
				t.Fatal(err)
			}
			return l, nil
		}},
	)
	for _, m := range []layers.PoolMethod{layers.MaxPool, layers.AvePool} {
		cases = append(cases, layerCase{name: "Pooling/" + m.String(), mk: func(t *testing.T) (layers.Layer, []*blob.Blob) {
			l, err := layers.NewPooling("pool", layers.PoolConfig{Method: m, Kernel: 3, Stride: 2})
			if err != nil {
				t.Fatal(err)
			}
			return l, []*blob.Blob{randomBottom(40, 3, 4, 7, 7)}
		}})
	}
	for _, op := range []layers.EltwiseOp{layers.EltwiseSum, layers.EltwiseProd, layers.EltwiseMax} {
		cases = append(cases, layerCase{name: "Eltwise/" + op.String(), mk: func(*testing.T) (layers.Layer, []*blob.Blob) {
			var coeffs []float32
			if op == layers.EltwiseSum {
				coeffs = []float32{0.5, -2, 1}
			}
			return layers.NewEltwise("eltwise", op, coeffs),
				[]*blob.Blob{randomBottom(52, 3, 2, 4), randomBottom(53, 3, 2, 4), randomBottom(54, 3, 2, 4)}
		}})
	}
	return cases
}

// TestEveryLayerConstructorHasACase fails when package layers exports a
// New* constructor that layerCases never calls, so a new layer cannot
// skip the band-contract harness or the Fine ≡ Sequential sweep.
func TestEveryLayerConstructorHasACase(t *testing.T) {
	fset := token.NewFileSet()
	parse := func(path string) *ast.File {
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		return f
	}
	called := map[string]bool{}
	ast.Inspect(parse("catalogue_test.go"), func(n ast.Node) bool {
		if sel, ok := n.(*ast.SelectorExpr); ok {
			if pkg, ok := sel.X.(*ast.Ident); ok && pkg.Name == "layers" {
				called[sel.Sel.Name] = true
			}
		}
		return true
	})
	files, err := filepath.Glob(filepath.Join("..", "layers", "*.go"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no Go files under ../layers: %v", err)
	}
	constructors := 0
	for _, path := range files {
		if strings.HasSuffix(path, "_test.go") {
			continue
		}
		for _, d := range parse(path).Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Recv != nil || !fd.Name.IsExported() || !strings.HasPrefix(fd.Name.Name, "New") {
				continue
			}
			constructors++
			if !called[fd.Name.Name] {
				t.Errorf("%s: layers.%s has no case in layerCases", fset.Position(fd.Pos()), fd.Name.Name)
			}
		}
	}
	if constructors < 19 {
		t.Fatalf("found %d layers.New* constructors, want at least the 19 of the catalogue", constructors)
	}
}

// setUp builds the case's layer and sets it up over its bottoms.
func (c layerCase) setUp(t *testing.T) (layers.Layer, []*blob.Blob, []*blob.Blob) {
	t.Helper()
	l, bottom := c.mk(t)
	top := c.newTops()
	if err := l.SetUp(bottom, top); err != nil {
		t.Fatal(err)
	}
	return l, bottom, top
}

// seedTopDiffs fills every top gradient from a fixed seed, zeroed under a
// non-positive top for reluGrad cases.
func (c layerCase) seedTopDiffs(top []*blob.Blob) {
	for i, b := range top {
		seedTopDiff(top[i:i+1], 41+uint64(i))
		if c.reluGrad {
			for j, y := range b.Data() {
				if y <= 0 {
					b.Diff()[j] = 0
				}
			}
		}
	}
}
