// Package zoo builds the two benchmark networks of the paper's evaluation
// exactly as shipped with Caffe: the LeNet MNIST classifier (9 layers,
// Figure 3 top) and the CIFAR-10-full CNN (14 layers, Figure 3 bottom),
// plus their Caffe solver configurations — and Load (load.go), the one
// place a front end's -zoo | -model reference becomes a data source, a
// batch, a solver and a network builder.
package zoo

import (
	"fmt"

	"coarsegrain/internal/data"
	"coarsegrain/internal/layers"
	"coarsegrain/internal/net"
	"coarsegrain/internal/rng"
	"coarsegrain/internal/solver"
)

// The Caffe training batch sizes, the default of Options.BatchSize.
const (
	lenetBatch = 64
	cifarBatch = 100
)

// Options configures a network build.
type Options struct {
	// BatchSize defaults to the Caffe training value (64 MNIST, 100 CIFAR).
	BatchSize int
	// Seed drives weight initialization; equal seeds give bit-identical
	// initial parameters.
	Seed uint64
	// Accuracy appends an Accuracy layer next to the loss.
	Accuracy bool
	// LoweredConv selects the im2col+GEMM convolution implementation
	// (Caffe's CPU path) instead of the direct loop nest.
	LoweredConv bool
}

// LeNet builds the MNIST network of §2.2.1: data, conv1(20,5x5), pool1(MAX
// 2/2), conv2(50,5x5), pool2(MAX 2/2), ip1(500), relu1, ip2(10), loss —
// the layer inventory of the paper's Figure 3 and the per-layer series of
// Figures 4-6.
func LeNet(src layers.Source, opt Options) ([]net.LayerSpec, error) {
	if opt.BatchSize == 0 {
		opt.BatchSize = lenetBatch
	}
	r := rng.New(opt.Seed, 100)
	dataL, err := layers.NewData("mnist", src, opt.BatchSize)
	if err != nil {
		return nil, err
	}
	conv1, err := layers.NewConvolution("conv1", layers.ConvConfig{
		NumOutput: 20, Kernel: 5, Stride: 1, Lowered: opt.LoweredConv,
		WeightFiller: layers.XavierFiller{}, RNG: r.Split(1),
	})
	if err != nil {
		return nil, err
	}
	pool1, err := layers.NewPooling("pool1", layers.PoolConfig{Method: layers.MaxPool, Kernel: 2, Stride: 2})
	if err != nil {
		return nil, err
	}
	conv2, err := layers.NewConvolution("conv2", layers.ConvConfig{
		NumOutput: 50, Kernel: 5, Stride: 1, Lowered: opt.LoweredConv,
		WeightFiller: layers.XavierFiller{}, RNG: r.Split(2),
	})
	if err != nil {
		return nil, err
	}
	pool2, err := layers.NewPooling("pool2", layers.PoolConfig{Method: layers.MaxPool, Kernel: 2, Stride: 2})
	if err != nil {
		return nil, err
	}
	ip1, err := layers.NewInnerProduct("ip1", layers.IPConfig{
		NumOutput: 500, WeightFiller: layers.XavierFiller{}, RNG: r.Split(3),
	})
	if err != nil {
		return nil, err
	}
	ip2, err := layers.NewInnerProduct("ip2", layers.IPConfig{
		NumOutput: src.Classes(), WeightFiller: layers.XavierFiller{}, RNG: r.Split(4),
	})
	if err != nil {
		return nil, err
	}
	specs := []net.LayerSpec{
		{Layer: dataL, Tops: []string{"data", "label"}},
		{Layer: conv1, Bottoms: []string{"data"}, Tops: []string{"conv1"}},
		{Layer: pool1, Bottoms: []string{"conv1"}, Tops: []string{"pool1"}},
		{Layer: conv2, Bottoms: []string{"pool1"}, Tops: []string{"conv2"}},
		{Layer: pool2, Bottoms: []string{"conv2"}, Tops: []string{"pool2"}},
		{Layer: ip1, Bottoms: []string{"pool2"}, Tops: []string{"ip1"}},
		{Layer: layers.NewReLU("relu1", 0), Bottoms: []string{"ip1"}, Tops: []string{"relu1"}},
		{Layer: ip2, Bottoms: []string{"relu1"}, Tops: []string{"ip2"}},
		{Layer: layers.NewSoftmaxWithLoss("loss"), Bottoms: []string{"ip2", "label"}, Tops: []string{"loss"}},
	}
	if opt.Accuracy {
		specs = append(specs, net.LayerSpec{
			Layer: layers.NewAccuracy("accuracy", 1), Bottoms: []string{"ip2", "label"}, Tops: []string{"accuracy"},
		})
	}
	return specs, nil
}

// LeNetSolver returns the Caffe lenet_solver.prototxt hyperparameters:
// SGD, base_lr 0.01, momentum 0.9, weight_decay 5e-4, inv policy with
// gamma 1e-4 and power 0.75.
func LeNetSolver() solver.Config {
	return solver.Config{
		Type: solver.SGD, BaseLR: 0.01, Momentum: 0.9, WeightDecay: 0.0005,
		LRPolicy: "inv", Gamma: 0.0001, Power: 0.75,
	}
}

// CIFARFull builds the CIFAR-10 network of §2.2.1, organized in the three
// levels the paper's §4.2.1 analyses:
//
//	level 1: conv1(32,5x5,pad2) pool1(MAX 3/2) relu1 norm1(LRN)
//	level 2: conv2(32,5x5,pad2) relu2 pool2(AVE 3/2) norm2(LRN)
//	level 3: conv3(64,5x5,pad2) relu3 pool3(AVE 3/2)
//
// followed by ip1(10) and the softmax loss — 14 layers including data.
func CIFARFull(src layers.Source, opt Options) ([]net.LayerSpec, error) {
	if opt.BatchSize == 0 {
		opt.BatchSize = cifarBatch
	}
	r := rng.New(opt.Seed, 200)
	dataL, err := layers.NewData("cifar", src, opt.BatchSize)
	if err != nil {
		return nil, err
	}
	newConv := func(name string, out int, std float32, stream uint64) (*layers.Convolution, error) {
		return layers.NewConvolution(name, layers.ConvConfig{
			NumOutput: out, Kernel: 5, Pad: 2, Stride: 1, Lowered: opt.LoweredConv,
			WeightFiller: layers.GaussianFiller{Std: std}, RNG: r.Split(stream),
		})
	}
	conv1, err := newConv("conv1", 32, 0.0001, 1)
	if err != nil {
		return nil, err
	}
	conv2, err := newConv("conv2", 32, 0.01, 2)
	if err != nil {
		return nil, err
	}
	conv3, err := newConv("conv3", 64, 0.01, 3)
	if err != nil {
		return nil, err
	}
	pool1, err := layers.NewPooling("pool1", layers.PoolConfig{Method: layers.MaxPool, Kernel: 3, Stride: 2})
	if err != nil {
		return nil, err
	}
	pool2, err := layers.NewPooling("pool2", layers.PoolConfig{Method: layers.AvePool, Kernel: 3, Stride: 2})
	if err != nil {
		return nil, err
	}
	pool3, err := layers.NewPooling("pool3", layers.PoolConfig{Method: layers.AvePool, Kernel: 3, Stride: 2})
	if err != nil {
		return nil, err
	}
	lrnCfg := layers.LRNConfig{LocalSize: 3, Alpha: 5e-5, Beta: 0.75}
	norm1, err := layers.NewLRN("norm1", lrnCfg)
	if err != nil {
		return nil, err
	}
	norm2, err := layers.NewLRN("norm2", lrnCfg)
	if err != nil {
		return nil, err
	}
	ip1, err := layers.NewInnerProduct("ip1", layers.IPConfig{
		NumOutput: src.Classes(), WeightFiller: layers.GaussianFiller{Std: 0.01}, RNG: r.Split(4),
	})
	if err != nil {
		return nil, err
	}
	specs := []net.LayerSpec{
		{Layer: dataL, Tops: []string{"data", "label"}},
		{Layer: conv1, Bottoms: []string{"data"}, Tops: []string{"conv1"}},
		{Layer: pool1, Bottoms: []string{"conv1"}, Tops: []string{"pool1"}},
		{Layer: layers.NewReLU("relu1", 0), Bottoms: []string{"pool1"}, Tops: []string{"relu1"}},
		{Layer: norm1, Bottoms: []string{"relu1"}, Tops: []string{"norm1"}},
		{Layer: conv2, Bottoms: []string{"norm1"}, Tops: []string{"conv2"}},
		{Layer: layers.NewReLU("relu2", 0), Bottoms: []string{"conv2"}, Tops: []string{"relu2"}},
		{Layer: pool2, Bottoms: []string{"relu2"}, Tops: []string{"pool2"}},
		{Layer: norm2, Bottoms: []string{"pool2"}, Tops: []string{"norm2"}},
		{Layer: conv3, Bottoms: []string{"norm2"}, Tops: []string{"conv3"}},
		{Layer: layers.NewReLU("relu3", 0), Bottoms: []string{"conv3"}, Tops: []string{"relu3"}},
		{Layer: pool3, Bottoms: []string{"relu3"}, Tops: []string{"pool3"}},
		{Layer: ip1, Bottoms: []string{"pool3"}, Tops: []string{"ip1"}},
		{Layer: layers.NewSoftmaxWithLoss("loss"), Bottoms: []string{"ip1", "label"}, Tops: []string{"loss"}},
	}
	if opt.Accuracy {
		specs = append(specs, net.LayerSpec{
			Layer: layers.NewAccuracy("accuracy", 1), Bottoms: []string{"ip1", "label"}, Tops: []string{"accuracy"},
		})
	}
	return specs, nil
}

// CIFARFullSolver returns the Caffe cifar10_full_solver.prototxt
// hyperparameters: SGD, base_lr 0.001, momentum 0.9, weight_decay 0.004,
// fixed policy.
func CIFARFullSolver() solver.Config {
	return solver.Config{
		Type: solver.SGD, BaseLR: 0.001, Momentum: 0.9, WeightDecay: 0.004,
		LRPolicy: "fixed",
	}
}

// entry is one zoo network with the dataset, batch and solver Caffe ships
// it with. The dataset names double as network names ("mnist" is LeNet),
// so one table answers both "which net" and "which data".
type entry struct {
	dataset string
	batch   int
	build   func(layers.Source, Options) ([]net.LayerSpec, error)
	solver  func() solver.Config
	load    func(dir string, n int, seed uint64) (layers.Source, bool)
}

func lookup(name string) (entry, error) {
	switch name {
	case "lenet", "mnist":
		return entry{"mnist", lenetBatch, LeNet, LeNetSolver, data.LoadMNIST}, nil
	case "cifar", "cifar10", "cifar10-full":
		return entry{"cifar", cifarBatch, CIFARFull, CIFARFullSolver, data.LoadCIFAR10}, nil
	default:
		return entry{}, fmt.Errorf("zoo: unknown network %q (have lenet, cifar10-full)", name)
	}
}

// Build is a convenience that constructs one of the named zoo networks.
func Build(name string, src layers.Source, opt Options) ([]net.LayerSpec, error) {
	e, err := lookup(name)
	if err != nil {
		return nil, err
	}
	return e.build(src, opt)
}
