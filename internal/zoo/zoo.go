// Package zoo builds the two benchmark networks of the paper's evaluation
// exactly as shipped with Caffe: the LeNet MNIST classifier (9 layers,
// Figure 3 top) and the CIFAR-10-full CNN (14 layers, Figure 3 bottom),
// plus their Caffe solver configurations — and Load (load.go), the one
// place a front end's -zoo | -model reference becomes a data source, a
// batch, a solver and a network builder. Each net and solver is defined
// once, as its configs/*.prototxt file (embedded), so -zoo lenet builds
// configs/lenet.prototxt through the same parser and builder as -model.
package zoo

import (
	"fmt"
	"slices"
	"sync"

	"coarsegrain/configs"
	"coarsegrain/internal/data"
	"coarsegrain/internal/layers"
	"coarsegrain/internal/net"
	"coarsegrain/internal/prototxt"
	"coarsegrain/internal/solver"
)

// Options configures a network build.
type Options struct {
	// BatchSize defaults to the file's batch_size (64 MNIST, 100 CIFAR).
	BatchSize int
	// Seed drives weight initialization; equal seeds give bit-identical
	// initial parameters.
	Seed uint64
	// Accuracy keeps the file's Accuracy layer next to the loss.
	Accuracy bool
	// LoweredConv selects the im2col+GEMM convolution implementation
	// (Caffe's CPU path) instead of the direct loop nest.
	LoweredConv bool
}

// LeNet builds configs/lenet.prototxt, the MNIST network of §2.2.1:
// data, conv1(20,5x5), pool1(MAX 2/2), conv2(50,5x5), pool2(MAX 2/2),
// ip1(500), relu1, ip2(10), loss — the layer inventory of the paper's
// Figure 3 and the per-layer series of Figures 4-6.
func LeNet(src layers.Source, opt Options) ([]net.LayerSpec, error) {
	return lenet.build(src, opt)
}

// LeNetSolver returns configs/lenet_solver.prototxt: SGD, base_lr 0.01,
// momentum 0.9, weight_decay 5e-4, inv policy with gamma 1e-4 and power
// 0.75.
func LeNetSolver() solver.Config { return lenet.solver() }

// CIFARFull builds configs/cifar10_full.prototxt, the CIFAR-10 network of
// §2.2.1, organized in the three levels the paper's §4.2.1 analyses:
//
//	level 1: conv1(32,5x5,pad2) pool1(MAX 3/2) relu1 norm1(LRN)
//	level 2: conv2(32,5x5,pad2) relu2 pool2(AVE 3/2) norm2(LRN)
//	level 3: conv3(64,5x5,pad2) relu3 pool3(AVE 3/2)
//
// followed by ip1(10) and the softmax loss — 14 layers including data.
func CIFARFull(src layers.Source, opt Options) ([]net.LayerSpec, error) {
	return cifar.build(src, opt)
}

// CIFARFullSolver returns configs/cifar10_full_solver.prototxt: SGD,
// base_lr 0.001, momentum 0.9, weight_decay 0.004, fixed policy.
func CIFARFullSolver() solver.Config { return cifar.solver() }

// entry is one zoo network: its net and solver files and the dataset
// Caffe ships it with. The dataset names double as network names
// ("mnist" is LeNet), so one table answers both "which net" and "which
// data".
type entry struct {
	dataset string
	net     func() (*prototxt.Message, error)
	solver  func() solver.Config
	load    func(dir string, n int, seed uint64) (layers.Source, bool)
}

var (
	lenet = entry{"mnist", parsed("lenet.prototxt"), solverFile("lenet_solver.prototxt"), data.LoadMNIST}
	cifar = entry{"cifar", parsed("cifar10_full.prototxt"), solverFile("cifar10_full_solver.prototxt"), data.LoadCIFAR10}
)

// parsed returns the embedded configs file, parsed on first use and
// shared after: building a net only reads the document.
func parsed(name string) func() (*prototxt.Message, error) {
	return sync.OnceValues(func() (*prototxt.Message, error) {
		raw, err := configs.FS.ReadFile(name)
		if err != nil {
			return nil, err
		}
		doc, err := prototxt.Parse(string(raw))
		if err != nil {
			return nil, fmt.Errorf("configs/%s: %w", name, err)
		}
		return doc, nil
	})
}

// solverFile returns the embedded solver file's configuration, parsed
// once. The file is compiled in, so one that does not parse is a defect
// of the build, not an input error.
func solverFile(name string) func() solver.Config {
	return sync.OnceValue(func() solver.Config {
		raw, err := configs.FS.ReadFile(name)
		if err == nil {
			var cfg solver.Config
			if cfg, err = prototxt.ParseSolver(string(raw)); err == nil {
				return cfg
			}
		}
		panic(fmt.Sprintf("zoo: configs/%s: %v", name, err))
	})
}

// build builds e's net at the file's batch_size unless opt.BatchSize
// says otherwise, on the direct loop nest unless opt.LoweredConv, and
// without the file's Accuracy layer unless opt.Accuracy.
func (e entry) build(src layers.Source, opt Options) ([]net.LayerSpec, error) {
	doc, err := e.net()
	if err != nil {
		return nil, err
	}
	specs, err := prototxt.BuildNet(doc, prototxt.BuildOptions{
		Source: src, Seed: opt.Seed, BatchOverride: opt.BatchSize, DirectConv: !opt.LoweredConv,
	})
	if err != nil || opt.Accuracy {
		return specs, err
	}
	return slices.DeleteFunc(specs, func(sp net.LayerSpec) bool {
		_, ok := sp.Layer.(*layers.Accuracy)
		return ok
	}), nil
}

func lookup(name string) (entry, error) {
	switch name {
	case "lenet", "mnist":
		return lenet, nil
	case "cifar", "cifar10", "cifar10-full":
		return cifar, nil
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
