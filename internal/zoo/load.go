package zoo

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"coarsegrain/internal/layers"
	"coarsegrain/internal/net"
	"coarsegrain/internal/prototxt"
	"coarsegrain/internal/solver"
)

// Ref is a model reference as a front end takes it from its flags:
// which network (-zoo | -model), over which data (-dataset, -data,
// -samples), from which seed, at which batch. Load turns it into
// everything dnntrain, dnneval, dnnserve, layerprof, dnncluster and
// dnnbench need, so none of them resolves any of it itself.
type Ref struct {
	Zoo     string // built-in network: lenet | cifar10-full
	Model   string // network prototxt file; wins over Zoo when both are set
	Dataset string // mnist | cifar; "" means the zoo net's own, or cifar iff the prototxt's base name says so
	DataDir string // searched for the real dataset files; synthetic data otherwise
	Samples int    // synthetic dataset size, and the cap on a real one
	Seed    uint64 // weight initialization and synthetic data
	Batch   int    // > 0 overrides the prototxt's batch_size
}

// Model is a resolved Ref.
type Model struct {
	Name    string        // the zoo name or the prototxt path, for display
	Dataset string        // "mnist" or "cifar"
	Batch   int           // Ref.Batch, else the prototxt's batch_size
	Solver  solver.Config // the solver Caffe ships for the dataset
	Source  layers.Source // set by LoadData
	Real    bool          // Source was read from files under Ref.DataDir

	ref  Ref
	doc  *prototxt.Message // the -model file or the zoo net's configs file, parsed once
	data entry
}

// Resolve does everything about ref that needs no dataset: it validates
// the zoo name or reads and parses the prototxt (once — Specs rebuilds
// from the parsed document; a zoo name is its embedded configs file),
// and settles the dataset, batch and solver. Callers whose sample count
// depends on the batch call it and then LoadData; everyone else calls
// Load.
func Resolve(ref Ref) (*Model, error) {
	m := &Model{Name: ref.Zoo, Dataset: ref.Dataset, Batch: ref.Batch, ref: ref}
	var err error
	switch {
	case ref.Model != "":
		m.Name = ref.Model
		raw, rerr := os.ReadFile(ref.Model)
		if rerr != nil {
			return nil, rerr
		}
		if m.doc, err = prototxt.Parse(string(raw)); err != nil {
			return nil, fmt.Errorf("%s: %w", ref.Model, err)
		}
		if m.Dataset == "" {
			// The file's own name decides, never a directory above
			// it: /data/cifar-runs/lenet.prototxt trains on MNIST.
			m.Dataset = "mnist"
			if strings.Contains(filepath.Base(ref.Model), "cifar") {
				m.Dataset = "cifar"
			}
		}
	case ref.Zoo != "":
		e, lerr := lookup(ref.Zoo)
		if lerr != nil {
			return nil, lerr
		}
		if m.doc, err = e.net(); err != nil {
			return nil, err
		}
		if m.Dataset == "" {
			m.Dataset = e.dataset
		}
	default:
		return nil, fmt.Errorf("need -model or -zoo")
	}
	fileBatch, err := prototxt.BatchSize(m.doc)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", m.Name, err)
	}
	if m.data, err = lookup(m.Dataset); err != nil {
		return nil, fmt.Errorf("unknown dataset %q (have mnist, cifar)", m.Dataset)
	}
	m.Dataset, m.Solver = m.data.dataset, m.data.solver()
	if m.Batch <= 0 {
		m.Batch = fileBatch
	}
	return m, nil
}

// LoadData loads the model's dataset into m.Source: the real files under
// the Ref's DataDir when present, n synthetic samples otherwise.
func (m *Model) LoadData(n int) {
	m.Source, m.Real = m.data.load(m.ref.DataDir, n, m.ref.Seed)
}

// Load resolves ref and loads its dataset.
func Load(ref Ref) (*Model, error) {
	m, err := Resolve(ref)
	if err == nil {
		m.LoadData(ref.Samples)
	}
	return m, err
}

// DataString describes the loaded dataset: "synthetic mnist (2048 samples)".
func (m *Model) DataString() string {
	kind := "synthetic"
	if m.Real {
		kind = "real"
	}
	return fmt.Sprintf("%s %s (%d samples)", kind, m.Dataset, m.Source.Len())
}

// Specs builds a fresh, identically seeded copy of the network over src
// (m.Source, a shard of it, or a serving feeder) at the given batch, 0
// meaning m.Batch — once per net, per rank, per serving replica. Every
// convolution it builds is the lowered one: the implementation is not
// something a front end chooses, and the paper's direct loop nest is
// reached only by calling Build/LeNet/CIFARFull with the zero Options.
func (m *Model) Specs(src layers.Source, batch int) ([]net.LayerSpec, error) {
	if batch <= 0 {
		batch = m.Batch
	}
	return prototxt.BuildNet(m.doc, prototxt.BuildOptions{Source: src, Seed: m.ref.Seed, BatchOverride: batch})
}

// ScoreBlob names the blob holding the per-sample class scores, for
// serving and for the confusion matrix: the first bottom of the loss
// layer (ip2 in LeNet, ip1 in CIFAR-10-full).
func (m *Model) ScoreBlob() (string, error) {
	specs, err := m.Specs(m.Source, 0)
	if err != nil {
		return "", err
	}
	for _, sp := range specs {
		if _, ok := sp.Layer.(layers.LossWeighter); ok && len(sp.Bottoms) > 0 {
			return sp.Bottoms[0], nil
		}
	}
	return "", fmt.Errorf("%s has no loss layer to name the score blob; pass -scores", m.Name)
}
