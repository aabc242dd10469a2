package layers

import (
	"fmt"

	"coarsegrain/internal/blob"
)

// Source is the dataset abstraction consumed by the Data layer. Package
// data provides synthetic MNIST-like and CIFAR-like sources plus loaders
// for the real on-disk formats.
type Source interface {
	// Len returns the number of samples.
	Len() int
	// SampleShape returns the per-sample shape (channels, height, width).
	SampleShape() []int
	// Classes returns the number of label classes.
	Classes() int
	// Read writes sample i's pixels into out (len = C*H*W) and returns its
	// label. Read must be safe for concurrent use with distinct i.
	Read(i int, out []float32) int
}

// Data is the input layer: it feeds batches of samples and labels into the
// network. Tops are [data (S,C,H,W), labels (S)].
//
// In the paper's Caffe the data layer executes *sequentially* (§4.3
// "Locality between layers"): one thread loads the whole batch, which is
// why the first convolution suffers the locality penalty the paper
// measures. Here only the bookkeeping is serial: ForwardPrepare fixes the
// pass's first source index and advances the cursor and epoch, and the
// load itself is a samples range like any other layer's — ForwardRange
// reads samples (start+s) mod Len into slots [lo, hi), so under a samples
// cut each worker fills the samples its own band of the first
// convolution reads next. The same indices land in the same slots at any
// worker count, so the batch is bit-identical to the serial load.
type Data struct {
	base
	src       Source
	batchSize int
	cursor    int
	epoch     int
	// start is the source index of slot 0 of the pass in flight, set by
	// ForwardPrepare.
	start int
}

// NewData creates a data layer reading consecutive batches from src,
// wrapping around at the end of an epoch.
func NewData(name string, src Source, batchSize int) (*Data, error) {
	if src == nil {
		return nil, fmt.Errorf("layer %s: nil source", name)
	}
	if batchSize <= 0 {
		return nil, fmt.Errorf("layer %s: batch size must be positive, got %d", name, batchSize)
	}
	if src.Len() == 0 {
		return nil, fmt.Errorf("layer %s: empty source", name)
	}
	return &Data{base: base{name: name, typ: "Data"}, src: src, batchSize: batchSize}, nil
}

// Epoch returns the number of completed passes over the source.
func (l *Data) Epoch() int { return l.epoch }

// Rewind resets the read cursor to the beginning of the source.
func (l *Data) Rewind() { l.cursor = 0 }

// Skip advances the read cursor by batches whole batches without
// loading any samples, updating the epoch counter across wraparounds.
// A run resumed (or elastically re-formed) at iteration F calls
// Skip(F) on a fresh layer so its cursor lands exactly where a clean
// run's would after F iterations — same samples, same order, which is
// half of what makes resumed training bit-identical.
func (l *Data) Skip(batches int) {
	if batches <= 0 {
		return
	}
	total := l.cursor + batches*l.batchSize
	l.epoch += total / l.src.Len()
	l.cursor = total % l.src.Len()
}

// BatchSize returns the configured batch size.
func (l *Data) BatchSize() int { return l.batchSize }

// SetBatchSize changes the batch size for subsequent passes. The caller
// must re-run shape inference (net.Reshape) before the next forward so
// every downstream blob tracks the new leading dimension. The serving
// engine uses this to run partially-filled dynamic batches: blob buffers
// are reused as long as capacity suffices, so shrinking below a
// previously-seen batch size allocates nothing.
func (l *Data) SetBatchSize(n int) {
	if n <= 0 {
		panic(fmt.Sprintf("layer %s: batch size must be positive, got %d", l.name, n))
	}
	if n > l.src.Len() {
		panic(fmt.Sprintf("layer %s: batch size %d exceeds source length %d", l.name, n, l.src.Len()))
	}
	l.batchSize = n
}

// SetUp implements Layer.
func (l *Data) SetUp(bottom, top []*blob.Blob) error {
	if err := checkBottomTop(l, bottom, top, 0, 2); err != nil {
		return err
	}
	l.Reshape(bottom, top)
	return nil
}

// Reshape implements Layer.
func (l *Data) Reshape(bottom, top []*blob.Blob) {
	ss := l.src.SampleShape()
	shape := append([]int{l.batchSize}, ss...)
	top[0].Reshape(shape...)
	top[1].Reshape(l.batchSize)
}

// ForwardPrepare implements ForwardPreparer: the pass's serial
// bookkeeping. It records where the batch starts and moves the cursor
// and epoch past it, exactly as loading the batch one sample at a time
// would; ForwardRange then loads the samples.
func (l *Data) ForwardPrepare(bottom, top []*blob.Blob) {
	l.start = l.cursor
	l.Skip(1)
}

// ForwardExtent implements Layer: one iteration per sample of the batch.
func (l *Data) ForwardExtent() int { return l.batchSize }

// ForwardRange implements Layer: it loads samples (start+s) mod Len into
// slots [lo, hi) of the batch. Source.Read is safe for concurrent use
// with distinct indices, and distinct ranges write distinct slots.
func (l *Data) ForwardRange(lo, hi int, bottom, top []*blob.Blob) {
	sampleLen := top[0].CountFrom(1)
	data := top[0].Data()
	labels := top[1].Data()
	n := l.src.Len()
	for s := lo; s < hi; s++ {
		labels[s] = float32(l.src.Read((l.start+s)%n, data[s*sampleLen:(s+1)*sampleLen]))
	}
}

// BackwardExtent implements Layer: data has no gradient.
func (l *Data) BackwardExtent() int { return 0 }

// BackwardRange implements Layer (never called: extent is 0).
func (l *Data) BackwardRange(lo, hi int, bottom, top []*blob.Blob, _ []*blob.Blob) {}
