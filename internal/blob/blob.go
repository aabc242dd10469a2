// Package blob implements the N-dimensional array that carries all data and
// gradients through the network, mirroring Caffe's Blob.
//
// A Blob is an N-dimensional array stored C-contiguously. For image batches
// the conventional dimensions are N x K x H x W (batch, channel, height,
// width) and the value at index (n, k, h, w) is physically located at
// ((n*K+k)*H+h)*W+w, exactly the layout the paper describes in §2.1.1.
//
// Every Blob carries two same-shaped buffers: Data (values propagated in the
// forward pass) and Diff (gradients propagated in the backward pass).
package blob

import (
	"fmt"
	"math"
	"strings"
)

// MaxAxes is the largest supported number of blob dimensions.
const MaxAxes = 8

// Blob is an N-dimensional array with a value buffer and a gradient buffer.
type Blob struct {
	name  string
	shape []int
	data  []float32
	diff  []float32
	// diffOnly marks gradient-scratch blobs whose data buffer aliases the
	// diff buffer, halving their footprint (see NewDiffOnly).
	diffOnly bool
	// dataOnly marks forward-only blobs that never allocate a gradient
	// buffer (see NewDataOnly): Diff() stays nil across reshapes, halving
	// the activation footprint of an inference net.
	dataOnly bool
}

// New creates a blob with the given shape. All elements are zero.
// New panics if any dimension is negative.
func New(shape ...int) *Blob {
	b := &Blob{}
	b.Reshape(shape...)
	return b
}

// Named creates a blob with a name (used in diagnostics and net wiring).
func Named(name string, shape ...int) *Blob {
	b := New(shape...)
	b.name = name
	return b
}

// NewDiffOnly creates a blob whose data buffer aliases its diff buffer,
// halving the memory footprint. It is meant for gradient scratch storage
// (the per-worker privatized blobs of the coarse engine, §3.2.1), which
// only ever reads and writes Diff. Callers must not use Data on such a
// blob.
func NewDiffOnly(shape ...int) *Blob {
	b := &Blob{diffOnly: true}
	b.Reshape(shape...)
	return b
}

// NewDataOnly creates a blob that never allocates a gradient buffer: its
// Diff() is nil across every Reshape. It is the dual of NewDiffOnly,
// meant for the activations of forward-only (inference) nets
// (net.NewForward), which only ever read and write Data — the gradient
// half of the memory footprint disappears. ZeroDiff and ScaleDiff are
// no-ops; indexing into Diff() panics, by design.
func NewDataOnly(shape ...int) *Blob {
	b := &Blob{dataOnly: true}
	b.Reshape(shape...)
	return b
}

// NamedDataOnly creates a named blob with no gradient buffer
// (see NewDataOnly).
func NamedDataOnly(name string, shape ...int) *Blob {
	b := NewDataOnly(shape...)
	b.name = name
	return b
}

// DropDiff releases the blob's gradient buffer and converts it to
// data-only mode: subsequent reshapes never reallocate a diff buffer.
// net.NewForward calls this on parameter blobs so a forward-only net
// holds only the coefficients themselves. Panics on a diff-only blob
// (dropping its diff would drop its data).
func (b *Blob) DropDiff() {
	if b.diffOnly {
		panic("blob: DropDiff on a diff-only blob")
	}
	b.dataOnly = true
	b.diff = nil
}

// Name returns the blob's name ("" if unnamed).
func (b *Blob) Name() string { return b.name }

// count returns the product of dims, panicking on negatives or overflow.
func count(shape []int) int {
	n := 1
	for _, d := range shape {
		if d < 0 {
			panic(fmt.Sprintf("blob: negative dimension %d in shape %v", d, shape))
		}
		n *= d
	}
	return n
}

// Reshape changes the blob's shape. The underlying buffers are reused when
// large enough (so repeated reshapes across batches do not allocate), and
// grown otherwise. Newly exposed elements are zeroed.
func (b *Blob) Reshape(shape ...int) {
	if len(shape) > MaxAxes {
		panic(fmt.Sprintf("blob: too many axes %d > %d", len(shape), MaxAxes))
	}
	n := count(shape)
	b.shape = append(b.shape[:0], shape...)
	if b.dataOnly {
		if cap(b.data) < n {
			b.data = make([]float32, n)
		}
		b.data = b.data[:n]
		return
	}
	if cap(b.diff) < n {
		b.diff = make([]float32, n)
		if b.diffOnly {
			b.data = b.diff
		} else {
			b.data = make([]float32, n)
		}
		return
	}
	b.data = b.data[:n]
	b.diff = b.diff[:n]
}

// ReshapeLike reshapes b to o's shape.
func (b *Blob) ReshapeLike(o *Blob) { b.Reshape(o.shape...) }

// Shape returns the blob's dimensions. The returned slice must not be
// modified.
func (b *Blob) Shape() []int { return b.shape }

// ShapeString renders the shape like "64 20 12 12 (184320)".
func (b *Blob) ShapeString() string {
	parts := make([]string, len(b.shape))
	for i, d := range b.shape {
		parts[i] = fmt.Sprint(d)
	}
	return fmt.Sprintf("%s (%d)", strings.Join(parts, " "), b.Count())
}

// AxisCount returns the number of axes.
func (b *Blob) AxisCount() int { return len(b.shape) }

// Dim returns the size of axis i. Negative indices count from the end, as
// in Caffe (Dim(-1) is the innermost axis).
func (b *Blob) Dim(i int) int {
	if i < 0 {
		i += len(b.shape)
	}
	if i < 0 || i >= len(b.shape) {
		panic(fmt.Sprintf("blob: axis %d out of range for shape %v", i, b.shape))
	}
	return b.shape[i]
}

// Count returns the total number of elements.
func (b *Blob) Count() int { return len(b.data) }

// CountFrom returns the product of dimensions from axis `from` (inclusive)
// to the last axis.
func (b *Blob) CountFrom(from int) int {
	n := 1
	for i := from; i < len(b.shape); i++ {
		n *= b.shape[i]
	}
	return n
}

// Num, Channels, Height and Width return the conventional 4-D image batch
// dimensions. Missing trailing axes default to 1, as in Caffe's legacy
// accessors, so a 2-D blob (N, C) has Height() == Width() == 1.
func (b *Blob) Num() int      { return b.legacyDim(0) }
func (b *Blob) Channels() int { return b.legacyDim(1) }
func (b *Blob) Height() int   { return b.legacyDim(2) }
func (b *Blob) Width() int    { return b.legacyDim(3) }

func (b *Blob) legacyDim(i int) int {
	if i < len(b.shape) {
		return b.shape[i]
	}
	return 1
}

// Offset returns the flat index of the element at the given multi-index.
// Fewer indices than axes address the start of the corresponding sub-array.
func (b *Blob) Offset(idx ...int) int {
	if len(idx) > len(b.shape) {
		panic(fmt.Sprintf("blob: %d indices for %d axes", len(idx), len(b.shape)))
	}
	off := 0
	for i, x := range idx {
		if x < 0 || x >= b.shape[i] {
			panic(fmt.Sprintf("blob: index %d out of range [0,%d) on axis %d", x, b.shape[i], i))
		}
		off = off*b.shape[i] + x
	}
	return off * b.CountFrom(len(idx))
}

// Data returns the value buffer. Mutating it mutates the blob.
func (b *Blob) Data() []float32 { return b.data }

// Diff returns the gradient buffer. Mutating it mutates the blob.
func (b *Blob) Diff() []float32 { return b.diff }

// At returns the data value at the multi-index.
func (b *Blob) At(idx ...int) float32 { return b.data[b.Offset(idx...)] }

// Set stores v at the multi-index.
func (b *Blob) Set(v float32, idx ...int) { b.data[b.Offset(idx...)] = v }

// DiffAt returns the gradient value at the multi-index.
func (b *Blob) DiffAt(idx ...int) float32 { return b.diff[b.Offset(idx...)] }

// ZeroData sets every data element to zero.
func (b *Blob) ZeroData() {
	for i := range b.data {
		b.data[i] = 0
	}
}

// ZeroDiff sets every gradient element to zero. Solvers call this between
// iterations; the coarse engine calls it on privatized gradient blobs before
// each backward pass (Algorithm 5 lines 4-5).
func (b *Blob) ZeroDiff() {
	for i := range b.diff {
		b.diff[i] = 0
	}
}

// CopyDataFrom copies o's data into b. Shapes must have equal counts.
func (b *Blob) CopyDataFrom(o *Blob) {
	if len(b.data) != len(o.data) {
		panic(fmt.Sprintf("blob: copy count mismatch %d != %d", len(b.data), len(o.data)))
	}
	copy(b.data, o.data)
}

// ShareDataWith makes b's data buffer alias o's. Used by in-place layers
// and by the net to alias split tops. Shapes must have equal counts.
func (b *Blob) ShareDataWith(o *Blob) {
	if len(b.data) != len(o.data) {
		panic("blob: share count mismatch")
	}
	b.data = o.data
}

// AsumData returns the L1 norm of the data.
func (b *Blob) AsumData() float64 {
	var s float64
	for _, v := range b.data {
		s += math.Abs(float64(v))
	}
	return s
}

// AsumDiff returns the L1 norm of the gradients.
func (b *Blob) AsumDiff() float64 {
	var s float64
	for _, v := range b.diff {
		s += math.Abs(float64(v))
	}
	return s
}

// ScaleData multiplies every data element by alpha.
func (b *Blob) ScaleData(alpha float32) {
	for i := range b.data {
		b.data[i] *= alpha
	}
}

// ScaleDiff multiplies every gradient element by alpha.
func (b *Blob) ScaleDiff(alpha float32) {
	for i := range b.diff {
		b.diff[i] *= alpha
	}
}

// AccumulateDiffFrom adds o's gradients into b's (b.diff += o.diff).
// This is the merge step of the ordered reduction.
func (b *Blob) AccumulateDiffFrom(o *Blob) {
	if len(b.diff) != len(o.diff) {
		panic("blob: accumulate count mismatch")
	}
	for i, v := range o.diff {
		b.diff[i] += v
	}
}

// AccumulateDiffRange adds o's gradients over the element range [lo, hi)
// into b's: b.diff[lo:hi] += o.diff[lo:hi]. This is the element-sliced
// merge step of the parallel ordered reduction (par.Pool.OrderedSlices):
// each worker owns a disjoint range, so concurrent calls on distinct
// ranges are race-free, and per-element accumulation order is unchanged
// from AccumulateDiffFrom.
func (b *Blob) AccumulateDiffRange(o *Blob, lo, hi int) {
	if len(b.diff) != len(o.diff) {
		panic("blob: accumulate count mismatch")
	}
	if lo < 0 || hi > len(b.diff) || lo > hi {
		panic("blob: accumulate range out of bounds")
	}
	bd, od := b.diff[lo:hi], o.diff[lo:hi]
	for i, v := range od {
		bd[i] += v
	}
}

// Update applies a computed step stored in diff: data -= diff, as Caffe's
// Blob::Update does. The solver applies its step inside its sliced update
// sweep instead, element by element, with the same arithmetic.
func (b *Blob) Update() {
	for i := range b.data {
		b.data[i] -= b.diff[i]
	}
}

// SameShape reports whether b and o have identical shapes.
func (b *Blob) SameShape(o *Blob) bool {
	if len(b.shape) != len(o.shape) {
		return false
	}
	for i := range b.shape {
		if b.shape[i] != o.shape[i] {
			return false
		}
	}
	return true
}

// String implements fmt.Stringer.
func (b *Blob) String() string {
	if b.name != "" {
		return fmt.Sprintf("Blob %q [%s]", b.name, b.ShapeString())
	}
	return fmt.Sprintf("Blob [%s]", b.ShapeString())
}

// Cap returns the element capacity of the blob's buffers (>= Count).
func (b *Blob) Cap() int { return cap(b.data) }

// MemoryBytes returns the number of bytes held by the blob's buffers
// (counting an aliased diff-only buffer once, and a dropped diff buffer
// not at all). Used for the paper's §3.2.1 memory-overhead accounting
// and for the forward-only mode's footprint comparison (SERVING.md).
func (b *Blob) MemoryBytes() int64 {
	if b.diffOnly {
		return int64(cap(b.diff)) * 4
	}
	return int64(cap(b.data)+cap(b.diff)) * 4
}
