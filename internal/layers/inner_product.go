package layers

import (
	"fmt"

	"coarsegrain/internal/blas"
	"coarsegrain/internal/blob"
	"coarsegrain/internal/rng"
)

// IPConfig configures an InnerProduct (fully connected) layer.
type IPConfig struct {
	NumOutput    int
	NoBias       bool
	WeightFiller Filler
	BiasFiller   Filler
	RNG          *rng.RNG
}

func (c *IPConfig) normalize() error {
	if c.NumOutput <= 0 {
		return fmt.Errorf("inner product: NumOutput must be positive, got %d", c.NumOutput)
	}
	if c.WeightFiller == nil {
		c.WeightFiller = XavierFiller{}
	}
	if c.BiasFiller == nil {
		c.BiasFiller = ConstantFiller{}
	}
	if c.RNG == nil {
		c.RNG = rng.New(1, 2)
	}
	return nil
}

// InnerProduct is a fully connected layer: top[s] = W * bottom[s] + b,
// treating everything after the batch axis as a flat feature vector.
//
// This is the literal f(x, W, b) = W*x + b transformation of §2.1.2: the
// coarse path coalesces over samples and issues one GEMM per sample band
// (the "BLAS call per data segment" of Algorithm 2); its channel ranges
// instead cut the whole-batch GEMMs by output or input features
// (BLAS-level parallelism, §3.1.1). Each pass is written once — forward,
// paramGrad, dataGrad, over a block of samples × features — and both cuts
// call it.
type InnerProduct struct {
	base
	cfg IPConfig

	num, k        int // batch size, input features
	propagateDown bool
}

// NewInnerProduct creates a fully connected layer.
func NewInnerProduct(name string, cfg IPConfig) (*InnerProduct, error) {
	if err := cfg.normalize(); err != nil {
		return nil, fmt.Errorf("layer %s: %w", name, err)
	}
	return &InnerProduct{base: base{name: name, typ: "InnerProduct"}, cfg: cfg, propagateDown: true}, nil
}

// SetPropagateDown implements the optional propagation control.
func (l *InnerProduct) SetPropagateDown(flags []bool) {
	if len(flags) > 0 {
		l.propagateDown = flags[0]
	}
}

// SetUp implements Layer.
func (l *InnerProduct) SetUp(bottom, top []*blob.Blob) error {
	if err := checkBottomTop(l, bottom, top, 1, 1); err != nil {
		return err
	}
	if bottom[0].AxisCount() < 2 {
		return fmt.Errorf("layer %s: inner product needs at least 2 axes, got %v", l.name, bottom[0].Shape())
	}
	k := bottom[0].CountFrom(1)
	w := blob.Named(l.name+"_w", l.cfg.NumOutput, k)
	l.cfg.WeightFiller.Fill(w, l.cfg.RNG)
	l.params = []*blob.Blob{w}
	if !l.cfg.NoBias {
		b := blob.Named(l.name+"_b", l.cfg.NumOutput)
		l.cfg.BiasFiller.Fill(b, l.cfg.RNG)
		l.params = append(l.params, b)
	}
	l.Reshape(bottom, top)
	return nil
}

// Reshape implements Layer.
func (l *InnerProduct) Reshape(bottom, top []*blob.Blob) {
	l.num = bottom[0].Dim(0)
	l.k = bottom[0].CountFrom(1)
	if l.k != l.params[0].Dim(1) {
		panic(fmt.Sprintf("layer %s: input feature count changed from %d to %d", l.name, l.params[0].Dim(1), l.k))
	}
	top[0].Reshape(l.num, l.cfg.NumOutput)
}

// ForwardExtent implements Layer: the coalesced loop is over samples.
func (l *InnerProduct) ForwardExtent() int { return l.num }

// ForwardRange implements Layer: the whole sample band is one GEMM. The
// blocked kernel's band-invariance contract (gemm_blocked.go) keeps the
// coarse engine's forward bit-identical to sequential for every worker
// count even though worker bands cut the batch at arbitrary rows.
func (l *InnerProduct) ForwardRange(lo, hi int, bottom, top []*blob.Blob) {
	l.forward(lo, hi, 0, l.cfg.NumOutput, bottom[0], top[0])
}

// forward computes output features [olo, ohi) of samples [lo, hi): that
// block of Top (S x N) = X W^T, one GEMM rather than a GEMV per sample,
// then the bias.
func (l *InnerProduct) forward(lo, hi, olo, ohi int, bottom, top *blob.Blob) {
	n, y := l.cfg.NumOutput, top.Data()
	gs := blas.GetScratch()
	defer blas.PutScratch(gs)
	blas.GemmWithScratch(gs, blas.NoTrans, blas.Trans, hi-lo, ohi-olo, l.k, 1,
		bottom.Data()[lo*l.k:hi*l.k], l.k, l.params[0].Data()[olo*l.k:], l.k, 0, y[lo*n+olo:], n)
	if !l.cfg.NoBias {
		bias := l.params[1].Data()[olo:ohi]
		for s := lo; s < hi; s++ {
			blas.Axpy(1, bias, y[s*n+olo:s*n+ohi])
		}
	}
}

// BackwardExtent implements Layer.
func (l *InnerProduct) BackwardExtent() int { return l.num }

// BackwardRange implements Layer: paramGrad, then dataGrad when the
// bottom gradient propagates, over samples [lo, hi) and every channel.
//
// dX rows are computed independently, so bottom diffs stay bit-identical
// for any worker count. dW sums the band's samples inside one GEMM (K
// blocking over samples) rather than as per-sample rank-1 updates; with
// the coarse engine's privatized gradients and ordered merge this remains
// bit-deterministic at a fixed worker count, and within float-summation
// tolerance of sequential across worker counts — the same contract the
// ordered reduction already provides.
func (l *InnerProduct) BackwardRange(lo, hi int, bottom, top []*blob.Blob, paramGrads []*blob.Blob) {
	l.paramGrad(lo, hi, 0, l.cfg.NumOutput, bottom[0], top[0], paramGrads)
	if l.propagateDown {
		l.dataGrad(lo, hi, 0, l.k, bottom[0], top[0])
	}
}

// paramGrad accumulates rows [olo, ohi) of dW += dY^T X over samples
// [lo, hi) into paramGrads (one GEMM, the band's samples its K), and the
// matching db entries summed in sample order.
func (l *InnerProduct) paramGrad(lo, hi, olo, ohi int, bottom, top *blob.Blob, paramGrads []*blob.Blob) {
	n, dy := l.cfg.NumOutput, top.Diff()
	gs := blas.GetScratch()
	defer blas.PutScratch(gs)
	blas.GemmWithScratch(gs, blas.Trans, blas.NoTrans, ohi-olo, l.k, hi-lo, 1,
		dy[lo*n+olo:], n, bottom.Data()[lo*l.k:hi*l.k], l.k, 1, paramGrads[0].Diff()[olo*l.k:], l.k)
	if !l.cfg.NoBias {
		bGrad := paramGrads[1].Diff()[olo:ohi]
		for s := lo; s < hi; s++ {
			blas.Axpy(1, dy[s*n+olo:s*n+ohi], bGrad)
		}
	}
}

// dataGrad writes input features [clo, chi) of dX = dY W for samples
// [lo, hi): that block of the product, one GEMM.
func (l *InnerProduct) dataGrad(lo, hi, clo, chi int, bottom, top *blob.Blob) {
	n := l.cfg.NumOutput
	gs := blas.GetScratch()
	defer blas.PutScratch(gs)
	blas.GemmWithScratch(gs, blas.NoTrans, blas.NoTrans, hi-lo, chi-clo, n, 1,
		top.Diff()[lo*n:], n, l.params[0].Data()[clo:], l.k, 0, bottom.Diff()[lo*l.k+clo:], l.k)
}

// ChannelExtents implements ChannelRanger: output features, and input
// features when the bottom gradient propagates.
func (l *InnerProduct) ChannelExtents() (out, in int) {
	if l.propagateDown {
		in = l.k
	}
	return l.cfg.NumOutput, in
}

// ForwardChannels implements ChannelRanger: columns [olo, ohi) of the
// whole-batch forward. The blocked GEMM is band-invariant in N
// (gemm_blocked.go), so the columns are ForwardRange's bits.
func (l *InnerProduct) ForwardChannels(olo, ohi int, bottom, top []*blob.Blob) {
	l.forward(0, l.num, olo, ohi, bottom[0], top[0])
}

// BackwardParamChannels implements ChannelRanger: rows [olo, ohi) of dW
// and db over the whole batch (an M band).
func (l *InnerProduct) BackwardParamChannels(olo, ohi int, bottom, top []*blob.Blob) {
	l.paramGrad(0, l.num, olo, ohi, bottom[0], top[0], l.params)
}

// BackwardDataChannels implements ChannelRanger: columns [clo, chi) of dX
// over the whole batch (an N band).
func (l *InnerProduct) BackwardDataChannels(clo, chi int, bottom, top []*blob.Blob) {
	l.dataGrad(0, l.num, clo, chi, bottom[0], top[0])
}

// ForwardFLOPs implements Coster: one S x K x N GEMM (2 FLOPs per MAC)
// plus the bias adds.
func (l *InnerProduct) ForwardFLOPs() int64 {
	flops := 2 * int64(l.num) * int64(l.k) * int64(l.cfg.NumOutput)
	if !l.cfg.NoBias {
		flops += int64(l.num) * int64(l.cfg.NumOutput)
	}
	return flops
}

// BackwardFLOPs implements Coster: the dW GEMM always runs; the dX GEMM
// only when gradients propagate down; the bias gradient is a column sum.
func (l *InnerProduct) BackwardFLOPs() int64 {
	gemm := 2 * int64(l.num) * int64(l.k) * int64(l.cfg.NumOutput)
	flops := gemm
	if l.propagateDown {
		flops += gemm
	}
	if !l.cfg.NoBias {
		flops += int64(l.num) * int64(l.cfg.NumOutput)
	}
	return flops
}
