package layers

import (
	"fmt"
	"math"

	"coarsegrain/internal/blob"
)

// BatchNorm normalizes each channel over the mini-batch (Ioffe & Szegedy,
// 2015) with learnable scale and shift:
//
//	y = gamma * (x − mean_c) / sqrt(var_c + eps) + beta
//
// BatchNorm is the stress case for batch-level parallelism that the paper
// only brushes against in §3.1.3: unlike every LeNet/CIFAR layer, its
// transformation couples ALL samples of the batch through the channel
// statistics. The layer maps this onto the engine contract with the
// backward/forward hooks:
//
//   - ForwardPrepare (serial, deterministic): batch mean/variance per
//     channel, moving-average update;
//   - ForwardRange (parallel over (sample, channel) planes): normalize;
//   - BackwardPrepare (serial): the two whole-batch reductions Σdy and
//     Σdy·x̂ per channel that the input gradient needs;
//   - BackwardRange (parallel): per-plane dx from those sums, plus
//     dgamma/dbeta accumulation into the (privatized) parameter grads.
//
// The serial statistics passes are a genuine scaling limit — exactly the
// kind of term the simtime model charges as sequential work.
type BatchNorm struct {
	base
	eps      float32
	momentum float32 // moving-average factor (fraction of OLD value kept)

	num, channels, spatial int

	// Learnable parameters: gamma (scale), beta (shift).
	// Internal state (not learnable): moving mean/variance for test mode.
	movingMean, movingVar *blob.Blob

	// Per-forward cached statistics for the backward pass.
	mean, invStd []float32
	// Per-backward cached reductions.
	sumDy, sumDyXhat []float32

	train bool
}

// BNConfig configures a BatchNorm layer.
type BNConfig struct {
	// Eps stabilizes the variance (default 1e-5).
	Eps float32
	// Momentum is the moving-average retention factor (default 0.9).
	Momentum float32
}

// NewBatchNorm creates a batch normalization layer.
func NewBatchNorm(name string, cfg BNConfig) (*BatchNorm, error) {
	if cfg.Eps == 0 {
		cfg.Eps = 1e-5
	}
	if cfg.Momentum == 0 {
		cfg.Momentum = 0.9
	}
	if cfg.Eps < 0 || cfg.Momentum < 0 || cfg.Momentum >= 1 {
		return nil, fmt.Errorf("layer %s: bad batchnorm config %+v", name, cfg)
	}
	return &BatchNorm{
		base:       base{name: name, typ: "BatchNorm"},
		eps:        cfg.Eps,
		momentum:   cfg.Momentum,
		movingMean: blob.New(),
		movingVar:  blob.New(),
		train:      true,
	}, nil
}

// SetTrain toggles batch statistics (train) vs moving averages (test).
func (l *BatchNorm) SetTrain(train bool) { l.train = train }

// StateBlobs exposes the non-learnable state (moving mean and variance)
// for snapshotting.
func (l *BatchNorm) StateBlobs() []*blob.Blob {
	return []*blob.Blob{l.movingMean, l.movingVar}
}

// SetUp implements Layer.
func (l *BatchNorm) SetUp(bottom, top []*blob.Blob) error {
	if err := checkBottomTop(l, bottom, top, 1, 1); err != nil {
		return err
	}
	if bottom[0].AxisCount() < 2 {
		return fmt.Errorf("layer %s: batchnorm needs >= 2 axes, got %v", l.name, bottom[0].Shape())
	}
	c := bottom[0].Dim(1)
	gamma := blob.Named(l.name+"_gamma", c)
	for i := range gamma.Data() {
		gamma.Data()[i] = 1
	}
	beta := blob.Named(l.name+"_beta", c)
	l.params = []*blob.Blob{gamma, beta}
	l.movingMean.Reshape(c)
	l.movingVar.Reshape(c)
	for i := range l.movingVar.Data() {
		l.movingVar.Data()[i] = 1
	}
	l.Reshape(bottom, top)
	return nil
}

// Reshape implements Layer.
func (l *BatchNorm) Reshape(bottom, top []*blob.Blob) {
	b := bottom[0]
	l.num = b.Dim(0)
	l.channels = b.Dim(1)
	l.spatial = b.CountFrom(2)
	top[0].ReshapeLike(b)
	for _, buf := range []*[]float32{&l.mean, &l.invStd, &l.sumDy, &l.sumDyXhat} {
		if cap(*buf) < l.channels {
			*buf = make([]float32, l.channels)
		}
		*buf = (*buf)[:l.channels]
	}
}

// planeBase returns the flat offset of (s, c) plane data.
func (l *BatchNorm) planeBase(s, c int) int { return (s*l.channels + c) * l.spatial }

// ForwardPrepare implements ForwardPreparer: the serial statistics pass.
func (l *BatchNorm) ForwardPrepare(bottom, top []*blob.Blob) {
	if !l.train {
		for c := 0; c < l.channels; c++ {
			l.mean[c] = l.movingMean.Data()[c]
			l.invStd[c] = 1 / float32(math.Sqrt(float64(l.movingVar.Data()[c]+l.eps)))
		}
		return
	}
	in := bottom[0].Data()
	m := float64(l.num * l.spatial)
	for c := 0; c < l.channels; c++ {
		var sum, sumSq float64
		for s := 0; s < l.num; s++ {
			base := l.planeBase(s, c)
			for i := base; i < base+l.spatial; i++ {
				v := float64(in[i])
				sum += v
				sumSq += v * v
			}
		}
		mean := sum / m
		variance := sumSq/m - mean*mean
		if variance < 0 {
			variance = 0
		}
		l.mean[c] = float32(mean)
		l.invStd[c] = float32(1 / math.Sqrt(variance+float64(l.eps)))
		l.movingMean.Data()[c] = l.momentum*l.movingMean.Data()[c] + (1-l.momentum)*float32(mean)
		l.movingVar.Data()[c] = l.momentum*l.movingVar.Data()[c] + (1-l.momentum)*float32(variance)
	}
}

// ForwardExtent implements Layer: (sample, channel) planes.
func (l *BatchNorm) ForwardExtent() int { return l.num * l.channels }

// ForwardRange implements Layer.
func (l *BatchNorm) ForwardRange(lo, hi int, bottom, top []*blob.Blob) {
	in := bottom[0].Data()
	out := top[0].Data()
	gamma := l.params[0].Data()
	beta := l.params[1].Data()
	for plane := lo; plane < hi; plane++ {
		c := plane % l.channels
		scale := gamma[c] * l.invStd[c]
		shift := beta[c] - scale*l.mean[c]
		base := plane * l.spatial
		for i := base; i < base+l.spatial; i++ {
			out[i] = scale*in[i] + shift
		}
	}
}

// BackwardPrepare implements BackwardPreparer: the serial whole-batch
// reductions Σdy and Σdy·x̂ per channel.
func (l *BatchNorm) BackwardPrepare(bottom, top []*blob.Blob) {
	in := bottom[0].Data()
	dy := top[0].Diff()
	for c := 0; c < l.channels; c++ {
		var sDy, sDyX float64
		for s := 0; s < l.num; s++ {
			base := l.planeBase(s, c)
			for i := base; i < base+l.spatial; i++ {
				xhat := (in[i] - l.mean[c]) * l.invStd[c]
				sDy += float64(dy[i])
				sDyX += float64(dy[i]) * float64(xhat)
			}
		}
		l.sumDy[c] = float32(sDy)
		l.sumDyXhat[c] = float32(sDyX)
	}
}

// BackwardExtent implements Layer.
func (l *BatchNorm) BackwardExtent() int { return l.num * l.channels }

// BackwardRange implements Layer:
//
//	dx = (gamma·invStd/m) · (m·dy − Σdy − x̂·Σ(dy·x̂))   (train)
//	dx = gamma·invStd·dy                                 (test)
//	dgamma += Σ_plane dy·x̂ ; dbeta += Σ_plane dy
func (l *BatchNorm) BackwardRange(lo, hi int, bottom, top []*blob.Blob, paramGrads []*blob.Blob) {
	in := bottom[0].Data()
	dx := bottom[0].Diff()
	dy := top[0].Diff()
	gamma := l.params[0].Data()
	gGrad := paramGrads[0].Diff()
	bGrad := paramGrads[1].Diff()
	m := float32(l.num * l.spatial)
	down := l.propagates(0)
	for plane := lo; plane < hi; plane++ {
		c := plane % l.channels
		base := plane * l.spatial
		var pDy, pDyX float32
		for i := base; i < base+l.spatial; i++ {
			xhat := (in[i] - l.mean[c]) * l.invStd[c]
			pDy += dy[i]
			pDyX += dy[i] * xhat
			if down {
				if l.train {
					dx[i] = gamma[c] * l.invStd[c] / m * (m*dy[i] - l.sumDy[c] - xhat*l.sumDyXhat[c])
				} else {
					dx[i] = gamma[c] * l.invStd[c] * dy[i]
				}
			}
		}
		gGrad[c] += pDyX
		bGrad[c] += pDy
	}
}
