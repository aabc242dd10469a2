package prototxt

import (
	"fmt"

	"coarsegrain/internal/data"
	"coarsegrain/internal/layers"
	"coarsegrain/internal/net"
	"coarsegrain/internal/rng"
	"coarsegrain/internal/solver"
)

// BuildOptions controls net construction from a prototxt document.
type BuildOptions struct {
	// Source backs every Data layer (the prototxt's lmdb/leveldb source
	// is replaced by the Go Source abstraction).
	Source layers.Source
	// Seed drives weight initialization.
	Seed uint64
	// BatchOverride, when positive, replaces every Data layer's
	// batch_size.
	BatchOverride int
	// DirectConv builds every Convolution on the paper's direct loop
	// nest instead of the lowered (im2col+GEMM) path. It is the
	// paper-figure ablation zoo.Options.LoweredConv forwards, not a
	// property of a model, so the format has no syntax for it.
	DirectConv bool
}

// BuildNet constructs net layer specs from a parsed prototxt document.
// Both `layer { ... }` (current Caffe) and `layers { ... }` (legacy) field
// names are accepted.
func BuildNet(doc *Message, opt BuildOptions) ([]net.LayerSpec, error) {
	layerMsgs := layerBlocks(doc)
	if len(layerMsgs) == 0 {
		return nil, fmt.Errorf("prototxt: no layer blocks")
	}
	r := rng.New(opt.Seed, 1000)
	var specs []net.LayerSpec
	for i, lv := range layerMsgs {
		if lv.Msg == nil {
			return nil, fmt.Errorf("prototxt: layer %d is not a block", i)
		}
		spec, err := buildLayer(lv.Msg, opt, r.Split(uint64(i)))
		if err != nil {
			return nil, err
		}
		specs = append(specs, spec)
	}
	return specs, nil
}

// ParseNet parses and builds in one step.
func ParseNet(src string, opt BuildOptions) ([]net.LayerSpec, error) {
	doc, err := Parse(src)
	if err != nil {
		return nil, err
	}
	return BuildNet(doc, opt)
}

// layerBlocks lists doc's layers in build order: `layer` blocks, then
// legacy `layers` blocks.
func layerBlocks(doc *Message) []Value {
	return append(doc.All("layer"), doc.All("layers")...)
}

// BatchSize returns the batch_size of doc's first Data layer: the batch
// the net trains at when no BatchOverride replaces it.
func BatchSize(doc *Message) (int, error) {
	for _, lv := range layerBlocks(doc) {
		if lv.Msg == nil {
			continue
		}
		if typ := lv.Msg.String("type", ""); typ == "Data" || typ == "DATA" {
			return dataBatch(lv.Msg)
		}
	}
	return 0, fmt.Errorf("prototxt: no Data layer")
}

// dataBatch reads a Data layer's batch_size (Caffe's default 64 is kept
// for a layer that names none).
func dataBatch(m *Message) (int, error) {
	if dp := m.Msg("data_param"); dp != nil {
		return dp.Int("batch_size", 64)
	}
	return 64, nil
}

func buildLayer(m *Message, opt BuildOptions, r *rng.RNG) (net.LayerSpec, error) {
	name := m.String("name", "")
	typ := m.String("type", "")
	if name == "" || typ == "" {
		return net.LayerSpec{}, fmt.Errorf("prototxt: layer needs name and type (got name=%q type=%q)", name, typ)
	}
	var bottoms, tops []string
	for _, v := range m.All("bottom") {
		bottoms = append(bottoms, v.Scalar)
	}
	for _, v := range m.All("top") {
		tops = append(tops, v.Scalar)
	}
	var l layers.Layer
	var err error
	switch typ {
	case "Data", "DATA":
		if opt.Source == nil {
			return net.LayerSpec{}, fmt.Errorf("prototxt: layer %s: no data source provided", name)
		}
		var batch int
		if batch, err = dataBatch(m); err != nil {
			return net.LayerSpec{}, err
		}
		if opt.BatchOverride > 0 {
			batch = opt.BatchOverride
		}
		src := opt.Source
		if tp := m.Msg("transform_param"); tp != nil {
			tr := data.Transform{Train: true, Seed: opt.Seed}
			scale, err := tp.Float("scale", 0)
			if err != nil {
				return net.LayerSpec{}, err
			}
			tr.Scale = float32(scale)
			if tr.Crop, err = tp.Int("crop_size", 0); err != nil {
				return net.LayerSpec{}, err
			}
			if mv, ok := tp.Get("mirror"); ok {
				if tr.Mirror, err = mv.Bool(); err != nil {
					return net.LayerSpec{}, err
				}
			}
			for _, v := range tp.All("mean_value") {
				f, err := v.Float()
				if err != nil {
					return net.LayerSpec{}, err
				}
				tr.MeanValue = append(tr.MeanValue, float32(f))
			}
			if src, err = data.NewTransformed(src, tr); err != nil {
				return net.LayerSpec{}, fmt.Errorf("prototxt: layer %s: %w", name, err)
			}
		}
		l, err = layers.NewData(name, src, batch)
	case "Convolution", "CONVOLUTION":
		var cfg layers.ConvConfig
		if cfg, err = convConfig(m, opt, r); err == nil {
			l, err = layers.NewConvolution(name, cfg)
		}
	case "Deconvolution", "DECONVOLUTION":
		var cfg layers.ConvConfig
		if cfg, err = convConfig(m, opt, r); err == nil {
			cfg.Lowered = false // Deconvolution has no kernel choice
			l, err = layers.NewDeconvolution(name, cfg)
		}
	case "Pooling", "POOLING":
		cfg := layers.PoolConfig{}
		if pp := m.Msg("pooling_param"); pp != nil {
			switch pp.String("pool", "MAX") {
			case "MAX":
				cfg.Method = layers.MaxPool
			case "AVE":
				cfg.Method = layers.AvePool
			default:
				return net.LayerSpec{}, fmt.Errorf("prototxt: layer %s: unsupported pool %q", name, pp.String("pool", ""))
			}
			if err = readWindow(pp, [9]*int{&cfg.Kernel, &cfg.KernelH, &cfg.KernelW,
				&cfg.Pad, &cfg.PadH, &cfg.PadW, &cfg.Stride, &cfg.StrideH, &cfg.StrideW}); err != nil {
				return net.LayerSpec{}, err
			}
		}
		l, err = layers.NewPooling(name, cfg)
	case "InnerProduct", "INNER_PRODUCT":
		cfg := layers.IPConfig{RNG: r}
		if ip := m.Msg("inner_product_param"); ip != nil {
			if cfg.NumOutput, err = ip.Int("num_output", 0); err != nil {
				return net.LayerSpec{}, err
			}
			if cfg.WeightFiller, err = fillerFrom(ip.Msg("weight_filler")); err != nil {
				return net.LayerSpec{}, err
			}
			if cfg.BiasFiller, err = fillerFrom(ip.Msg("bias_filler")); err != nil {
				return net.LayerSpec{}, err
			}
			if cfg.NoBias, err = noBias(ip); err != nil {
				return net.LayerSpec{}, err
			}
		}
		l, err = layers.NewInnerProduct(name, cfg)
	case "ReLU", "RELU":
		slope := 0.0
		if rp := m.Msg("relu_param"); rp != nil {
			if slope, err = rp.Float("negative_slope", 0); err != nil {
				return net.LayerSpec{}, err
			}
		}
		l = layers.NewReLU(name, float32(slope))
	case "Sigmoid", "SIGMOID":
		l = layers.NewSigmoid(name)
	case "TanH", "TANH":
		l = layers.NewTanH(name)
	case "LRN":
		cfg := layers.LRNConfig{}
		if lp := m.Msg("lrn_param"); lp != nil {
			if cfg.LocalSize, err = lp.Int("local_size", 0); err != nil {
				return net.LayerSpec{}, err
			}
			a, err := lp.Float("alpha", 0)
			if err != nil {
				return net.LayerSpec{}, err
			}
			b, err := lp.Float("beta", 0)
			if err != nil {
				return net.LayerSpec{}, err
			}
			k, err := lp.Float("k", 0)
			if err != nil {
				return net.LayerSpec{}, err
			}
			cfg.Alpha, cfg.Beta, cfg.K = float32(a), float32(b), float32(k)
		}
		l, err = layers.NewLRN(name, cfg)
	case "Dropout", "DROPOUT":
		ratio := 0.5
		if dp := m.Msg("dropout_param"); dp != nil {
			if ratio, err = dp.Float("dropout_ratio", 0.5); err != nil {
				return net.LayerSpec{}, err
			}
		}
		l, err = layers.NewDropout(name, float32(ratio), r)
	case "Eltwise", "ELTWISE":
		op := layers.EltwiseSum
		var coeffs []float32
		if ep := m.Msg("eltwise_param"); ep != nil {
			switch ep.String("operation", "SUM") {
			case "SUM":
				op = layers.EltwiseSum
			case "PROD":
				op = layers.EltwiseProd
			case "MAX":
				op = layers.EltwiseMax
			default:
				return net.LayerSpec{}, fmt.Errorf("prototxt: layer %s: unsupported eltwise operation %q", name, ep.String("operation", ""))
			}
			for _, c := range ep.All("coeff") {
				v, err := c.Float()
				if err != nil {
					return net.LayerSpec{}, err
				}
				coeffs = append(coeffs, float32(v))
			}
		}
		l = layers.NewEltwise(name, op, coeffs)
	case "Concat", "CONCAT":
		l = layers.NewConcat(name)
	case "Split", "SPLIT":
		l = layers.NewSplit(name)
	case "BatchNorm", "BATCHNORM":
		cfg := layers.BNConfig{}
		if bp := m.Msg("batch_norm_param"); bp != nil {
			e, err := bp.Float("eps", 0)
			if err != nil {
				return net.LayerSpec{}, err
			}
			mo, err := bp.Float("moving_average_fraction", 0)
			if err != nil {
				return net.LayerSpec{}, err
			}
			cfg.Eps, cfg.Momentum = float32(e), float32(mo)
		}
		l, err = layers.NewBatchNorm(name, cfg)
	case "Flatten", "FLATTEN":
		l = layers.NewFlatten(name)
	case "Softmax", "SOFTMAX":
		l = layers.NewSoftmax(name)
	case "SoftmaxWithLoss", "SOFTMAX_LOSS":
		l = layers.NewSoftmaxWithLoss(name)
	case "EuclideanLoss", "EUCLIDEAN_LOSS":
		l = layers.NewEuclideanLoss(name)
	case "Accuracy", "ACCURACY":
		topK := 1
		if ap := m.Msg("accuracy_param"); ap != nil {
			if topK, err = ap.Int("top_k", 1); err != nil {
				return net.LayerSpec{}, err
			}
		}
		l = layers.NewAccuracy(name, topK)
	default:
		return net.LayerSpec{}, fmt.Errorf("prototxt: layer %s: unsupported type %q", name, typ)
	}
	if err != nil {
		return net.LayerSpec{}, err
	}
	return net.LayerSpec{Layer: l, Bottoms: bottoms, Tops: tops}, nil
}

// convConfig reads a layer's convolution_param, the one block Caffe's
// Convolution and Deconvolution layers share. An integer field left out is
// 0, which ConvConfig reads as "not set".
func convConfig(m *Message, opt BuildOptions, r *rng.RNG) (layers.ConvConfig, error) {
	cfg := layers.ConvConfig{RNG: r, Lowered: !opt.DirectConv}
	cp := m.Msg("convolution_param")
	if cp == nil {
		return cfg, nil
	}
	var err error
	if cfg.NumOutput, err = cp.Int("num_output", 0); err != nil {
		return cfg, err
	}
	if err = readWindow(cp, [9]*int{&cfg.Kernel, &cfg.KernelH, &cfg.KernelW,
		&cfg.Pad, &cfg.PadH, &cfg.PadW, &cfg.Stride, &cfg.StrideH, &cfg.StrideW}); err != nil {
		return cfg, err
	}
	if cfg.WeightFiller, err = fillerFrom(cp.Msg("weight_filler")); err != nil {
		return cfg, err
	}
	if cfg.BiasFiller, err = fillerFrom(cp.Msg("bias_filler")); err != nil {
		return cfg, err
	}
	cfg.NoBias, err = noBias(cp)
	return cfg, err
}

// windowKeys are the window fields Caffe's convolution_param and
// pooling_param share: kernel, pad and stride, each a square size and its
// per-axis overrides.
var windowKeys = [9]string{"kernel_size", "kernel_h", "kernel_w", "pad", "pad_h", "pad_w", "stride", "stride_h", "stride_w"}

// readWindow reads p's window fields into dst, the config fields of the
// same meaning in windowKeys order. A field left out is 0, which
// ConvConfig and PoolConfig read as "not set".
func readWindow(p *Message, dst [9]*int) error {
	for i, key := range windowKeys {
		var err error
		if *dst[i], err = p.Int(key, 0); err != nil {
			return err
		}
	}
	return nil
}

// noBias reads a parameter block's bias_term, which Caffe defaults to
// true.
func noBias(m *Message) (bool, error) {
	bt, ok := m.Get("bias_term")
	if !ok {
		return false, nil
	}
	b, err := bt.Bool()
	return !b, err
}

func fillerFrom(m *Message) (layers.Filler, error) {
	if m == nil {
		return nil, nil
	}
	val, err := m.Float("value", 0)
	if err != nil {
		return nil, err
	}
	std, err := m.Float("std", 0)
	if err != nil {
		return nil, err
	}
	typ := m.String("type", "constant")
	switch typ {
	case "gaussian":
		return layers.GaussianFiller{Std: float32(std)}, nil
	default:
		return layers.FillerByName(typ, float32(val))
	}
}

// BuildSolver extracts a solver configuration from a parsed solver
// prototxt document. Absent numeric fields stay 0, which solver.New reads
// as Caffe's default.
func BuildSolver(doc *Message) (solver.Config, error) {
	cfg := solver.Config{
		Type:     solver.Type(doc.String("type", string(solver.SGD))),
		LRPolicy: doc.String("lr_policy", "fixed"),
	}
	var err error
	if cfg.StepSize, err = doc.Int("stepsize", 0); err != nil {
		return cfg, err
	}
	for _, fld := range []struct {
		name string
		dst  *float32
	}{
		{"base_lr", &cfg.BaseLR}, {"momentum", &cfg.Momentum}, {"weight_decay", &cfg.WeightDecay},
		{"gamma", &cfg.Gamma}, {"power", &cfg.Power}, {"delta", &cfg.Delta},
		{"momentum2", &cfg.Momentum2}, {"rms_decay", &cfg.RMSDecay},
	} {
		v, err := doc.Float(fld.name, 0)
		if err != nil {
			return cfg, err
		}
		*fld.dst = float32(v)
	}
	return cfg, nil
}

// ParseSolver parses and builds a solver config in one step.
func ParseSolver(src string) (solver.Config, error) {
	doc, err := Parse(src)
	if err != nil {
		return solver.Config{}, err
	}
	return BuildSolver(doc)
}
