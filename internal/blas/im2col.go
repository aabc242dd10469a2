package blas

// Im2col lowers a (channels, height, width) image into a column matrix so
// that a convolution becomes a single Gemm, the standard lowering used by
// Caffe's convolutional layers.
//
// The output col has shape
//
//	(channels*kernelH*kernelW) x (outH*outW)
//
// stored row-major, where outH = (height + 2*padH - kernelH)/strideH + 1 and
// similarly for outW. Elements read from the padding region are zero.
//
// No layer calls this: every convolution-shaped product (Convolution under
// every engine, Deconvolution) is one of conv.go's three, which read the
// lowered matrix out of the image with the same row walker and never
// write it. Im2col and Col2im remain as the oracle those products are
// differentially tested against and as the lowering the benchmark
// module's kernel probes time.
func Im2col(im []float32, channels, height, width, kernelH, kernelW, padH, padW, strideH, strideW int, col []float32) {
	g := ConvGeom{channels, height, width, kernelH, kernelW, padH, padW, strideH, strideW}
	outW, ohw := g.OutW(), g.Cols()
	r := g.cursor(0)
	for row, rows := 0, g.Rows(); row < rows; row++ {
		g.lower(col[row*ohw:(row+1)*ohw], 1, im, r, 0, 0, outW, ohw)
		g.next(&r)
	}
}

// Col2im is the adjoint of Im2col: it scatters (accumulating) the column
// matrix back into an image. Used by the convolution backward pass to
// build the gradient with respect to the layer input.
//
// The destination image is NOT zeroed first; callers accumulate into a
// zeroed (or privatized) buffer.
//
// Like ConvGeom.lower, it clips runs against the image instead of
// bounds-testing every entry; at stride 1 a run is a straight accumulate
// over contiguous pixels.
func Col2im(col []float32, channels, height, width, kernelH, kernelW, padH, padW, strideH, strideW int, im []float32) {
	g := ConvGeom{channels, height, width, kernelH, kernelW, padH, padW, strideH, strideW}
	g.scatter(col, g.cursor(0), g.Rows(), im)
}

// scatter adds rows consecutive rows of a lowered matrix, the first of
// them row r and at col[0], into the image: Col2im's loop, which
// ConvBackwardData runs a strip of rows at a time. A lowered row is outH
// runs, one per output row, each clipped against the image the same way;
// at stride 1 the runs of the output rows that land inside the image go to
// addRuns in one call.
func (g *ConvGeom) scatter(col []float32, r rowCursor, rows int, im []float32) {
	outH, outW := g.OutH(), g.OutW()
	for ; rows > 0; rows-- {
		chIm := im[r.c*g.Height*g.Width : (r.c+1)*g.Height*g.Width]
		iw := r.kw - g.PadW
		lo, hi := clipRun(iw, g.StrideW, g.Width, outW)               // output columns that land inside the image
		ohLo, ohHi := clipRun(r.kh-g.PadH, g.StrideH, g.Height, outH) // output rows that do
		if lo < hi && ohLo < ohHi {
			src := col[ohLo*outW+lo:]
			dst := chIm[(ohLo*g.StrideH-g.PadH+r.kh)*g.Width+iw+lo*g.StrideW:]
			if g.StrideW == 1 {
				addRuns(dst, src, ohHi-ohLo, hi-lo, g.StrideH*g.Width, outW)
			} else {
				for ; ohLo < ohHi; ohLo++ {
					for t, v := range src[:hi-lo] {
						dst[t*g.StrideW] += v
					}
					if ohLo+1 < ohHi {
						src, dst = src[outW:], dst[g.StrideH*g.Width:]
					}
				}
			}
		}
		col = col[outH*outW:]
		g.next(&r)
	}
}

// addRuns adds runs runs of n floats into dst: dst[k*ds+i] += src[k*ss+i].
// The AVX2 build swaps in a vector loop (gemm_amd64.go); a plain float
// add, lane by lane, so the sums are the same bits either way.
var addRuns = addRunsGo

func addRunsGo(dst, src []float32, runs, n, ds, ss int) {
	for k := 0; k < runs; k++ {
		d, s := dst[k*ds:k*ds+n], src[k*ss:k*ss+n]
		for i, v := range s {
			d[i] += v
		}
	}
}

// ConvOutSize returns the output spatial extent of a convolution/pooling
// window sweep: (in + 2*pad - kernel)/stride + 1.
func ConvOutSize(in, kernel, pad, stride int) int {
	return (in+2*pad-kernel)/stride + 1
}

// PoolOutSize returns the output extent of a Caffe pooling sweep, which
// uses ceil division and then clips windows that start beyond the padded
// input (Caffe PoolingLayer::Reshape semantics).
func PoolOutSize(in, kernel, pad, stride int) int {
	out := (in+2*pad-kernel+stride-1)/stride + 1
	if pad > 0 {
		// The last pooling window must start strictly inside the padded input.
		if (out-1)*stride >= in+pad {
			out--
		}
	}
	return out
}
