package blas

// Im2col lowers a (channels, height, width) image into a column matrix so
// that a convolution becomes a single Gemm, the standard lowering used by
// Caffe's convolutional layers (and the basis of the cuDNN-analogue
// "FineTuned" engine in this repository).
//
// The output col has shape
//
//	(channels*kernelH*kernelW) x (outH*outW)
//
// stored row-major, where outH = (height + 2*padH - kernelH)/strideH + 1 and
// similarly for outW. Elements read from the padding region are zero.
//
// The lowered convolution layer no longer calls this — it packs GEMM
// panels straight from the image (conv.go) with the same row walker — so
// Im2col remains as the Tuned engine's lowering and as the oracle the
// implicit GEMM is differentially tested against.
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
// Like ConvGeom.lower, it clips each output row's run against the image
// once instead of bounds-testing every entry; at stride 1 the run is a
// straight accumulate over contiguous pixels.
func Col2im(col []float32, channels, height, width, kernelH, kernelW, padH, padW, strideH, strideW int, im []float32) {
	outH := ConvOutSize(height, kernelH, padH, strideH)
	outW := ConvOutSize(width, kernelW, padW, strideW)
	idx := 0
	for c := 0; c < channels; c++ {
		chIm := im[c*height*width : (c+1)*height*width]
		for kh := 0; kh < kernelH; kh++ {
			for kw := 0; kw < kernelW; kw++ {
				iw := kw - padW
				lo, hi := clipRun(iw, strideW, width, outW) // output columns that land inside the image
				for oh := 0; oh < outH; oh++ {
					ih := oh*strideH - padH + kh
					if ih >= 0 && ih < height && lo < hi {
						src := col[idx+lo : idx+hi]
						dst := chIm[ih*width+iw+lo*strideW:]
						if strideW == 1 {
							dst = dst[:len(src)]
							for t, v := range src {
								dst[t] += v
							}
						} else {
							for t, v := range src {
								dst[t*strideW] += v
							}
						}
					}
					idx += outW
				}
			}
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
