package tensor

// Im2Col lowers a batched image tensor to the matrix used by GEMM-based
// convolution. Input x has shape [N, C, H, W]; the result has shape
// [N*outH*outW, C*kh*kw] where each row is the receptive field of one
// output position. With the kernel flattened to [C*kh*kw, outC] the
// convolution is a single matrix multiply — the same lowering cuDNN and
// PyTorch's unfold use, and the reason K-FAC's A factor for a Conv2D layer
// has dimension C*kh*kw (+1 with bias): each im2col row is one "activation"
// sample.
func Im2Col(x *Tensor, kh, kw, stride, pad int) *Tensor {
	n, c, h, w := x.Shape[0], x.Shape[1], x.Shape[2], x.Shape[3]
	outH := (h+2*pad-kh)/stride + 1
	outW := (w+2*pad-kw)/stride + 1
	cols := New(n*outH*outW, c*kh*kw)
	Im2ColInto(cols, x, kh, kw, stride, pad)
	return cols
}

// Im2ColInto is Im2Col writing into a caller-provided destination of shape
// [N*outH*outW, C*kh*kw]. The destination is fully overwritten (padding
// positions are zeroed explicitly), so reused workspace buffers are safe.
// The lowering only moves data, so it stays in the operands' element type.
func Im2ColInto[E Elem](dst, src *Dense[E], kh, kw, stride, pad int) {
	cols, x := dst.Data, src.Data
	n, c, h, w, outH, outW := loweringDims(src.Shape, dst.Shape, kh, kw, stride, pad)
	clear(cols)
	colW := c * kh * kw
	for img := 0; img < n; img++ {
		base := img * c * h * w
		for oy := 0; oy < outH; oy++ {
			iy0 := oy*stride - pad
			for ox := 0; ox < outW; ox++ {
				ix0 := ox*stride - pad
				row := cols[((img*outH+oy)*outW+ox)*colW:]
				idx := 0
				for ch := 0; ch < c; ch++ {
					chBase := base + ch*h*w
					for ky := 0; ky < kh; ky++ {
						iy := iy0 + ky
						if iy < 0 || iy >= h {
							// Entire kernel row is padding: leave zeros.
							idx += kw
							continue
						}
						rowBase := chBase + iy*w
						for kx := 0; kx < kw; kx++ {
							ix := ix0 + kx
							if ix >= 0 && ix < w {
								row[idx] = x[rowBase+ix]
							}
							idx++
						}
					}
				}
			}
		}
	}
}

// loweringDims returns the image extents [N, C, H, W] of xShape and the
// output extents of the window, and panics unless colsShape is the matching
// [N*outH*outW, C*kh*kw].
func loweringDims(xShape, colsShape []int, kh, kw, stride, pad int) (n, c, h, w, outH, outW int) {
	n, c, h, w = xShape[0], xShape[1], xShape[2], xShape[3]
	outH = ConvOutSize(h, kh, stride, pad)
	outW = ConvOutSize(w, kw, stride, pad)
	if colsShape[0] != n*outH*outW || colsShape[1] != c*kh*kw {
		panic("tensor: im2col/col2im column matrix shape mismatch")
	}
	return
}

// Col2Im scatters the column matrix back into image space, accumulating
// overlapping contributions. It is the adjoint of Im2Col and is used for the
// input-gradient of convolution. cols has shape [N*outH*outW, C*kh*kw]; the
// result has shape [N, C, H, W].
func Col2Im(cols *Tensor, n, c, h, w, kh, kw, stride, pad int) *Tensor {
	x := New(n, c, h, w)
	Col2ImInto(x, cols, kh, kw, stride, pad)
	return x
}

// Col2ImInto is Col2Im accumulating into a caller-provided [N, C, H, W]
// destination, which it zeroes first. It accumulates in the destination's
// element type whatever the columns': overlapping receptive fields sum many
// contributions per pixel, so a float32 column matrix scatters into a
// float64 image and hands the upstream layer an ordinary float64 gradient.
func Col2ImInto[D, S Elem](dst *Dense[D], src *Dense[S], kh, kw, stride, pad int) {
	x, cols := dst.Data, src.Data
	n, c, h, w, outH, outW := loweringDims(dst.Shape, src.Shape, kh, kw, stride, pad)
	clear(x)
	colW := c * kh * kw
	for img := 0; img < n; img++ {
		base := img * c * h * w
		for oy := 0; oy < outH; oy++ {
			iy0 := oy*stride - pad
			for ox := 0; ox < outW; ox++ {
				ix0 := ox*stride - pad
				row := cols[((img*outH+oy)*outW+ox)*colW:]
				idx := 0
				for ch := 0; ch < c; ch++ {
					chBase := base + ch*h*w
					for ky := 0; ky < kh; ky++ {
						iy := iy0 + ky
						if iy < 0 || iy >= h {
							idx += kw
							continue
						}
						rowBase := chBase + iy*w
						for kx := 0; kx < kw; kx++ {
							ix := ix0 + kx
							if ix >= 0 && ix < w {
								x[rowBase+ix] += D(row[idx])
							}
							idx++
						}
					}
				}
			}
		}
	}
}

// ConvOutSize returns the spatial output size of a convolution or pooling
// window of size k with the given stride and padding applied to extent in.
func ConvOutSize(in, k, stride, pad int) int {
	return (in+2*pad-k)/stride + 1
}
