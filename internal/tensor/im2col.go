package tensor

// Convolution lowering. Activations are channels-last — an image batch is
// [N, H, W, C], which read as a matrix is [N·H·W, C] — so the receptive
// field of one output position is kh runs of kw·C contiguous values, and
// lowering a batch to the patch matrix of GEMM-based convolution is a copy
// of clipped runs (UnfoldInto); its adjoint adds the runs back (FoldInto).
// With the kernel flattened to [outC, kh·kw·C] the convolution is one matrix
// multiply whose product is already the next layer's [N·outH·outW, outC]
// activation — the same lowering cuDNN and PyTorch's unfold use, and the
// reason K-FAC's A factor for a Conv2D layer has dimension kh·kw·C (+1 with
// bias): each patch row is one "activation" sample.

// UnfoldInto lowers the channels-last image batch src [N, H, W, C] into the
// patch matrix dst [N·outH·outW, kh·kw·C]: row (n, oy, ox) is the receptive
// field of that output position, its columns ordered (ky, kx, c). dst is
// fully overwritten — the parts of a run that fall in the padding are
// cleared as the run is written — so reused workspace buffers are safe. The
// lowering only moves data, so it stays in the operands' element type.
func UnfoldInto[E Elem](dst, src *Dense[E], kh, kw, stride, pad int) {
	n, h, w, c := src.Shape[0], src.Shape[1], src.Shape[2], src.Shape[3]
	outH, outW := windowDims(n, c, h, w, dst.Shape, kh, kw, stride, pad)
	x, row, run := src.Data, dst.Data, kw*c
	for img := 0; img < n; img++ {
		for oy := 0; oy < outH; oy++ {
			iy0 := oy*stride - pad
			for ox := 0; ox < outW; ox++ {
				ix0 := ox*stride - pad
				lo, hi := clipRun(ix0, kw, w, c)
				for ky := 0; ky < kh; ky++ {
					seg := row[ky*run : (ky+1)*run]
					iy := iy0 + ky
					if iy < 0 || iy >= h || lo == hi {
						clear(seg)
						continue
					}
					clear(seg[:lo])
					copy(seg[lo:hi], x[((img*h+iy)*w+ix0)*c+lo:])
					clear(seg[hi:])
				}
				row = row[kh*run:]
			}
		}
	}
}

// FoldInto is the adjoint of UnfoldInto: it zeroes the [N, H, W, C] image
// batch dst and adds every run of the patch matrix src back onto the pixels
// it was copied from, in row order — the input gradient of a convolution. It
// accumulates in the destination's element type whatever the columns':
// overlapping receptive fields sum many contributions per pixel, so a
// float32 patch matrix folds into a float64 image and hands the upstream
// layer an ordinary float64 gradient.
func FoldInto[D, S Elem](dst *Dense[D], src *Dense[S], kh, kw, stride, pad int) {
	n, h, w, c := dst.Shape[0], dst.Shape[1], dst.Shape[2], dst.Shape[3]
	outH, outW := windowDims(n, c, h, w, src.Shape, kh, kw, stride, pad)
	x, row, run := dst.Data, src.Data, kw*c
	clear(x)
	for img := 0; img < n; img++ {
		for oy := 0; oy < outH; oy++ {
			iy0 := oy*stride - pad
			for ox := 0; ox < outW; ox++ {
				ix0 := ox*stride - pad
				lo, hi := clipRun(ix0, kw, w, c)
				for ky := 0; ky < kh; ky++ {
					iy := iy0 + ky
					if iy < 0 || iy >= h || lo == hi {
						continue
					}
					seg := row[ky*run+lo : ky*run+hi]
					px := x[((img*h+iy)*w+ix0)*c+lo:][:len(seg)]
					for i, v := range seg {
						px[i] += D(v)
					}
				}
				row = row[kh*run:]
			}
		}
	}
}

// clipRun returns the part [lo, hi) of a kw·c-value run starting at pixel
// column ix0 that lies inside an image row of w pixels.
func clipRun(ix0, kw, w, c int) (lo, hi int) {
	lo = min(max(-ix0, 0), kw)
	hi = max(min(w-ix0, kw), lo)
	return lo * c, hi * c
}

// Im2ColInto is the channels-first lowering: src is [N, C, H, W], dst is
// [N·outH·outW, C·kh·kw] with columns ordered (c, ky, kx), fully
// overwritten. No layer calls it. It stays as the kernel the repository
// benchmark replays (benchmark/replay.go, `tensor.im2col_ms_per_call`) and
// as the oracle the tests hold UnfoldInto to under the column permutation;
// it goes when the benchmark is next re-recorded (ROADMAP item 1).
func Im2ColInto[E Elem](dst, src *Dense[E], kh, kw, stride, pad int) {
	cols, x := dst.Data, src.Data
	n, c, h, w := src.Shape[0], src.Shape[1], src.Shape[2], src.Shape[3]
	outH, outW := windowDims(n, c, h, w, dst.Shape, kh, kw, stride, pad)
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

// windowDims returns the output extents of a kh×kw window over n images of
// h×w pixels and c channels, and panics unless colsShape is the matching
// patch-matrix shape [n·outH·outW, c·kh·kw].
func windowDims(n, c, h, w int, colsShape []int, kh, kw, stride, pad int) (outH, outW int) {
	outH = ConvOutSize(h, kh, stride, pad)
	outW = ConvOutSize(w, kw, stride, pad)
	if colsShape[0] != n*outH*outW || colsShape[1] != c*kh*kw {
		panic("tensor: patch matrix shape does not match the image and window")
	}
	return
}

// ConvOutSize returns the spatial output size of a convolution or pooling
// window of size k with the given stride and padding applied to extent in.
func ConvOutSize(in, k, stride, pad int) int {
	return (in+2*pad-k)/stride + 1
}
