package tensor

import (
	"fmt"
	"runtime"

	"repro/internal/sched"
)

// Convolution lowering. Activations are channels-last — an image batch is
// [N, H, W, C], which read as a matrix is [N·H·W, C] — so the receptive
// field of one output position is kh runs of kw·C contiguous values. With the
// kernel flattened to [outC, kh·kw·C] a convolution is one matrix multiply
// by the batch's patch matrix [N·outH·outW, kh·kw·C] (Patches), whose product
// is already the next layer's [N·outH·outW, outC] activation — the lowering
// cuDNN and PyTorch's unfold use, and the reason K-FAC's A factor for a
// Conv2D layer has dimension kh·kw·C (+1 with bias): each patch row is one
// "activation" sample.
//
// No buffer holds a patch matrix. The products that take one read it as an
// operand of the GEMM driver, which copies the rows and columns each block
// reads, one k-block at a time, into its workspace as clipped runs of the
// image (copyWindow) — the indirect-convolution idea (Dukhan, 2019) with the
// window as the indirection. The input gradient, the adjoint, is folded
// block of images by block of images (FoldMatMulInto). UnfoldInto and
// FoldInto are the whole-matrix lowering and its adjoint.

// Window is the geometry of a convolution or pooling window: KH×KW taps,
// moved Stride pixels at a time over an image padded with Pad zero pixels on
// every edge.
type Window struct{ KH, KW, Stride, Pad int }

// Out returns the output extents of the window over an h×w image, or an
// error naming the geometry when the window does not fit the padded image
// once or a parameter is out of range.
func (w Window) Out(h, wd int) (outH, outW int, err error) {
	if w.KH < 1 || w.KW < 1 || w.Stride < 1 || w.Pad < 0 {
		return 0, 0, fmt.Errorf("%dx%d window, stride %d, pad %d: kernel and stride must be positive and pad not negative",
			w.KH, w.KW, w.Stride, w.Pad)
	}
	if h+2*w.Pad < w.KH || wd+2*w.Pad < w.KW {
		return 0, 0, fmt.Errorf("%dx%d window larger than its %dx%d input padded by %d",
			w.KH, w.KW, h, wd, w.Pad)
	}
	return ConvOutSize(h, w.KH, w.Stride, w.Pad), ConvOutSize(wd, w.KW, w.Stride, w.Pad), nil
}

// Patches is the patch matrix of the channels-last image batch Image
// [N, H, W, C] under Window: [N·outH·outW, KH·KW·C], row (n, oy, ox) the
// receptive field of that output position, its columns ordered (ky, kx, c) —
// what UnfoldInto writes — and, with Ones, one more column of ones. It is an
// operand of MatMulT2PatchesInto, MatMulT1PatchesInto and
// MatMulT1UpperPatchesInto, which read it from Image a window at a time, so
// it is never stored.
type Patches[E Elem] struct {
	Image *Dense[E]
	Window
	// Ones appends a column of ones: the homogeneous coordinate of a K-FAC A
	// factor whose layer has a bias.
	Ones bool
}

// Rows returns N·outH·outW.
func (p Patches[E]) Rows() int { g := p.geom(); return g.rows() }

// Cols returns KH·KW·C, plus one with Ones.
func (p Patches[E]) Cols() int { g := p.geom(); return g.cols() }

// geom checks the image and window and returns their geometry.
func (p Patches[E]) geom() patchGeom {
	if p.Image == nil || len(p.Image.Shape) != 4 {
		panic("tensor: Patches of an image that is not [N, H, W, C]")
	}
	s := p.Image.Shape
	oh, ow, err := p.Window.Out(s[1], s[2])
	if err != nil {
		panic("tensor: Patches: " + err.Error())
	}
	return patchGeom{n: s[0], h: s[1], w: s[2], c: s[3], win: p.Window, oh: oh, ow: ow, ones: p.Ones}
}

// patchGeom is a patch matrix's geometry: the image extents, the window,
// the output extents and the ones column.
type patchGeom struct {
	n, h, w, c int
	win        Window
	oh, ow     int
	ones       bool
}

func (g *patchGeom) rows() int { return g.n * g.oh * g.ow }

func (g *patchGeom) cols() int {
	k := g.win.KH * g.win.KW * g.c
	if g.ones {
		k++
	}
	return k
}

// copyWindow writes rows [r0, r1) and columns [c0, c1) of the patch matrix
// of the image x into dst, row-major with row stride c1−c0: the UnfoldInto
// loop restricted to the window, each kernel row's part of it one clipped
// run copied whole and its padding cleared. A receptive field that lies
// inside the image, the common row, takes its runs unclipped.
func copyWindow[E Elem](dst, x []E, g *patchGeom, r0, r1, c0, c1 int) {
	// The geometry in locals: the copies below are calls, after which
	// fields read through g would be loaded again.
	h, w, c, oh, ow := g.h, g.w, g.c, g.oh, g.ow
	kh, kw, stride, pad := g.win.KH, g.win.KW, g.win.Stride, g.win.Pad
	ld := c1 - c0
	run := kw * c
	k := kh * run // the ones column, if any, sits at k
	ky0, ky1 := c0/run, (min(c1, k)+run-1)/run
	rowStride := w * c // between kernel rows in the image
	whole := c0 == 0 && c1 >= k
	img, rem := r0/(oh*ow), r0%(oh*ow)
	oy, ox := rem/ow, rem%ow
	for r := r0; r < r1; r++ {
		row := dst[(r-r0)*ld : (r-r0+1)*ld]
		iy0, ix0 := oy*stride-pad, ox*stride-pad
		inside := iy0 >= 0 && iy0+kh <= h && ix0 >= 0 && ix0+kw <= w
		base := ((img*h+iy0)*w + ix0) * c // the receptive field's first value
		switch {
		case inside && whole:
			// Every run whole: kh copies, one image row apart.
			o := base
			for d := row[:k]; len(d) > 0; d = d[run:] {
				copy(d[:run], x[o:o+run])
				o += rowStride
			}
		case inside:
			for ky := ky0; ky < ky1; ky++ {
				// The part [a, b) of kernel row ky's run that the window
				// holds, at row[a+s:].
				s := ky*run - c0
				a, b := max(-s, 0), min(ld-s, run)
				o := base + ky*rowStride
				copy(row[a+s:b+s], x[o+a:o+b])
			}
		default:
			lo, hi := clipRun(ix0, kw, w, c)
			for ky := ky0; ky < ky1; ky++ {
				s := ky*run - c0
				a, b := max(-s, 0), min(ld-s, run)
				seg := row[a+s : b+s]
				iy := iy0 + ky
				if iy < 0 || iy >= h || lo == hi || b <= lo || a >= hi {
					clear(seg)
					continue
				}
				ca, cb := max(a, lo), min(b, hi)
				clear(seg[:ca-a])
				copy(seg[ca-a:cb-a], x[base+ky*rowStride+ca:])
				clear(seg[cb-a:])
			}
		}
		if g.ones && c0 <= k && k < c1 {
			row[k-c0] = 1
		}
		if ox++; ox == ow {
			ox = 0
			if oy++; oy == oh {
				oy, img = 0, img+1
			}
		}
	}
}

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
// it was copied from, in row order. It accumulates in the destination's
// element type whatever the columns': overlapping receptive fields sum many
// contributions per pixel, so a float32 patch matrix folds into a float64
// image and hands the upstream layer an ordinary float64 gradient.
func FoldInto[D, S Elem](dst *Dense[D], src *Dense[S], kh, kw, stride, pad int) {
	n, h, w, c := dst.Shape[0], dst.Shape[1], dst.Shape[2], dst.Shape[3]
	outH, outW := windowDims(n, c, h, w, src.Shape, kh, kw, stride, pad)
	g := patchGeom{n: n, h: h, w: w, c: c, win: Window{kh, kw, stride, pad}, oh: outH, ow: outW}
	foldRows(dst.Data, src.Data, &g, n)
}

// foldRows is FoldInto on the first n images of x and the rows of their
// patch matrix, src.
func foldRows[D, S Elem](x []D, src []S, g *patchGeom, n int) {
	run := g.win.KW * g.c
	row := src
	clear(x[:n*g.h*g.w*g.c])
	for img := 0; img < n; img++ {
		for oy := 0; oy < g.oh; oy++ {
			iy0 := oy*g.win.Stride - g.win.Pad
			for ox := 0; ox < g.ow; ox++ {
				ix0 := ox*g.win.Stride - g.win.Pad
				lo, hi := clipRun(ix0, g.win.KW, g.w, g.c)
				for ky := 0; ky < g.win.KH; ky++ {
					iy := iy0 + ky
					if iy < 0 || iy >= g.h || lo == hi {
						continue
					}
					seg := row[ky*run+lo : ky*run+hi]
					px := x[((img*g.h+iy)*g.w+ix0)*g.c+lo:][:len(seg)]
					for i, v := range seg {
						px[i] += D(v)
					}
				}
				row = row[g.win.KH*run:]
			}
		}
	}
}

// foldBlockElems caps the product block FoldMatMulInto forms at once: whole
// images, as many as fit this many elements, at least one.
const foldBlockElems = 1 << 14

// FoldMatMulInto computes the input gradient of a convolution, dst =
// FoldInto(g·w): g [N·outH·outW, outC] is the gradient of the output and w
// [outC, KH·KW·C] the kernel, dst the [N, H, W, C] image batch. The
// [N·outH·outW, KH·KW·C] product is never whole: a block of whole images at a
// time is formed in a scratch its goroutine holds and folded onto those
// images. Each product element is MatMulInto's chain, and each pixel
// receives its contributions in patch-row order — images are disjoint and a
// block's rows fold in order — so dst is bit for bit FoldInto of the whole
// product. Blocks fan out over sched.Shared() when the machine has more than
// one worker and the product's work reaches gemmParallelWork; a scratch is
// drawn per goroutine from a free list and kept for reuse.
func FoldMatMulInto[E Elem](dst *Tensor, g, w *Dense[E], win Window) {
	geom := Patches[float64]{Image: dst, Window: win}.geom()
	rows, k, outC := geom.rows(), geom.cols(), w.Rows()
	if len(g.Shape) != 2 || len(w.Shape) != 2 || g.Rows() != rows || g.Cols() != outC || w.Cols() != k {
		panic("tensor: FoldMatMulInto shape mismatch")
	}
	if overlaps(dst.Data, g.Data) || overlaps(dst.Data, w.Data) {
		panic("tensor: FoldMatMulInto destination aliases an operand")
	}
	if geom.n == 0 {
		return
	}
	free := foldJobsOf[E]()
	j := free.get()
	*j = foldJob[E]{dst: dst.Data, g: g.Data, w: w.Data, geom: geom, outC: outC,
		per: max(1, foldBlockElems/(geom.oh*geom.ow*k))}
	blocks := (geom.n + j.per - 1) / j.per
	if blocks > 1 && runtime.GOMAXPROCS(0) > 1 && rows*k*outC >= gemmParallelWork {
		sched.Shared().ForEach(blocks, blocks, j)
	} else {
		j.RunRange(0, blocks)
	}
	*j = foldJob[E]{} // don't pin operand memory
	free.put(j)
}

// foldJob is one FoldMatMulInto call: blocks of per images each.
type foldJob[E Elem] struct {
	dst  []float64
	g, w []E
	geom patchGeom
	outC int
	per  int
}

// RunRange implements sched.Ranger over blocks [lo, hi).
func (j *foldJob[E]) RunRange(lo, hi int) {
	sc := foldFree.get()
	buf := foldBuf[E](sc)
	s, k := j.geom.oh*j.geom.ow, j.geom.cols()
	px := j.geom.h * j.geom.w * j.geom.c
	for b := lo; b < hi; b++ {
		i0 := b * j.per
		n := min(j.per, j.geom.n-i0)
		rows := n * s
		if cap(*buf) < j.per*s*k {
			*buf = make([]E, j.per*s*k)
		}
		prod := (*buf)[:rows*k]
		gemm(&gemmActive, prod, j.g[i0*s*j.outC:(i0+n)*s*j.outC], j.w, rows, k, j.outC, false, false, false)
		foldRows(j.dst[i0*px:], prod, &j.geom, n)
	}
	foldFree.put(sc)
}

// foldScratch is the product block of one goroutine inside FoldMatMulInto,
// at whichever element type it last ran.
type foldScratch struct {
	f64 []float64
	f32 []float32
}

// foldBuf returns sc's buffer for element type E.
func foldBuf[E Elem](sc *foldScratch) *[]E {
	if b, ok := any(&sc.f64).(*[]E); ok {
		return b
	}
	return any(&sc.f32).(*[]E)
}

// foldFree recycles product blocks: there are as many as goroutines were
// ever inside FoldMatMulInto at once. foldJobs recycles the call records.
var (
	foldFree freeList[foldScratch]
	foldJobs struct {
		f64 freeList[foldJob[float64]]
		f32 freeList[foldJob[float32]]
	}
)

// foldJobsOf returns foldJobs' list for element type E.
func foldJobsOf[E Elem]() *freeList[foldJob[E]] {
	if f, ok := any(&foldJobs.f64).(*freeList[foldJob[E]]); ok {
		return f
	}
	return any(&foldJobs.f32).(*freeList[foldJob[E]])
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
