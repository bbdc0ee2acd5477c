package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// The channels-first routines the layers used before activations became
// channels-last. Im2ColInto itself still lives in im2col.go (the benchmark
// replays it); these three are its allocating form and its adjoint, kept
// here as the oracle UnfoldInto and FoldInto are held to.

// Im2Col is Im2ColInto into a fresh [N·outH·outW, C·kh·kw] matrix.
func Im2Col(x *Tensor, kh, kw, stride, pad int) *Tensor {
	n, c, h, w := x.Shape[0], x.Shape[1], x.Shape[2], x.Shape[3]
	cols := New(n*ConvOutSize(h, kh, stride, pad)*ConvOutSize(w, kw, stride, pad), c*kh*kw)
	Im2ColInto(cols, x, kh, kw, stride, pad)
	return cols
}

// Col2Im scatters the column matrix back into a fresh [N, C, H, W] image,
// accumulating overlapping contributions: the adjoint of Im2Col.
func Col2Im(cols *Tensor, n, c, h, w, kh, kw, stride, pad int) *Tensor {
	x := New(n, c, h, w)
	Col2ImInto(x, cols, kh, kw, stride, pad)
	return x
}

// Col2ImInto is Col2Im accumulating into a caller-provided [N, C, H, W]
// destination, which it zeroes first, in the destination's element type.
func Col2ImInto[D, S Elem](dst *Dense[D], src *Dense[S], kh, kw, stride, pad int) {
	x, cols := dst.Data, src.Data
	n, c, h, w := dst.Shape[0], dst.Shape[1], dst.Shape[2], dst.Shape[3]
	outH, outW := windowDims(n, c, h, w, src.Shape, kh, kw, stride, pad)
	clear(x)
	colW := c * kh * kw
	for img := 0; img < n; img++ {
		for oy := 0; oy < outH; oy++ {
			for ox := 0; ox < outW; ox++ {
				row := cols[((img*outH+oy)*outW+ox)*colW:]
				for ch := 0; ch < c; ch++ {
					for ky := 0; ky < kh; ky++ {
						for kx := 0; kx < kw; kx++ {
							iy, ix := oy*stride-pad+ky, ox*stride-pad+kx
							if iy >= 0 && iy < h && ix >= 0 && ix < w {
								x[((img*c+ch)*h+iy)*w+ix] += D(row[(ch*kh+ky)*kw+kx])
							}
						}
					}
				}
			}
		}
	}
}

// toChannelsFirst returns the [N, C, H, W] transpose of an [N, H, W, C]
// tensor, and toChannelsLast the inverse.
func toChannelsFirst[E Elem](x *Dense[E]) *Dense[E] {
	n, h, w, c := x.Shape[0], x.Shape[1], x.Shape[2], x.Shape[3]
	out := NewDense[E](n, c, h, w)
	for i := 0; i < n; i++ {
		for s := 0; s < h*w; s++ {
			for ch := 0; ch < c; ch++ {
				out.Data[(i*c+ch)*h*w+s] = x.Data[(i*h*w+s)*c+ch]
			}
		}
	}
	return out
}

func toChannelsLast[E Elem](x *Dense[E]) *Dense[E] {
	n, c, h, w := x.Shape[0], x.Shape[1], x.Shape[2], x.Shape[3]
	out := NewDense[E](n, h, w, c)
	for i := 0; i < n; i++ {
		for s := 0; s < h*w; s++ {
			for ch := 0; ch < c; ch++ {
				out.Data[(i*h*w+s)*c+ch] = x.Data[(i*c+ch)*h*w+s]
			}
		}
	}
	return out
}

// patchColumnsFirst reorders a patch matrix's columns from (ky, kx, c) to
// the channels-first (c, ky, kx).
func patchColumnsFirst[E Elem](cols *Dense[E], c, kh, kw int) *Dense[E] {
	out := NewDense[E](cols.Shape...)
	width := c * kh * kw
	for r := 0; r < cols.Rows(); r++ {
		for k := 0; k < kh*kw; k++ {
			for ch := 0; ch < c; ch++ {
				out.Data[r*width+ch*kh*kw+k] = cols.Data[r*width+k*c+ch]
			}
		}
	}
	return out
}

func randDense[E Elem](rng *rand.Rand, shape ...int) *Dense[E] {
	t := NewDense[E](shape...)
	for i := range t.Data {
		t.Data[i] = E(rng.NormFloat64())
	}
	return t
}

// loweringCase is one window geometry of the lowering tests: every
// combination of stride 1/2, pad 0/1, 1×1 and 3×3 windows and 1, 3 or 12
// channels over a non-square image.
type loweringCase struct{ n, h, w, c, k, stride, pad int }

func (lc loweringCase) String() string {
	return fmt.Sprintf("k%d_s%d_p%d_c%d", lc.k, lc.stride, lc.pad, lc.c)
}

func (lc loweringCase) out() (oh, ow int) {
	return ConvOutSize(lc.h, lc.k, lc.stride, lc.pad), ConvOutSize(lc.w, lc.k, lc.stride, lc.pad)
}

func loweringCases() []loweringCase {
	var cases []loweringCase
	for _, k := range []int{1, 3} {
		for _, stride := range []int{1, 2} {
			for _, pad := range []int{0, 1} {
				for _, c := range []int{1, 3, 12} {
					cases = append(cases, loweringCase{n: 2, h: 7, w: 5, c: c, k: k, stride: stride, pad: pad})
				}
			}
		}
	}
	// A window wider than the padded image on one side of every row, and a
	// pad as wide as the window: runs clipped on both ends, runs all padding.
	return append(cases,
		loweringCase{n: 1, h: 2, w: 1, c: 2, k: 3, stride: 1, pad: 1},
		loweringCase{n: 1, h: 4, w: 4, c: 2, k: 3, stride: 2, pad: 3})
}

// TestLoweringMatchesIm2ColOnTranspose holds UnfoldInto to the channels-
// first routine: the patch matrix of an [N, H, W, C] batch equals, exactly,
// Im2ColInto of its [N, C, H, W] transpose with the columns reordered from
// (c, ky, kx) to (ky, kx, c). The destination starts as NaN, so a padding
// position the lowering fails to clear shows.
func TestLoweringMatchesIm2ColOnTranspose(t *testing.T) {
	for _, lc := range loweringCases() {
		t.Run(lc.String()+"/float64", func(t *testing.T) { checkUnfold[float64](t, lc) })
		t.Run(lc.String()+"/float32", func(t *testing.T) { checkUnfold[float32](t, lc) })
	}
}

func checkUnfold[E Elem](t *testing.T, lc loweringCase) {
	rng := rand.New(rand.NewSource(int64(lc.c*100 + lc.k*10 + lc.stride)))
	x := randDense[E](rng, lc.n, lc.h, lc.w, lc.c)
	oh, ow := lc.out()
	got := NewDense[E](lc.n*oh*ow, lc.k*lc.k*lc.c)
	for i := range got.Data {
		got.Data[i] = E(math.NaN())
	}
	UnfoldInto(got, x, lc.k, lc.k, lc.stride, lc.pad)

	want := NewDense[E](lc.n*oh*ow, lc.c*lc.k*lc.k)
	Im2ColInto(want, toChannelsFirst(x), lc.k, lc.k, lc.stride, lc.pad)
	for i, v := range patchColumnsFirst(got, lc.c, lc.k, lc.k).Data {
		if v != want.Data[i] {
			t.Fatalf("patch element %d (row %d, channels-first column %d): %v, want %v",
				i, i/want.Cols(), i%want.Cols(), v, want.Data[i])
		}
	}
}

// TestLoweringFoldMatchesCol2ImOnTranspose holds FoldInto to the channels-
// first scatter, exactly (each pixel receives the same contributions in the
// same output-position order), with the image pre-filled with NaN; a float32
// patch matrix folds into a float64 image as it did before.
func TestLoweringFoldMatchesCol2ImOnTranspose(t *testing.T) {
	for _, lc := range loweringCases() {
		t.Run(lc.String()+"/float64", func(t *testing.T) { checkFold[float64, float64](t, lc) })
		t.Run(lc.String()+"/float32", func(t *testing.T) { checkFold[float32, float32](t, lc) })
		t.Run(lc.String()+"/float32_into_float64", func(t *testing.T) { checkFold[float64, float32](t, lc) })
	}
}

func checkFold[D, S Elem](t *testing.T, lc loweringCase) {
	rng := rand.New(rand.NewSource(int64(lc.c*100 + lc.k*10 + lc.pad)))
	oh, ow := lc.out()
	y := randDense[S](rng, lc.n*oh*ow, lc.k*lc.k*lc.c)
	got := NewDense[D](lc.n, lc.h, lc.w, lc.c)
	for i := range got.Data {
		got.Data[i] = D(math.NaN())
	}
	FoldInto(got, y, lc.k, lc.k, lc.stride, lc.pad)

	want := NewDense[D](lc.n, lc.c, lc.h, lc.w)
	Col2ImInto(want, patchColumnsFirst(y, lc.c, lc.k, lc.k), lc.k, lc.k, lc.stride, lc.pad)
	for i, v := range toChannelsFirst(got).Data {
		if v != want.Data[i] {
			t.Fatalf("image element %d: %v, want %v", i, v, want.Data[i])
		}
	}
}

// TestLoweringAdjoint: FoldInto is the adjoint of UnfoldInto — for all x, y:
// ⟨unfold x, y⟩ = ⟨x, fold y⟩, the property backpropagation through a
// convolution relies on.
func TestLoweringAdjoint(t *testing.T) {
	for _, lc := range loweringCases() {
		rng := rand.New(rand.NewSource(int64(lc.c + lc.k)))
		oh, ow := lc.out()
		x := randDense[float64](rng, lc.n, lc.h, lc.w, lc.c)
		y := randDense[float64](rng, lc.n*oh*ow, lc.k*lc.k*lc.c)
		cols, back := New(y.Shape...), New(x.Shape...)
		UnfoldInto(cols, x, lc.k, lc.k, lc.stride, lc.pad)
		FoldInto(back, y, lc.k, lc.k, lc.stride, lc.pad)
		if lhs, rhs := cols.Dot(y), x.Dot(back); math.Abs(lhs-rhs) > 1e-12*(1+math.Abs(lhs)) {
			t.Errorf("%v: ⟨unfold x, y⟩ = %v, ⟨x, fold y⟩ = %v", lc, lhs, rhs)
		}
	}
}

// TestLayoutViewSharesStorage: View reshapes without copying and, on a
// reused header, without allocating.
func TestLayoutViewSharesStorage(t *testing.T) {
	m := New(6, 4)
	var hdr *Tensor
	v := View(&hdr, m, 2, 3, 4)
	if v.NDim() != 3 || v.Shape[2] != 4 || &v.Data[0] != &m.Data[0] {
		t.Fatalf("View shape %v, shares storage %v", v.Shape, &v.Data[0] == &m.Data[0])
	}
	if m.NDim() != 2 {
		t.Errorf("View changed its source's shape to %v", m.Shape)
	}
	if a := testing.AllocsPerRun(20, func() { View(&hdr, m, 3, 2, 4); View(&hdr, m, 24) }); a != 0 {
		t.Errorf("View on a reused header allocates %v times", a)
	}
	defer func() {
		if recover() == nil {
			t.Error("View to a shape of another element count did not panic")
		}
	}()
	View(&hdr, m, 5, 5)
}
