package tensor

import (
	"fmt"
	"math/rand"
	"runtime"
	"runtime/debug"
	"testing"
)

// patchCase is one image batch and window of the patch-operand tests, with
// or without the ones column.
type patchCase struct {
	n, h, w, c int
	win        Window
	ones       bool
}

func (pc patchCase) String() string {
	return fmt.Sprintf("n=%d %dx%dx%d k=%dx%d s=%d p=%d ones=%v",
		pc.n, pc.h, pc.w, pc.c, pc.win.KH, pc.win.KW, pc.win.Stride, pc.win.Pad, pc.ones)
}

// patchCases covers stride 2, a 1×1 window without padding (at stride 1
// and 2), padding on every edge (3×3 pad 1, 5×5 pad 2 on a 4×4 image), a
// batch of one, patch widths that are no multiple of a tile (27, 45, 175),
// a width over gemmKC (144: two k-blocks) and more rows than one block holds.
func patchCases() []patchCase {
	base := []patchCase{
		{n: 2, h: 7, w: 6, c: 3, win: Window{3, 3, 2, 1}},
		{n: 1, h: 5, w: 5, c: 5, win: Window{1, 1, 1, 0}},
		{n: 1, h: 6, w: 7, c: 3, win: Window{1, 1, 2, 0}},
		{n: 3, h: 9, w: 8, c: 16, win: Window{3, 3, 1, 1}},
		{n: 2, h: 4, w: 4, c: 7, win: Window{5, 5, 1, 2}},
		{n: 1, h: 6, w: 5, c: 5, win: Window{3, 3, 1, 0}},
	}
	var out []patchCase
	for _, pc := range base {
		out = append(out, pc)
		pc.ones = true
		out = append(out, pc)
	}
	return out
}

// image draws the case's float64 image.
func (pc patchCase) image(rng *rand.Rand) *Tensor { return Randn(rng, 1, pc.n, pc.h, pc.w, pc.c) }

// unfolded is the case's patch matrix stored, by the whole-matrix lowering,
// with the ones column appended when the case has one.
func unfolded[E Elem](pc patchCase, x *Dense[E]) *Dense[E] {
	oh, ow := ConvOutSize(pc.h, pc.win.KH, pc.win.Stride, pc.win.Pad), ConvOutSize(pc.w, pc.win.KW, pc.win.Stride, pc.win.Pad)
	k := pc.win.KH * pc.win.KW * pc.c
	cols := NewDense[E](pc.n*oh*ow, k)
	UnfoldInto(cols, x, pc.win.KH, pc.win.KW, pc.win.Stride, pc.win.Pad)
	if !pc.ones {
		return cols
	}
	aug := NewDense[E](cols.Rows(), k+1)
	for r := 0; r < cols.Rows(); r++ {
		copy(aug.Data[r*(k+1):], cols.Data[r*k:(r+1)*k])
		aug.Data[r*(k+1)+k] = 1
	}
	return aug
}

// patchProduct is one place a patch matrix P (rows × cols) takes in a
// product: which side, transposed or not; the other operand is stored.
type patchProduct struct {
	name          string
	aT, bT, upper bool
	onA           bool // P is op(A)'s storage; else op(B)'s
	other         int  // the stored operand's free extent
}

func patchProducts() []patchProduct {
	return []patchProduct{
		{name: "N/P·b", onA: true, other: 29},
		{name: "T2/P·bᵀ", onA: true, bT: true, other: 29},
		{name: "T1/Pᵀ·b", onA: true, aT: true, other: 13},
		{name: "T1/aᵀ·P", aT: true, other: 13},
		{name: "N/a·P", other: 13},
		{name: "T2/a·Pᵀ", bT: true, other: 11},
		{name: "upper/PᵀP", onA: true, aT: true, upper: true},
	}
}

// dims returns the product's m, n, k for a patch matrix of the given extent.
func (pp patchProduct) dims(rows, cols int) (m, n, k int) {
	pm, pk := rows, cols // P as op(·) untransposed: pm × pk
	if pp.onA && pp.aT || !pp.onA && pp.bT {
		pm, pk = cols, rows
	}
	switch {
	case pp.upper:
		return pm, pm, pk
	case pp.onA:
		return pm, pp.other, pk
	default:
		return pp.other, pk, pm // op(B) = P is k×n: k = pm, n = pk
	}
}

// runPatchProduct computes the product with P read through the image on
// kernel set ks, and the same product on P stored, and returns both.
func runPatchProduct[E Elem](ks *gemmKernels, pc patchCase, pp patchProduct, x *Dense[E], other []E) (got, want []E) {
	cols := unfolded(pc, x)
	m, n, k := pp.dims(cols.Rows(), cols.Cols())
	p := patchesSrc(Patches[E]{Image: x, Window: pc.win, Ones: pc.ones})
	got, want = make([]E, m*n), make([]E, m*n)
	switch {
	case pp.upper:
		gemmSrcs(ks, got, p, p, m, n, k, true, false, true)
		gemm(ks, want, cols.Data, cols.Data, m, n, k, true, false, true)
	case pp.onA:
		ldb := n
		if pp.bT {
			ldb = k
		}
		gemmSrcs(ks, got, p, storedSrc(other[:k*n], ldb), m, n, k, pp.aT, pp.bT, false)
		gemm(ks, want, cols.Data, other[:k*n], m, n, k, pp.aT, pp.bT, false)
	default:
		lda := k
		if pp.aT {
			lda = m
		}
		gemmSrcs(ks, got, storedSrc(other[:m*k], lda), p, m, n, k, pp.aT, pp.bT, false)
		gemm(ks, want, other[:m*k], cols.Data, m, n, k, pp.aT, pp.bT, false)
	}
	return got, want
}

// samePatchBits compares two products bit for bit; an upper product on
// and above the diagonal only.
func samePatchBits[E Elem](t *testing.T, label string, upper bool, n int, got, want []E) {
	t.Helper()
	for i := range want {
		if upper && i%n < i/n {
			continue
		}
		if bitsOf(got[i]) != bitsOf(want[i]) {
			t.Fatalf("%s: element (%d,%d) = %v, want %v", label, i/n, i%n, got[i], want[i])
		}
	}
}

// TestPatchesMatchUnfoldThenProduct: a product that reads a patch matrix
// through its image is, bit for bit, the same product on the patch matrix
// UnfoldInto stores — P on either side, transposed or not, and the Gram —
// on every kernel set the host runs, at both element types.
func TestPatchesMatchUnfoldThenProduct(t *testing.T) {
	forEachKernelSet(t, func(t *testing.T, ks *gemmKernels) {
		for _, pc := range patchCases() {
			rng := rand.New(rand.NewSource(int64(pc.c*31 + pc.win.KH)))
			x := pc.image(rng)
			x32 := NewT32(x.Shape...)
			x32.NarrowFrom(x)
			other := Randn(rng, 1, 32*600).Data
			other32 := narrowed(other)
			for _, pp := range patchProducts() {
				label := pc.String() + "/" + pp.name
				cols := unfolded(pc, x)
				_, n, _ := pp.dims(cols.Rows(), cols.Cols())
				got, want := runPatchProduct(ks, pc, pp, x, other)
				samePatchBits(t, label+"/float64", pp.upper, n, got, want)
				got32, want32 := runPatchProduct(ks, pc, pp, x32, other32)
				samePatchBits(t, label+"/float32", pp.upper, n, got32, want32)
			}
		}
	})
}

// TestPatchesEntryPoints holds Patches' extents and the exported patch
// products to the stored patch matrix and their stored namesakes, bit for
// bit.
func TestPatchesEntryPoints(t *testing.T) {
	for _, pc := range patchCases() {
		rng := rand.New(rand.NewSource(int64(pc.n*7 + pc.c)))
		x := pc.image(rng)
		p := Patches[float64]{Image: x, Window: pc.win, Ones: pc.ones}
		cols := unfolded(pc, x)
		if p.Rows() != cols.Rows() || p.Cols() != cols.Cols() {
			t.Fatalf("%v: Patches is %dx%d, the stored matrix %dx%d", pc, p.Rows(), p.Cols(), cols.Rows(), cols.Cols())
		}
		w := Randn(rng, 1, 10, cols.Cols())
		y, yRef := New(cols.Rows(), 10), New(cols.Rows(), 10)
		MatMulT2PatchesInto(y, p, w)
		MatMulT2Into(yRef, cols, w)
		samePatchBits(t, pc.String()+"/MatMulT2PatchesInto", false, 10, y.Data, yRef.Data)

		g := Randn(rng, 1, cols.Rows(), 10)
		dw, dwRef := New(10, cols.Cols()), New(10, cols.Cols())
		MatMulT1PatchesInto(dw, g, p)
		MatMulT1Into(dwRef, g, cols)
		samePatchBits(t, pc.String()+"/MatMulT1PatchesInto", false, cols.Cols(), dw.Data, dwRef.Data)

		gram, gramRef := New(cols.Cols(), cols.Cols()), New(cols.Cols(), cols.Cols())
		MatMulT1UpperPatchesInto(gram, p)
		MatMulT1UpperInto(gramRef, cols)
		samePatchBits(t, pc.String()+"/MatMulT1UpperPatchesInto", true, cols.Cols(), gram.Data, gramRef.Data)
	}
}

// foldCase is an input-gradient shape: the window over a batch, and the
// output channels of the gradient.
type foldCase struct {
	pc   patchCase
	outC int
}

// foldCases span one image per block (the product of one image over
// foldBlockElems), several images per block with a short last block, and the
// small shapes of patchCases, whose batch fits one block.
func foldCases() []foldCase {
	cs := []foldCase{
		{patchCase{n: 3, h: 16, w: 16, c: 8, win: Window{3, 3, 1, 1}}, 8},
		{patchCase{n: 10, h: 8, w: 8, c: 7, win: Window{3, 3, 1, 1}}, 8},
		{patchCase{n: 9, h: 8, w: 8, c: 12, win: Window{1, 1, 2, 0}}, 24},
	}
	for _, pc := range patchCases() {
		if !pc.ones {
			cs = append(cs, foldCase{pc, 5})
		}
	}
	return cs
}

// TestFoldMatMulMatchesFoldOfProduct: the input gradient formed block by
// block of images is FoldInto of the whole product, bit for bit, at both
// element types and at one and four workers.
func TestFoldMatMulMatchesFoldOfProduct(t *testing.T) {
	for _, procs := range []int{1, 4} {
		prev := runtime.GOMAXPROCS(procs)
		for _, fc := range foldCases() {
			pc := fc.pc
			rng := rand.New(rand.NewSource(int64(pc.n + pc.c)))
			oh, ow := ConvOutSize(pc.h, pc.win.KH, pc.win.Stride, pc.win.Pad), ConvOutSize(pc.w, pc.win.KW, pc.win.Stride, pc.win.Pad)
			k := pc.win.KH * pc.win.KW * pc.c
			g, w := Randn(rng, 1, pc.n*oh*ow, fc.outC), Randn(rng, 1, fc.outC, k)
			label := fmt.Sprintf("GOMAXPROCS=%d %v outC=%d", procs, pc, fc.outC)
			checkFoldMatMul(t, label+"/float64", pc, g, w)
			g32, w32 := NewT32(g.Shape...), NewT32(w.Shape...)
			g32.NarrowFrom(g)
			w32.NarrowFrom(w)
			checkFoldMatMul(t, label+"/float32", pc, g32, w32)
		}
		runtime.GOMAXPROCS(prev)
	}
}

func checkFoldMatMul[E Elem](t *testing.T, label string, pc patchCase, g, w *Dense[E]) {
	t.Helper()
	got := Full(7, pc.n, pc.h, pc.w, pc.c) // stale contents must not survive
	FoldMatMulInto(got, g, w, pc.win)
	want := New(pc.n, pc.h, pc.w, pc.c)
	FoldInto(want, MatMul(g, w), pc.win.KH, pc.win.KW, pc.win.Stride, pc.win.Pad)
	samePatchBits(t, label, false, 1, got.Data, want.Data)
}

// TestPatchProductsZeroAllocSteadyState: once the workspaces, scratches and
// call records exist, the patch products and the blocked fold allocate
// nothing, at both element types.
func TestPatchProductsZeroAllocSteadyState(t *testing.T) {
	pc := patchCase{n: 4, h: 8, w: 8, c: 6, win: Window{3, 3, 1, 1}}
	rng := rand.New(rand.NewSource(5))
	x := pc.image(rng)
	x32 := NewT32(x.Shape...)
	x32.NarrowFrom(x)
	checkPatchAllocs(t, "float64", pc, x)
	checkPatchAllocs(t, "float32", pc, x32)
}

func checkPatchAllocs[E Elem](t *testing.T, label string, pc patchCase, x *Dense[E]) {
	t.Helper()
	p := Patches[E]{Image: x, Window: pc.win}
	rows, k := p.Rows(), p.Cols()
	w, y, g := NewDense[E](16, k), NewDense[E](rows, 16), NewDense[E](rows, 16)
	dw, gram, dx := NewDense[E](16, k), NewDense[E](k, k), New(x.Shape...)
	step := func() {
		MatMulT2PatchesInto(y, p, w)
		MatMulT1PatchesInto(dw, g, p)
		MatMulT1UpperPatchesInto(gram, p)
		FoldMatMulInto(dx, g, w, pc.win)
	}
	step()
	if a := testing.AllocsPerRun(20, step); a != 0 {
		t.Errorf("%s: patch products allocate %v times per run", label, a)
	}
}

// TestPatchesRejectBadGeometry: a window larger than its padded image, or
// a malformed window, panics naming the geometry rather than reading
// another image's pixels.
func TestPatchesRejectBadGeometry(t *testing.T) {
	for _, c := range []struct {
		shape []int
		win   Window
	}{
		{[]int{1, 1, 1, 3}, Window{3, 3, 1, 0}},
		{[]int{2, 1, 5, 1}, Window{2, 2, 2, 0}},
		{[]int{1, 4, 4, 1}, Window{3, 3, 0, 1}},
		{[]int{1, 4, 4, 1}, Window{0, 3, 1, 1}},
		{[]int{4, 4, 1}, Window{1, 1, 1, 0}},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%v over %v accepted", c.win, c.shape)
				}
			}()
			Patches[float64]{Image: New(c.shape...), Window: c.win}.Rows()
		}()
	}
	if _, _, err := (Window{3, 3, 1, 1}).Out(1, 1); err != nil {
		t.Errorf("a 3×3 window padded by 1 fits a 1×1 image: %v", err)
	}
}

// guardedPatchRun computes product pp of case pc on a guarded copy of the
// image and stored operand, into a guarded destination, on the calling
// goroutine, and returns the destination.
func guardedPatchRun[E Elem](t *testing.T, ks *gemmKernels, pc patchCase, pp patchProduct, x *Dense[E], other []E) []E {
	t.Helper()
	img := &Dense[E]{Shape: x.Shape, Data: guarded(t, x.Data)}
	p := patchesSrc(Patches[E]{Image: img, Window: pc.win, Ones: pc.ones})
	m, n, k := pp.dims(p.im.rows(), p.im.cols())
	if m*n*k >= gemmParallelWork {
		t.Fatalf("%v %s would fan out to goroutines whose faults are not recovered", pc, pp.name)
	}
	dst := guarded(t, make([]E, m*n))
	func() {
		defer debug.SetPanicOnFault(debug.SetPanicOnFault(true))
		defer func() {
			if r := recover(); r != nil {
				t.Fatalf("%v: %v %s: touched memory past an operand: %v", ks.isa, pc, pp.name, r)
			}
		}()
		switch {
		case pp.upper:
			gemmSrcs(ks, dst, p, p, m, n, k, true, false, true)
		case pp.onA:
			ldb := n
			if pp.bT {
				ldb = k
			}
			gemmSrcs(ks, dst, p, storedSrc(guarded(t, other[:k*n]), ldb), m, n, k, pp.aT, pp.bT, false)
		default:
			lda := k
			if pp.aT {
				lda = m
			}
			gemmSrcs(ks, dst, storedSrc(guarded(t, other[:m*k]), lda), p, m, n, k, pp.aT, pp.bT, false)
		}
	}()
	return dst
}

// BenchmarkGramPatchesShapes runs the conv A factor's Gram — the upper
// triangle the factor stage forms, read through the layer's input image —
// at the benchmark models' conv shapes (n images of h×w×c under a 3×3,
// stride 1, pad 1 window: k = n·h·w rows, m = 9c), at both element types,
// reporting GFLOP/s at k·m² (the triangle's multiply-adds, doubled) beside
// the FMA peak: the window copies ride inside the product.
func BenchmarkGramPatchesShapes(b *testing.B) {
	peak := FMAPeakGFLOPS()
	for _, sh := range []struct {
		n, h, w, c int
		what       string
	}{
		{8, 3, 3, 48, "stage 3"},
		{8, 6, 6, 24, "stage 2"},
		{8, 12, 12, 12, "stage 1"},
		{16, 16, 16, 8, "converge_w2 stage 1"},
	} {
		img := Randn(rand.New(rand.NewSource(1)), 1, sh.n, sh.h, sh.w, sh.c)
		img32 := NewT32(img.Shape...)
		img32.NarrowFrom(img)
		win := Window{KH: 3, KW: 3, Stride: 1, Pad: 1}
		p, p32 := Patches[float64]{Image: img, Window: win}, Patches[float32]{Image: img32, Window: win}
		k, m := p.Rows(), p.Cols()
		dst, dst32 := New(m, m), NewT32(m, m)
		for _, et := range []struct {
			name string
			run  func()
		}{
			{"float64", func() { MatMulT1UpperPatchesInto(dst, p) }},
			{"float32", func() { MatMulT1UpperPatchesInto(dst32, p32) }},
		} {
			b.Run(fmt.Sprintf("%dx%d/%s", k, m, et.name), func(b *testing.B) {
				et.run()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					et.run()
				}
				g := float64(k) * float64(m) * float64(m) * float64(b.N) / b.Elapsed().Seconds() / 1e9
				b.ReportMetric(g, "GFLOP/s")
				b.ReportMetric(peak, "peak-GFLOP/s")
				b.ReportMetric(g/peak, "of-peak")
			})
		}
	}
}
