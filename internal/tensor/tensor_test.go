package tensor

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewShapesAndLen(t *testing.T) {
	cases := []struct {
		shape []int
		want  int
	}{
		{[]int{3, 4}, 12},
		{[]int{2, 3, 4}, 24},
		{[]int{7}, 7},
		{[]int{1, 1, 1, 1}, 1},
		{[]int{0, 5}, 0},
	}
	for _, c := range cases {
		tt := New(c.shape...)
		if tt.Len() != c.want {
			t.Errorf("New(%v).Len() = %d, want %d", c.shape, tt.Len(), c.want)
		}
	}
}

func TestNewNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for negative dimension")
		}
	}()
	New(3, -1)
}

func TestFromSliceMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for size mismatch")
		}
	}()
	FromSlice([]float64{1, 2, 3}, 2, 2)
}

// at returns the element of x at the given multi-index.
func at[E Elem](x *Dense[E], idx ...int) E { return x.Data[x.offset(idx)] }

// row returns a slice view of row r of the matrix x.
func row[E Elem](x *Dense[E], r int) []E { return x.Data[r*x.Shape[1] : (r+1)*x.Shape[1]] }

func TestAtSetRoundTrip(t *testing.T) {
	x := New(2, 3, 4)
	x.Set(42, 1, 2, 3)
	if got := at(x, 1, 2, 3); got != 42 {
		t.Errorf("At after Set = %v, want 42", got)
	}
	// Row-major layout: offset of (1,2,3) in [2,3,4] is 1*12+2*4+3 = 23.
	if x.Data[23] != 42 {
		t.Errorf("row-major offset wrong: Data[23] = %v", x.Data[23])
	}
}

func TestAtOutOfRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for out-of-range index")
		}
	}()
	at(New(2, 2), 2, 0)
}

func TestEye(t *testing.T) {
	e := Eye(4)
	for i := 0; i < 4; i++ {
		for j := 0; j < 4; j++ {
			want := 0.0
			if i == j {
				want = 1.0
			}
			if at(e, i, j) != want {
				t.Errorf("Eye(4)[%d,%d] = %v, want %v", i, j, at(e, i, j), want)
			}
		}
	}
}

func TestReshapeSharesData(t *testing.T) {
	x := FromSlice([]float64{1, 2, 3, 4, 5, 6}, 2, 3)
	y := x.Reshape(3, 2)
	y.Set(99, 0, 0)
	if at(x, 0, 0) != 99 {
		t.Error("Reshape should share backing data")
	}
	if y.Rows() != 3 || y.Cols() != 2 {
		t.Errorf("reshaped dims = %dx%d, want 3x2", y.Rows(), y.Cols())
	}
}

func TestReshapeBadSizePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for bad reshape")
		}
	}()
	New(2, 3).Reshape(4, 2)
}

func TestCloneIndependent(t *testing.T) {
	x := FromSlice([]float64{1, 2, 3}, 3)
	y := x.Clone()
	y.Data[0] = 100
	if x.Data[0] != 1 {
		t.Error("Clone must not share data")
	}
}

func TestElementwiseOps(t *testing.T) {
	x := FromSlice([]float64{1, 2, 3, 4}, 4)
	y := FromSlice([]float64{10, 20, 30, 40}, 4)
	x.AddScaled(1, y)
	want := []float64{11, 22, 33, 44}
	for i := range want {
		if x.Data[i] != want[i] {
			t.Fatalf("AddScaled: got %v", x.Data)
		}
	}
	x.Sub(y)
	for i, w := range []float64{1, 2, 3, 4} {
		if x.Data[i] != w {
			t.Fatalf("Sub: got %v", x.Data)
		}
	}
	x.Scale(2)
	for i, w := range []float64{2, 4, 6, 8} {
		if x.Data[i] != w {
			t.Fatalf("Scale: got %v", x.Data)
		}
	}
}

func TestReductions(t *testing.T) {
	x := FromSlice([]float64{-1, 4, 2, -5}, 4)
	if x.Sum() != 0 {
		t.Errorf("Sum = %v, want 0", x.Sum())
	}
	if x.Mean() != 0 {
		t.Errorf("Mean = %v, want 0", x.Mean())
	}
	if got, want := x.Norm2(), math.Sqrt(1+16+4+25); math.Abs(got-want) > 1e-12 {
		t.Errorf("Norm2 = %v, want %v", got, want)
	}
}

func TestDot(t *testing.T) {
	x := FromSlice([]float64{1, 2, 3}, 3)
	y := FromSlice([]float64{4, 5, 6}, 3)
	if got := x.Dot(y); got != 32 {
		t.Errorf("Dot = %v, want 32", got)
	}
}

func TestArgMaxRow(t *testing.T) {
	m := FromSlice([]float64{
		0.1, 0.7, 0.2,
		0.9, 0.05, 0.05,
	}, 2, 3)
	if m.ArgMaxRow(0) != 1 {
		t.Errorf("ArgMaxRow(0) = %d, want 1", m.ArgMaxRow(0))
	}
	if m.ArgMaxRow(1) != 0 {
		t.Errorf("ArgMaxRow(1) = %d, want 0", m.ArgMaxRow(1))
	}
}

func TestMatMulSmallKnown(t *testing.T) {
	a := FromSlice([]float64{1, 2, 3, 4, 5, 6}, 2, 3)
	b := FromSlice([]float64{7, 8, 9, 10, 11, 12}, 3, 2)
	c := MatMul(a, b)
	want := []float64{58, 64, 139, 154}
	for i := range want {
		if c.Data[i] != want[i] {
			t.Fatalf("MatMul = %v, want %v", c.Data, want)
		}
	}
}

func TestMatMulIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	a := Randn(rng, 1, 17, 17)
	c := MatMul(a, Eye(17))
	if !c.Equal(a, 1e-12) {
		t.Error("A × I != A")
	}
	c2 := MatMul(Eye(17), a)
	if !c2.Equal(a, 1e-12) {
		t.Error("I × A != A")
	}
}

// matmulNaive is the reference 3-loop implementation used to validate the
// blocked/parallel kernels.
func matmulNaive(a, b *Tensor) *Tensor {
	m, k, n := a.Shape[0], a.Shape[1], b.Shape[1]
	c := New(m, n)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			var s float64
			for p := 0; p < k; p++ {
				s += a.Data[i*k+p] * b.Data[p*n+j]
			}
			c.Data[i*n+j] = s
		}
	}
	return c
}

func TestMatMulMatchesNaiveLarge(t *testing.T) {
	// Large enough to trigger the parallel path.
	rng := rand.New(rand.NewSource(2))
	a := Randn(rng, 1, 70, 90)
	b := Randn(rng, 1, 90, 80)
	got := MatMul(a, b)
	want := matmulNaive(a, b)
	if !got.Equal(want, 1e-9) {
		t.Error("parallel MatMul disagrees with naive reference")
	}
}

func TestMatMulT1MatchesTranspose(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	a := Randn(rng, 1, 33, 21)
	b := Randn(rng, 1, 33, 18)
	got := MatMulT1(a, b)
	want := MatMul(Transpose(a), b)
	// Exact: the variants differ only in which packer reads the operand.
	if !got.Equal(want, 0) {
		t.Error("MatMulT1 != Transpose(a)×b")
	}
}

func TestMatMulT2MatchesTranspose(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	a := Randn(rng, 1, 29, 31)
	b := Randn(rng, 1, 23, 31)
	got := MatMulT2(a, b)
	want := MatMul(a, Transpose(b))
	if !got.Equal(want, 0) {
		t.Error("MatMulT2 != a×Transpose(b)")
	}
}

func TestTransposeInvolution(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	a := Randn(rng, 1, 45, 37)
	if !Transpose(Transpose(a)).Equal(a, 0) {
		t.Error("Transpose(Transpose(a)) != a")
	}
}

func TestMatVec(t *testing.T) {
	a := FromSlice([]float64{1, 2, 3, 4, 5, 6}, 2, 3)
	x := FromSlice([]float64{1, 1, 1}, 3)
	y := MatVec(a, x)
	if y.Data[0] != 6 || y.Data[1] != 15 {
		t.Errorf("MatVec = %v, want [6 15]", y.Data)
	}
}

// Property: matmul distributes over addition, (A+B)C = AC + BC.
func TestMatMulDistributiveProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		m, k, n := 1+r.Intn(12), 1+r.Intn(12), 1+r.Intn(12)
		a := Randn(r, 1, m, k)
		b := Randn(r, 1, m, k)
		c := Randn(r, 1, k, n)
		ab := a.Clone()
		ab.AddScaled(1, b)
		left := MatMul(ab, c)
		right := MatMul(a, c)
		right.AddScaled(1, MatMul(b, c))
		return left.Equal(right, 1e-9)
	}
	cfg := &quick.Config{MaxCount: 50, Rand: rng}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// Property: matmul is associative, (AB)C = A(BC).
func TestMatMulAssociativeProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		m, k, p, n := 1+r.Intn(10), 1+r.Intn(10), 1+r.Intn(10), 1+r.Intn(10)
		a := Randn(r, 1, m, k)
		b := Randn(r, 1, k, p)
		c := Randn(r, 1, p, n)
		left := MatMul(MatMul(a, b), c)
		right := MatMul(a, MatMul(b, c))
		return left.Equal(right, 1e-8)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// Property: (AB)ᵀ = BᵀAᵀ.
func TestMatMulTransposeProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		m, k, n := 1+r.Intn(12), 1+r.Intn(12), 1+r.Intn(12)
		a := Randn(r, 1, m, k)
		b := Randn(r, 1, k, n)
		left := Transpose(MatMul(a, b))
		right := MatMul(Transpose(b), Transpose(a))
		return left.Equal(right, 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestIm2ColIdentityKernel(t *testing.T) {
	// 1x1 kernel with stride 1 and no padding is a pure reshuffle: each
	// output row is one pixel across channels.
	x := New(1, 2, 2, 2)
	for i := range x.Data {
		x.Data[i] = float64(i)
	}
	cols := Im2Col(x, 1, 1, 1, 0)
	if cols.Rows() != 4 || cols.Cols() != 2 {
		t.Fatalf("Im2Col 1x1 shape = %v", cols.Shape)
	}
	// Position (0,0): channel 0 value 0, channel 1 value 4.
	if at(cols, 0, 0) != 0 || at(cols, 0, 1) != 4 {
		t.Errorf("Im2Col row 0 = %v", row(cols, 0))
	}
}

func TestIm2ColKnown3x3(t *testing.T) {
	// A 3x3 input with a 3x3 kernel, stride 1, pad 1 gives 9 output
	// positions; the center position sees the whole image.
	x := New(1, 1, 3, 3)
	for i := range x.Data {
		x.Data[i] = float64(i + 1)
	}
	cols := Im2Col(x, 3, 3, 1, 1)
	if cols.Rows() != 9 || cols.Cols() != 9 {
		t.Fatalf("shape = %v", cols.Shape)
	}
	center := row(cols, 4)
	for i := 0; i < 9; i++ {
		if center[i] != float64(i+1) {
			t.Fatalf("center receptive field = %v", center)
		}
	}
	// Corner position (0,0) has zeros where padding was read.
	corner := row(cols, 0)
	wantCorner := []float64{0, 0, 0, 0, 1, 2, 0, 4, 5}
	for i := range wantCorner {
		if corner[i] != wantCorner[i] {
			t.Fatalf("corner receptive field = %v, want %v", corner, wantCorner)
		}
	}
}

// Property: Col2Im is the adjoint of Im2Col — for all x, y:
// <Im2Col(x), y> == <x, Col2Im(y)>. This is exactly the property backprop
// through convolution relies on.
func TestCol2ImAdjointProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n, c := 1+r.Intn(2), 1+r.Intn(3)
		h := 3 + r.Intn(4)
		w := 3 + r.Intn(4)
		k := 1 + 2*r.Intn(2) // 1 or 3
		stride := 1 + r.Intn(2)
		pad := r.Intn(2)
		if (h+2*pad-k) < 0 || (w+2*pad-k) < 0 {
			return true
		}
		x := Randn(r, 1, n, c, h, w)
		cols := Im2Col(x, k, k, stride, pad)
		y := Randn(r, 1, cols.Rows(), cols.Cols())
		lhs := cols.Dot(y)
		back := Col2Im(y, n, c, h, w, k, k, stride, pad)
		rhs := x.Dot(back)
		return math.Abs(lhs-rhs) < 1e-9*(1+math.Abs(lhs))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestConvOutSize(t *testing.T) {
	cases := []struct{ in, k, s, p, want int }{
		{32, 3, 1, 1, 32},
		{32, 3, 2, 1, 16},
		{224, 7, 2, 3, 112},
		{7, 7, 1, 0, 1},
	}
	for _, c := range cases {
		if got := ConvOutSize(c.in, c.k, c.s, c.p); got != c.want {
			t.Errorf("ConvOutSize(%d,%d,%d,%d) = %d, want %d", c.in, c.k, c.s, c.p, got, c.want)
		}
	}
}

func TestStringSmallAndLarge(t *testing.T) {
	small := FromSlice([]float64{1, 2}, 2)
	if small.String() == "" {
		t.Error("empty String for small tensor")
	}
	large := New(10, 10)
	if large.String() == "" {
		t.Error("empty String for large tensor")
	}
}
