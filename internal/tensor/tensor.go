// Package tensor implements dense, row-major tensors and the numerical
// kernels the rest of the repository builds on: elementwise arithmetic,
// reductions, blocked and goroutine-parallel matrix multiply, transposition,
// and the patch lowering of channels-last convolution and its adjoint.
//
// The package is deliberately small and allocation-conscious: a tensor is a
// shape plus a flat slice, most operations have an in-place or
// destination-passing variant, and the parallel kernels split work across
// runtime.GOMAXPROCS(0) goroutines only when the problem is large enough to
// amortize the spawn cost.
//
// There is one tensor type, Dense, generic over its element type. Tensor
// (float64) is what parameters, gradients, factors, the wire and checkpoints
// are made of; T32 (float32) is the storage of the mixed-precision compute
// path. Code that is the same at both widths is written once over Elem, and
// Cast/Like are where a value crosses between them (docs/ARCHITECTURE.md,
// "convert at the boundary").
package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
)

// Elem is the element type of a tensor.
type Elem interface{ float32 | float64 }

// Dense is a dense, row-major tensor. Data holds the elements contiguously;
// Shape holds the extent of each dimension. A tensor with an empty shape is a
// scalar with a single element.
type Dense[E Elem] struct {
	Shape []int
	Data  []E
}

// Tensor is the float64 tensor and T32 the float32 one.
type (
	Tensor = Dense[float64]
	T32    = Dense[float32]
)

// NewDense returns a zero-filled tensor of the given shape and element type.
func NewDense[E Elem](shape ...int) *Dense[E] {
	n := 1
	for _, s := range shape {
		if s < 0 {
			panic(fmt.Sprintf("tensor: negative dimension %d in shape %v", s, shape))
		}
		n *= s
	}
	return &Dense[E]{Shape: append([]int(nil), shape...), Data: make([]E, n)}
}

// New returns a zero-filled float64 tensor of the given shape.
func New(shape ...int) *Tensor { return NewDense[float64](shape...) }

// NewT32 returns a zero-filled float32 tensor of the given shape.
func NewT32(shape ...int) *T32 { return NewDense[float32](shape...) }

// FromSlice wraps data in a tensor of the given shape. The slice is used
// directly (not copied); it must have exactly the number of elements the
// shape implies.
func FromSlice[E Elem](data []E, shape ...int) *Dense[E] {
	n := 1
	for _, s := range shape {
		n *= s
	}
	if n != len(data) {
		panic(fmt.Sprintf("tensor: shape %v needs %d elements, got %d", shape, n, len(data)))
	}
	return &Dense[E]{Shape: append([]int(nil), shape...), Data: data}
}

// Ones returns a tensor of the given shape filled with 1.
func Ones(shape ...int) *Tensor {
	t := New(shape...)
	for i := range t.Data {
		t.Data[i] = 1
	}
	return t
}

// Full returns a tensor of the given shape filled with v.
func Full(v float64, shape ...int) *Tensor {
	t := New(shape...)
	for i := range t.Data {
		t.Data[i] = v
	}
	return t
}

// Eye returns the n×n identity matrix.
func Eye(n int) *Tensor {
	t := New(n, n)
	for i := 0; i < n; i++ {
		t.Data[i*n+i] = 1
	}
	return t
}

// Randn fills a new tensor of the given shape with samples from
// N(0, std²) drawn from rng.
func Randn(rng *rand.Rand, std float64, shape ...int) *Tensor {
	t := New(shape...)
	for i := range t.Data {
		t.Data[i] = rng.NormFloat64() * std
	}
	return t
}

// Len returns the total number of elements.
func (t *Dense[E]) Len() int { return len(t.Data) }

// NDim returns the number of dimensions.
func (t *Dense[E]) NDim() int { return len(t.Shape) }

// Rows returns the first dimension of a matrix.
func (t *Dense[E]) Rows() int { return t.Shape[0] }

// Cols returns the second dimension of a matrix.
func (t *Dense[E]) Cols() int { return t.Shape[1] }

// Set assigns v to the element at the given multi-index.
func (t *Dense[E]) Set(v E, idx ...int) {
	t.Data[t.offset(idx)] = v
}

func (t *Dense[E]) offset(idx []int) int {
	if len(idx) != len(t.Shape) {
		panic(fmt.Sprintf("tensor: index %v does not match shape %v", idx, t.Shape))
	}
	off := 0
	for i, x := range idx {
		if x < 0 || x >= t.Shape[i] {
			panic(fmt.Sprintf("tensor: index %v out of range for shape %v", idx, t.Shape))
		}
		off = off*t.Shape[i] + x
	}
	return off
}

// Clone returns a deep copy.
func (t *Dense[E]) Clone() *Dense[E] {
	c := NewDense[E](t.Shape...)
	copy(c.Data, t.Data)
	return c
}

// CopyFrom copies src's data into t. Shapes must have equal element counts.
func (t *Dense[E]) CopyFrom(src *Dense[E]) {
	if len(t.Data) != len(src.Data) {
		panic(fmt.Sprintf("tensor: CopyFrom size mismatch %d vs %d", len(t.Data), len(src.Data)))
	}
	copy(t.Data, src.Data)
}

// Reshape returns a tensor sharing t's data with a new shape. The element
// count must match.
func (t *Dense[E]) Reshape(shape ...int) *Dense[E] {
	n := 1
	for _, s := range shape {
		n *= s
	}
	if n != len(t.Data) {
		panic(fmt.Sprintf("tensor: cannot reshape %v (%d elems) to %v (%d elems)",
			t.Shape, len(t.Data), shape, n))
	}
	return &Dense[E]{Shape: append([]int(nil), shape...), Data: t.Data}
}

// SameShape reports whether t and o have identical shapes.
func (t *Dense[E]) SameShape(o *Dense[E]) bool {
	if len(t.Shape) != len(o.Shape) {
		return false
	}
	for i := range t.Shape {
		if t.Shape[i] != o.Shape[i] {
			return false
		}
	}
	return true
}

// Zero sets every element to 0.
func (t *Dense[E]) Zero() { clear(t.Data) }

// Scale multiplies every element by a.
func (t *Dense[E]) Scale(a E) {
	for i := range t.Data {
		t.Data[i] *= a
	}
}

// AddScaled adds a*o elementwise into t (axpy).
func (t *Dense[E]) AddScaled(a E, o *Dense[E]) {
	if len(t.Data) != len(o.Data) {
		panic("tensor: AddScaled size mismatch")
	}
	for i := range t.Data {
		t.Data[i] += a * o.Data[i]
	}
}

// Sub subtracts o elementwise from t.
func (t *Dense[E]) Sub(o *Dense[E]) { t.AddScaled(-1, o) }

// Dot returns the inner product of t and o viewed as flat vectors.
func (t *Dense[E]) Dot(o *Dense[E]) E {
	if len(t.Data) != len(o.Data) {
		panic("tensor: Dot size mismatch")
	}
	var s E
	for i := range t.Data {
		s += t.Data[i] * o.Data[i]
	}
	return s
}

// Sum returns the sum of all elements.
func (t *Dense[E]) Sum() E {
	var s E
	for _, v := range t.Data {
		s += v
	}
	return s
}

// Mean returns the arithmetic mean of all elements.
func (t *Dense[E]) Mean() E {
	if len(t.Data) == 0 {
		return 0
	}
	return t.Sum() / E(len(t.Data))
}

// Norm2 returns the Euclidean (Frobenius) norm.
func (t *Dense[E]) Norm2() E {
	var s E
	for _, v := range t.Data {
		s += v * v
	}
	return E(math.Sqrt(float64(s)))
}

// ArgMaxRow returns the index of the maximum element in row r of a matrix.
func (t *Dense[E]) ArgMaxRow(r int) int {
	if t.NDim() != 2 {
		panic("tensor: ArgMaxRow requires a matrix")
	}
	cols := t.Shape[1]
	row := t.Data[r*cols : (r+1)*cols]
	best := 0
	for j := 1; j < cols; j++ {
		if row[j] > row[best] {
			best = j
		}
	}
	return best
}

// Equal reports whether t and o have the same shape and all elements within
// tol of each other.
func (t *Dense[E]) Equal(o *Dense[E], tol float64) bool {
	if !t.SameShape(o) {
		return false
	}
	for i := range t.Data {
		if math.Abs(float64(t.Data[i]-o.Data[i])) > tol {
			return false
		}
	}
	return true
}

// String renders small tensors fully and large ones as a summary.
func (t *Dense[E]) String() string {
	if len(t.Data) > 64 {
		return fmt.Sprintf("Tensor%v{n=%d, mean=%.4g, norm=%.4g}",
			t.Shape, len(t.Data), t.Mean(), t.Norm2())
	}
	var b strings.Builder
	fmt.Fprintf(&b, "Tensor%v%v", t.Shape, t.Data)
	return b.String()
}
