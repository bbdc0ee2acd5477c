package tensor

import "fmt"

// Crossing between element types: the slice primitives (Widen, Narrow and the
// widening accumulate), the one tensor-level Convert built on them, and
// Cast/Like — the boundary helper of the mixed-precision path.
//
// Each slice primitive has a portable scalar implementation (always
// compiled; the conformance oracle) and, on amd64 without the purego build
// tag, an AVX2 assembly implementation swapped in at init when the CPU
// supports it (see simd_amd64.go). All three are exact or correctly rounded
// elementwise operations, so the two implementations are bit-identical.
// Narrow is also the one rounding of the GEMM's float32 store.

// Dispatch variables — overwritten by the amd64 SIMD init when available.
var (
	foldAccImpl = foldAccScalar
	widenImpl   = widenScalar
	narrowImpl  = narrowScalar

	// kernelISA names the active implementation for the tests' logs.
	kernelISA = "scalar"
)

// Widen overwrites dst with src converted to float64. Slices must have
// equal length.
func Widen(dst []float64, src []float32) {
	if len(dst) != len(src) {
		panic("tensor: Widen length mismatch")
	}
	widenImpl(dst, src)
}

// Narrow overwrites dst with src rounded to float32. Slices must have
// equal length.
func Narrow(dst []float32, src []float64) {
	if len(dst) != len(src) {
		panic("tensor: Narrow length mismatch")
	}
	narrowImpl(dst, src)
}

// foldAccScalar is the portable acc += widen(src).
func foldAccScalar(acc []float64, src []float32) {
	for i, v := range src {
		acc[i] += float64(v)
	}
}

// widenScalar is the portable float32 → float64 conversion.
func widenScalar(dst []float64, src []float32) {
	for i, v := range src {
		dst[i] = float64(v)
	}
}

// narrowScalar is the portable float64 → float32 rounding.
func narrowScalar(dst []float32, src []float64) {
	for i, v := range src {
		dst[i] = float32(v)
	}
}

// Convert overwrites dst with src converted to dst's element type: exact
// when widening or copying, one correct rounding per element when narrowing.
// Element counts must match; shapes are not reconciled. Converting a tensor
// onto itself is a no-op.
func Convert[D, S Elem](dst *Dense[D], src *Dense[S]) {
	if len(dst.Data) != len(src.Data) {
		panic(fmt.Sprintf("tensor: Convert size mismatch %d vs %d", len(dst.Data), len(src.Data)))
	}
	switch d := any(dst.Data).(type) {
	case []float64:
		switch s := any(src.Data).(type) {
		case []float64:
			copyUnlessSame(d, s)
		case []float32:
			widenImpl(d, s)
		}
	case []float32:
		switch s := any(src.Data).(type) {
		case []float64:
			narrowImpl(d, s)
		case []float32:
			copyUnlessSame(d, s)
		}
	}
}

func copyUnlessSame[E Elem](dst, src []E) {
	if len(dst) > 0 && &dst[0] != &src[0] {
		copy(dst, src)
	}
}

// NarrowFrom overwrites t with the float64 src at t's element type.
func (t *Dense[E]) NarrowFrom(src *Tensor) { Convert(t, src) }

// Accumulate adds src elementwise into the float64 acc — the gradient
// accumulation (W.Grad += dW) of the layer backward passes, which stays
// float64 whatever element type the product dW was formed in. Element counts
// must match.
func Accumulate[S Elem](acc *Tensor, src *Dense[S]) {
	if len(acc.Data) != len(src.Data) {
		panic("tensor: Accumulate size mismatch")
	}
	switch s := any(src.Data).(type) {
	case []float64:
		for i, v := range s {
			acc.Data[i] += v
		}
	case []float32:
		foldAccImpl(acc.Data, s)
	}
}

// Like returns a tensor of element type D shaped like t for a computation
// that stands in for t on the other side of the precision boundary: t itself
// when D is t's own element type — no copy, no allocation — and otherwise
// (*buf)'s storage, resized to t's shape as Ensure does, contents
// unspecified. To bring t's value across use Cast; to take a result back,
// Convert(t, like), which is a no-op when like is t.
func Like[D, S Elem](buf **Dense[D], t *Dense[S]) *Dense[D] {
	if same, ok := any(t).(*Dense[D]); ok {
		return same
	}
	return Ensure(buf, t.Shape...)
}

// Cast returns src at element type D: src itself when it already is — no
// copy, no allocation, *buf untouched — and otherwise src converted into
// (*buf)'s reused storage. This is the one place a value crosses the
// precision boundary of the mixed path, in either direction.
func Cast[D, S Elem](buf **Dense[D], src *Dense[S]) *Dense[D] {
	dst := Like(buf, src)
	Convert(dst, src)
	return dst
}
