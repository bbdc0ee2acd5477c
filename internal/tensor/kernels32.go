package tensor

// Float32 vector primitives behind the precision-pluggable kernel layer.
//
// Each primitive has a portable scalar implementation (always compiled; the
// conformance oracle) and, on amd64 without the purego build tag, an
// AVX2+FMA assembly implementation swapped in at init when the CPU supports
// it (see simd_amd64.go). The exported wrappers dispatch through package
// function variables so the choice is a single indirect call — measured
// ~10× on the 4-wide axpy kernel that dominates the K-FAC step.
//
// Numeric contract: the fast and scalar paths may round differently (FMA
// fuses the multiply-add; lane sums reassociate), so cross-implementation
// tests are tolerance-based, never bit-exact. The float64 GEMM (gemm.go) is
// the opposite case: its assembly and portable kernel sets are bit-identical
// by definition.

// dotChunk32 bounds the number of float32 products summed in working
// precision before the chunk total is widened to float64: DotAcc32 combines
// chunk sums in float64, so worst-case float32 accumulation error stays
// O(dotChunk32·ε₃₂) regardless of the full inner-product length.
const dotChunk32 = 512

// Dispatch variables — overwritten by the amd64 SIMD init when available.
var (
	axpy32Impl   = axpy32Scalar
	dotAcc32Impl = dotAcc32Scalar
	foldAccImpl  = foldAccScalar
	rot32Impl    = rot32Scalar
	widenImpl    = widenScalar
	narrowImpl   = narrowScalar

	// kernelISA names the active implementation for logs and tests.
	kernelISA = "scalar"
)

// KernelISA reports which implementation of the float32 kernel primitives
// and of the float64 GEMM kernel set is active: "scalar" (portable Go, and
// always under the purego build tag) or "avx2+fma" (amd64 assembly).
func KernelISA() string { return kernelISA }

// Axpy32 computes dst += a*src elementwise in float32. Slices must have
// equal length and must not overlap.
func Axpy32(dst, src []float32, a float32) {
	if len(dst) != len(src) {
		panic("tensor: Axpy32 length mismatch")
	}
	axpy32Impl(dst, src, a)
}

// DotAcc32 returns the inner product of a and b. Products are accumulated
// in working precision within chunks of at most dotChunk32 elements; chunk
// totals are summed in float64, bounding the accumulation error
// independently of the vector length (the "float32 compute, float64
// accumulate" discipline of the mixed-precision path).
func DotAcc32(a, b []float32) float64 {
	if len(a) != len(b) {
		panic("tensor: DotAcc32 length mismatch")
	}
	var s float64
	for len(a) > dotChunk32 {
		s += dotAcc32Impl(a[:dotChunk32], b[:dotChunk32])
		a, b = a[dotChunk32:], b[dotChunk32:]
	}
	return s + dotAcc32Impl(a, b)
}

// FoldAcc32 accumulates acc += float64(src) elementwise — the chunk-fold
// step of the float64-accumulating matmul kernels, and the widening
// gradient accumulation (W.Grad += widen(dW₃₂)) of the f32 layer backward
// passes. Slices must have equal length.
func FoldAcc32(acc []float64, src []float32) {
	if len(acc) != len(src) {
		panic("tensor: FoldAcc32 length mismatch")
	}
	foldAccImpl(acc, src)
}

// Rot32 applies the plane rotation (x, y) ← (c·x − s·y, s·x + c·y)
// elementwise — the vectorized row update of the float32 Jacobi
// eigendecomposition sweeps. Slices must have equal length and must not
// overlap.
func Rot32(x, y []float32, c, s float32) {
	if len(x) != len(y) {
		panic("tensor: Rot32 length mismatch")
	}
	rot32Impl(x, y, c, s)
}

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

// axpy32Scalar is the portable dst += a*src with 4-way unrolling.
func axpy32Scalar(dst, src []float32, a float32) {
	n := len(dst)
	i := 0
	for ; i+4 <= n; i += 4 {
		dst[i] += a * src[i]
		dst[i+1] += a * src[i+1]
		dst[i+2] += a * src[i+2]
		dst[i+3] += a * src[i+3]
	}
	for ; i < n; i++ {
		dst[i] += a * src[i]
	}
}

// dotAcc32Scalar accumulates one chunk's products directly in float64 with
// 4 partial sums — at chunk granularity this is at least as accurate as the
// SIMD path's float32 lanes, so it doubles as the conformance oracle.
func dotAcc32Scalar(a, b []float32) float64 {
	var s0, s1, s2, s3 float64
	n := len(a)
	i := 0
	for ; i+4 <= n; i += 4 {
		s0 += float64(a[i]) * float64(b[i])
		s1 += float64(a[i+1]) * float64(b[i+1])
		s2 += float64(a[i+2]) * float64(b[i+2])
		s3 += float64(a[i+3]) * float64(b[i+3])
	}
	for ; i < n; i++ {
		s0 += float64(a[i]) * float64(b[i])
	}
	return s0 + s1 + s2 + s3
}

// foldAccScalar is the portable acc += widen(src).
func foldAccScalar(acc []float64, src []float32) {
	for i, v := range src {
		acc[i] += float64(v)
	}
}

// rot32Scalar is the portable plane rotation.
func rot32Scalar(x, y []float32, c, s float32) {
	for i := range x {
		xi, yi := x[i], y[i]
		x[i] = c*xi - s*yi
		y[i] = s*xi + c*yi
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
