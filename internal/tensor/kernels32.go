package tensor

// Float32 ↔ float64 conversion primitives: what the mixed-precision path
// moves data across its boundary with, and (Narrow) the one rounding of the
// GEMM's float32 store.
//
// Each primitive has a portable scalar implementation (always compiled; the
// conformance oracle) and, on amd64 without the purego build tag, an AVX2
// assembly implementation swapped in at init when the CPU supports it (see
// simd_amd64.go). All three are exact or correctly rounded elementwise
// operations, so the two implementations are bit-identical.

// Dispatch variables — overwritten by the amd64 SIMD init when available.
var (
	foldAccImpl = foldAccScalar
	widenImpl   = widenScalar
	narrowImpl  = narrowScalar

	// kernelISA names the active implementation for logs and tests.
	kernelISA = "scalar"
)

// KernelISA reports which implementation of the conversion primitives and
// of the GEMM kernel set is active: "scalar" (portable Go, and always under
// the purego build tag) or "avx2+fma" (amd64 assembly).
func KernelISA() string { return kernelISA }

// FoldAcc32 accumulates acc += float64(src) elementwise — the widening
// gradient accumulation (W.Grad += widen(dW₃₂)) of the f32 layer backward
// passes. Slices must have equal length.
func FoldAcc32(acc []float64, src []float32) {
	if len(acc) != len(src) {
		panic("tensor: FoldAcc32 length mismatch")
	}
	foldAccImpl(acc, src)
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
