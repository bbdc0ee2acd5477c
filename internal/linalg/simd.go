package linalg

// Dispatch variables for the float64 kernel primitives of the blocked
// eigensolver. The portable scalar implementations below are the defaults;
// simd_amd64.go swaps in AVX2+FMA versions at init when internal/tensor
// chose a kernel level of at least AVX2 (tensor.HasAVX2; never under -tags
// purego).
//
// Determinism note: the dispatch is global per process, so every chunk of
// every parallel pass uses the same kernel — results stay bitwise
// identical across team sizes and repeated runs within a build. The
// kernels are called on whole vectors whose extent is fixed by the matrix,
// never by the chunk grid, so an element's bits never depend on which
// chunk computes it.
var (
	// eigDot is the fixed-order inner product.
	eigDot func(a, b []float64) float64 = eigDot4
	// eigAxpy computes dst[i] += a*src[i].
	eigAxpy func(dst, src []float64, a float64) = eigAxpyGeneric
)

// eigAxpyGeneric is the portable dst += a*src.
func eigAxpyGeneric(dst, src []float64, a float64) {
	for i, s := range src {
		dst[i] += a * s
	}
}
