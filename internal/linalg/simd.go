package linalg

// Dispatch variables for the float64 kernel primitives of the blocked
// eigensolver. The portable scalar implementations below are the defaults;
// simd_amd64.go swaps in AVX2+FMA versions at init when the CPU and OS
// support them (and the build is not -tags purego).
//
// Determinism note: the dispatch is global per process, so every chunk of
// every parallel pass uses the same kernel — results stay bitwise
// identical across team sizes and repeated runs within a build. The QL
// lane pass splits n lanes into full qlLanes-wide blocks and one n mod
// qlLanes remainder; under the AVX dispatch the remainder takes a scalar
// loop that performs the packed body's fused operations (math.FMA), so an
// element's bits never depend on which block it falls in.
var (
	// eigDot is the fixed-order inner product.
	eigDot func(a, b []float64) float64 = eigDot4
	// eigAxpy computes dst[i] += a*src[i].
	eigAxpy func(dst, src []float64, a float64) = eigAxpyGeneric
	// rotLanes applies one recorded QL sweep to w ≤ qlLanes lanes of the
	// transposed eigenbasis (see rotLanesGeneric).
	rotLanes func(q []float64, n, w int, cs []float64) = rotLanesGeneric

	// eigKernelISA names the active float64 kernel set ("generic" or
	// "avx2+fma"); surfaced by tests and benchmarks.
	eigKernelISA = "generic"
)

// eigAxpyGeneric is the portable dst += a*src.
func eigAxpyGeneric(dst, src []float64, a float64) {
	for i, s := range src {
		dst[i] += a * s
	}
}

// rotLanesGeneric applies one recorded sweep to w ≤ qlLanes lanes of the
// transposed eigenbasis: q[0:w] is row l of Qᵀ, q[nrot·n : nrot·n+w] row
// m, and rotation t = 0..nrot−1 (the pair cs[2t], cs[2t+1]) acts on rows
// (m−1−t, m−t). Each lane runs tql2's column update as a carry chain:
// carry is the running value of the right row, and each step's two writes
// are the serial pair's expressions, so every element gets the serial
// tql2 arithmetic.
func rotLanesGeneric(q []float64, n, w int, cs []float64) {
	nrot := len(cs) / 2
	var carry [qlLanes]float64
	copy(carry[:w], q[nrot*n:nrot*n+w])
	for t := 0; t < nrot; t++ {
		p := (nrot - 1 - t) * n
		c, s := cs[2*t], cs[2*t+1]
		x := q[p : p+w]
		out := q[p+n : p+n+w]
		for j, xj := range x {
			out[j] = s*xj + c*carry[j]
			carry[j] = c*xj - s*carry[j]
		}
	}
	copy(q[:w], carry[:w])
}
