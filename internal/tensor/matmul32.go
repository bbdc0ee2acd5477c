package tensor

// Float32 matmul family: the entry points of gemm.go's driver at element
// type float32. Each is its float64 namesake on the widened operands,
// rounded to float32 once — MatMulInto32(dst, a, b) equals
// Narrow(MatMulInto(Widen(a), Widen(b))) bit for bit — so the float64
// contract (k-ascending FMA chain, bit-identical across tiles, workers and
// builds, NaN/Inf propagate, an aliased destination panics) is theirs too.

// MatMulInto32 computes dst = a × b for float32 matrices a (m×k) and
// b (k×n), writing the m×n result over dst.
func MatMulInto32(dst, a, b *T32) {
	m, k := a.Shape[0], a.Shape[1]
	n := b.Shape[1]
	if b.Shape[0] != k || dst.Shape[0] != m || dst.Shape[1] != n {
		panic("tensor: MatMulInto32 shape mismatch")
	}
	gemm(&gemmActive, dst.Data, a.Data, b.Data, m, n, k, false, false, false)
}

// MatMulT1Into32 computes dst = aᵀ × b for float32 matrices a (k×m) and
// b (k×n), writing the m×n result over dst.
func MatMulT1Into32(dst, a, b *T32) {
	k, m := a.Shape[0], a.Shape[1]
	n := b.Shape[1]
	if b.Shape[0] != k || dst.Shape[0] != m || dst.Shape[1] != n {
		panic("tensor: MatMulT1Into32 shape mismatch")
	}
	gemm(&gemmActive, dst.Data, a.Data, b.Data, m, n, k, true, false, false)
}

// MatMulT1UpperInto32 is MatMulT1UpperInto for a float32 a (k×m): the upper
// triangle of dst = aᵀ × a, elements below the diagonal unspecified. It is
// the kernel under linalg.SymMulT1Into32.
func MatMulT1UpperInto32(dst, a *T32) {
	k, m := a.Shape[0], a.Shape[1]
	if dst.Shape[0] != m || dst.Shape[1] != m {
		panic("tensor: MatMulT1UpperInto32 shape mismatch")
	}
	gemm(&gemmActive, dst.Data, a.Data, a.Data, m, m, k, true, false, true)
}

// MatMulT2Into32 computes dst = a × bᵀ for float32 matrices a (m×k) and
// b (n×k), writing the m×n result over dst.
func MatMulT2Into32(dst, a, b *T32) {
	m, k := a.Shape[0], a.Shape[1]
	n := b.Shape[0]
	if b.Shape[1] != k || dst.Shape[0] != m || dst.Shape[1] != n {
		panic("tensor: MatMulT2Into32 shape mismatch")
	}
	gemm(&gemmActive, dst.Data, a.Data, b.Data, m, n, k, false, true, false)
}
