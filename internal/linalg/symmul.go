package linalg

import "repro/internal/tensor"

// SymMulT1Into computes the Gram matrix dst = aᵀ × a for a (k×m), writing
// an m×m result; dst must not alias a. Because the result is symmetric,
// only the micro-tiles that meet the upper triangle are computed (about half
// the multiply-adds of a general matmul) and the lower triangle is mirrored.
// K-FAC's covariance factors skip the mirror here: their fold reads the
// upper triangle of tensor.MatMulT1UpperInto and mirrors as it averages.
//
// The result is bit-identical to tensor.MatMulT1Into(dst, a, a) for every
// input, non-finite ones included: the upper triangle comes out of the same
// driver and micro-kernel (tensor.MatMulT1UpperInto), so each element is the
// same k-ascending fused multiply-add chain, and the general product is
// itself bitwise symmetric — elements (i, j) and (j, i) chain the same
// products a[p][i]·a[p][j] in the same order — so the mirror copies exactly
// what the general kernel would have computed below the diagonal.
//
// At float32 it is that product on the widened operands rounded once
// (tensor/gemm.go), so still bitwise symmetric.
func SymMulT1Into[E tensor.Elem](dst, a *tensor.Dense[E]) {
	m := a.Shape[1]
	if dst.Shape[0] != m || dst.Shape[1] != m {
		panic("linalg: SymMulT1Into shape mismatch")
	}
	tensor.MatMulT1UpperInto(dst, a)
	mirrorLower(dst.Data, m)
}

// SymMulT1Into32 is SymMulT1Into at float32, by the name the benchmark calls.
func SymMulT1Into32(dst, a *tensor.T32) { SymMulT1Into(dst, a) }

// SymMulT1 returns aᵀ × a for a (k×m) as a freshly allocated m×m tensor.
func SymMulT1(a *tensor.Tensor) *tensor.Tensor {
	dst := tensor.New(a.Shape[1], a.Shape[1])
	SymMulT1Into(dst, a)
	return dst
}

// mirrorLower copies the computed upper triangle into the lower one, in
// square tiles so the column-wise reads stay within a few cache lines.
func mirrorLower[E float32 | float64](dst []E, m int) {
	const tb = 32
	for ib := 0; ib < m; ib += tb {
		imax := min(ib+tb, m)
		for jb := 0; jb <= ib; jb += tb {
			for i := ib; i < imax; i++ {
				row := dst[i*m : i*m+min(jb+tb, i)]
				for j := jb; j < len(row); j++ {
					row[j] = dst[j*m+i]
				}
			}
		}
	}
}
