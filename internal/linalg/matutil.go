package linalg

import (
	"repro/internal/tensor"
)

// IsSymmetric reports whether a is symmetric to within tol.
func IsSymmetric(a *tensor.Tensor, tol float64) bool {
	n := a.Rows()
	if a.Cols() != n {
		return false
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			d := a.Data[i*n+j] - a.Data[j*n+i]
			if d < -tol || d > tol {
				return false
			}
		}
	}
	return true
}
