package linalg

import (
	"repro/internal/tensor"
)

// AddScaledIdentity returns a + γI without modifying a.
func AddScaledIdentity(a *tensor.Tensor, gamma float64) *tensor.Tensor {
	n := a.Rows()
	out := a.Clone()
	for i := 0; i < n; i++ {
		out.Data[i*n+i] += gamma
	}
	return out
}

// SymmetrizeInPlace replaces a with (a + aᵀ)/2. Covariance factors are
// symmetric in exact arithmetic; this clears accumulated round-off skew
// before decomposition.
func SymmetrizeInPlace(a *tensor.Tensor) {
	n := a.Rows()
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			v := 0.5 * (a.Data[i*n+j] + a.Data[j*n+i])
			a.Data[i*n+j] = v
			a.Data[j*n+i] = v
		}
	}
}

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
