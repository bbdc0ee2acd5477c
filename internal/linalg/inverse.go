package linalg

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/tensor"
)

// ErrSingular is returned when a matrix is numerically singular.
var ErrSingular = errors.New("linalg: matrix is singular")

// InverseDamped returns (A + γI)⁻¹ — the Tikhonov-regularized inverse of
// Equation (11) in the paper — by Gauss–Jordan elimination with partial
// pivoting (γ = 0 gives the plain inverse). K-FAC's inverse mode computes
// the same preconditioner from the factors' eigendecompositions; this
// explicit form is the oracle its tests hold it to.
//
// InverseDamped is reentrant: the input is cloned before elimination and no
// package state is shared, so concurrent calls are safe.
func InverseDamped(a *tensor.Tensor, gamma float64) (*tensor.Tensor, error) {
	n := a.Rows()
	if a.Cols() != n {
		return nil, fmt.Errorf("linalg: InverseDamped requires square matrix, got %dx%d", a.Rows(), a.Cols())
	}
	// Augment [A+γI | I] and reduce in place.
	m := a.Clone()
	for i := 0; i < n; i++ {
		m.Data[i*n+i] += gamma
	}
	inv := tensor.Eye(n)
	for col := 0; col < n; col++ {
		// Partial pivot: find the largest magnitude entry in this column.
		pivot := col
		maxAbs := math.Abs(m.Data[col*n+col])
		for r := col + 1; r < n; r++ {
			if v := math.Abs(m.Data[r*n+col]); v > maxAbs {
				maxAbs = v
				pivot = r
			}
		}
		if maxAbs == 0 {
			return nil, ErrSingular
		}
		if pivot != col {
			swapRows(m.Data, n, pivot, col)
			swapRows(inv.Data, n, pivot, col)
		}
		// Scale pivot row.
		p := m.Data[col*n+col]
		invP := 1 / p
		for j := 0; j < n; j++ {
			m.Data[col*n+j] *= invP
			inv.Data[col*n+j] *= invP
		}
		// Eliminate all other rows.
		for r := 0; r < n; r++ {
			if r == col {
				continue
			}
			f := m.Data[r*n+col]
			if f == 0 {
				continue
			}
			for j := 0; j < n; j++ {
				m.Data[r*n+j] -= f * m.Data[col*n+j]
				inv.Data[r*n+j] -= f * inv.Data[col*n+j]
			}
		}
	}
	return inv, nil
}

func swapRows(data []float64, n, i, j int) {
	ri := data[i*n : (i+1)*n]
	rj := data[j*n : (j+1)*n]
	for k := 0; k < n; k++ {
		ri[k], rj[k] = rj[k], ri[k]
	}
}
