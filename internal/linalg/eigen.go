// Package linalg provides the dense linear-algebra kernels K-FAC needs:
// symmetric eigendecomposition (the paper's implicit-inverse path, §IV-A),
// explicit matrix inversion with partial pivoting (the ablated path), and
// the blocked symmetric Gram product.
//
// All routines operate on tensor.Tensor matrices and are written against the
// standard library only. K-FAC's eigensolver, SymEigBlockedInto
// (eigen_blocked.go), reduces a factor to tridiagonal form with blocked
// Householder reflectors, solves the tridiagonal by divide and conquer
// (eigen_dc.go) and applies the reflectors to its eigenvectors, every step
// bitwise independent of the worker team. Between full solves K-FAC
// refreshes a decomposition with SymEigPowerInto (eigen_power.go), one
// step of orthogonal iteration from the previous basis. Below 128 columns, and as the
// tests' oracle, it is the serial pair SymEigInto runs: Householder
// tridiagonalization and the implicit-shift QL iteration — a faithful port
// of the public-domain JAMA tred2/tql2 pair, whose tql2 also solves the
// divide and conquer's leaves. Both are O(n³), numerically robust for the
// symmetric positive-semidefinite covariance factors K-FAC produces, and
// reconstruct A = QΛQᵀ to ~1e-10 at the factor sizes of the ResNets.
package linalg

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/tensor"
)

// ErrNoConvergence is returned when the QL iteration fails to drive an
// off-diagonal element to zero within the iteration budget, or the blocked
// solver's tridiagonal form is not finite. In practice this only happens for
// matrices containing NaN/Inf or entries near math.MaxFloat64.
var ErrNoConvergence = errors.New("linalg: eigendecomposition did not converge")

// Eigen holds the eigendecomposition A = Q diag(Values) Qᵀ of a symmetric
// matrix. Q's columns are the eigenvectors and Values[j] belongs to column
// j. After a full solve (SymEigInto, SymEigBlockedInto) Values are
// ascending; after a power refresh (SymEigPowerInto) they are in Q's
// column order, which is descending in the previous values, and Values[j]
// is the Rayleigh quotient of column j, an approximate eigenvalue. K-FAC
// reads them per column only.
//
// An Eigen may be reused across decompositions via SymEigInto, which
// recycles Q, Values, and the internal tridiagonal scratch so steady-state
// redecomposition allocates nothing.
type Eigen struct {
	Q      *tensor.Tensor // n×n, column j is the eigenvector for Values[j]
	Values []float64      // eigenvalues, in Q's column order

	scratch []float64 // sub-diagonal workspace reused by SymEigInto
}

// SymEig computes the eigendecomposition of symmetric matrix a. The input is
// not modified. Asymmetry up to round-off is tolerated: the routine operates
// on (A+Aᵀ)/2.
//
// SymEig is the serial reference solver: the tests hold the blocked solver
// (SymEigBlockedInto, the one K-FAC runs) to it. It is reentrant: it touches
// no package state and works on private copies, so concurrent calls on
// distinct (or even shared, unmutated) inputs are safe; see
// TestConcurrentSymEigMatchesSerial.
func SymEig(a *tensor.Tensor) (*Eigen, error) {
	eg := &Eigen{}
	if err := SymEigInto(a, eg); err != nil {
		return nil, err
	}
	return eg, nil
}

// SymEigInto is SymEig writing the decomposition into eg, reusing eg's Q,
// Values, and internal scratch when their capacity suffices, so a repeated
// decomposition allocates nothing. The input is validated (NaN/Inf
// rejected) before eg is touched; on a convergence error eg's contents are
// unspecified (the product path, SymEigBlockedInto, leaves eg untouched on
// every error).
func SymEigInto(a *tensor.Tensor, eg *Eigen) error {
	n := a.Rows()
	if a.Cols() != n {
		return fmt.Errorf("linalg: SymEig requires square matrix, got %dx%d", a.Rows(), a.Cols())
	}
	for _, x := range a.Data {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return fmt.Errorf("linalg: SymEig input contains NaN/Inf")
		}
	}
	v := tensor.Ensure(&eg.Q, n, n)
	if n == 0 {
		eg.Values = eg.Values[:0]
		return nil
	}
	// Work on the symmetrized copy.
	symmetrize(v.Data, a.Data, n)
	d := ensureFloats(&eg.Values, n)  // diagonal of the tridiagonal form
	e := ensureFloats(&eg.scratch, n) // sub-diagonal
	tred2(v.Data, n, d, e)
	return tql2(v.Data, n, d, e)
}

// SetFrom overwrites the decomposition with n eigenvalues and an n×n
// eigenvector matrix copied from the given flat slices, reusing eg's
// storage when possible. It is the deserialization path of K-FAC's
// decomposition allgather.
func (eg *Eigen) SetFrom(values, q []float64, n int) {
	copy(ensureFloats(&eg.Values, n), values)
	copy(tensor.Ensure(&eg.Q, n, n).Data, q)
}

// ensureFloats returns a length-n slice backed by (*buf)'s storage when its
// capacity suffices, else a fresh allocation, storing the result back into
// *buf — the slice form of tensor.Ensure. Contents are unspecified.
func ensureFloats(buf *[]float64, n int) []float64 {
	if cap(*buf) >= n {
		*buf = (*buf)[:n]
	} else {
		*buf = make([]float64, n)
	}
	return *buf
}

// tred2 reduces a symmetric matrix (stored in v, row-major n×n) to
// tridiagonal form by Householder similarity transformations, accumulating
// the orthogonal transformation in v. On return d holds the diagonal and e
// the sub-diagonal (e[0] = 0). JAMA EigenvalueDecomposition.tred2 port.
func tred2(v []float64, n int, d, e []float64) {
	for j := 0; j < n; j++ {
		d[j] = v[(n-1)*n+j]
	}
	// Householder reduction to tridiagonal form.
	for i := n - 1; i > 0; i-- {
		// Scale to avoid under/overflow.
		scale := 0.0
		h := 0.0
		for k := 0; k < i; k++ {
			scale += math.Abs(d[k])
		}
		if scale == 0 {
			e[i] = d[i-1]
			for j := 0; j < i; j++ {
				d[j] = v[(i-1)*n+j]
				v[i*n+j] = 0
				v[j*n+i] = 0
			}
		} else {
			// Generate Householder vector.
			for k := 0; k < i; k++ {
				d[k] /= scale
				h += d[k] * d[k]
			}
			f := d[i-1]
			g := math.Sqrt(h)
			if f > 0 {
				g = -g
			}
			e[i] = scale * g
			h -= f * g
			d[i-1] = f - g
			for j := 0; j < i; j++ {
				e[j] = 0
			}
			// Apply similarity transformation to remaining columns.
			for j := 0; j < i; j++ {
				f = d[j]
				v[j*n+i] = f
				g = e[j] + v[j*n+j]*f
				for k := j + 1; k <= i-1; k++ {
					g += v[k*n+j] * d[k]
					e[k] += v[k*n+j] * f
				}
				e[j] = g
			}
			f = 0
			for j := 0; j < i; j++ {
				e[j] /= h
				f += e[j] * d[j]
			}
			hh := f / (h + h)
			for j := 0; j < i; j++ {
				e[j] -= hh * d[j]
			}
			for j := 0; j < i; j++ {
				f = d[j]
				g = e[j]
				for k := j; k <= i-1; k++ {
					v[k*n+j] -= f*e[k] + g*d[k]
				}
				d[j] = v[(i-1)*n+j]
				v[i*n+j] = 0
			}
		}
		d[i] = h
	}
	// Accumulate transformations.
	for i := 0; i < n-1; i++ {
		v[(n-1)*n+i] = v[i*n+i]
		v[i*n+i] = 1
		h := d[i+1]
		if h != 0 {
			for k := 0; k <= i; k++ {
				d[k] = v[k*n+i+1] / h
			}
			for j := 0; j <= i; j++ {
				g := 0.0
				for k := 0; k <= i; k++ {
					g += v[k*n+i+1] * v[k*n+j]
				}
				for k := 0; k <= i; k++ {
					v[k*n+j] -= g * d[k]
				}
			}
		}
		for k := 0; k <= i; k++ {
			v[k*n+i+1] = 0
		}
	}
	for j := 0; j < n; j++ {
		d[j] = v[(n-1)*n+j]
		v[(n-1)*n+j] = 0
	}
	v[(n-1)*n+n-1] = 1
	e[0] = 0
}

// maxQLIter bounds the implicit-shift QL sweeps per eigenvalue.
const maxQLIter = 60

// tql2 computes eigenvalues and eigenvectors of a symmetric tridiagonal
// matrix by the QL algorithm with implicit shifts, accumulating the
// transformations into v (which on entry holds the tred2 output). On return
// d holds ascending eigenvalues and v's columns the eigenvectors.
// JAMA EigenvalueDecomposition.tql2 port.
func tql2(v []float64, n int, d, e []float64) error {
	for i := 1; i < n; i++ {
		e[i-1] = e[i]
	}
	e[n-1] = 0

	f := 0.0
	tst1 := 0.0
	const eps = 2.220446049250313e-16 // 2^-52
	for l := 0; l < n; l++ {
		// Find small subdiagonal element.
		if t := math.Abs(d[l]) + math.Abs(e[l]); t > tst1 {
			tst1 = t
		}
		m := l
		for m < n {
			if math.Abs(e[m]) <= eps*tst1 {
				break
			}
			m++
		}
		// If m == l, d[l] is an eigenvalue; otherwise iterate.
		if m > l {
			for iter := 0; ; iter++ {
				if iter > maxQLIter {
					return ErrNoConvergence
				}
				// Compute implicit shift.
				g := d[l]
				p := (d[l+1] - g) / (2 * e[l])
				r := math.Hypot(p, 1)
				if p < 0 {
					r = -r
				}
				d[l] = e[l] / (p + r)
				d[l+1] = e[l] * (p + r)
				dl1 := d[l+1]
				h := g - d[l]
				for i := l + 2; i < n; i++ {
					d[i] -= h
				}
				f += h

				// Implicit QL transformation.
				p = d[m]
				c := 1.0
				c2, c3 := c, c
				el1 := e[l+1]
				s, s2 := 0.0, 0.0
				for i := m - 1; i >= l; i-- {
					c3 = c2
					c2 = c
					s2 = s
					g = c * e[i]
					h = c * p
					r = math.Hypot(p, e[i])
					e[i+1] = s * r
					s = e[i] / r
					c = p / r
					p = c*d[i] - s*g
					d[i+1] = h + s*(c*g+s*d[i])

					// Accumulate transformation.
					for k := 0; k < n; k++ {
						h = v[k*n+i+1]
						v[k*n+i+1] = s*v[k*n+i] + c*h
						v[k*n+i] = c*v[k*n+i] - s*h
					}
				}
				p = -s * s2 * c3 * el1 * e[l] / dl1
				e[l] = s * p
				d[l] = c * p

				if math.Abs(e[l]) <= eps*tst1 {
					break
				}
			}
		}
		d[l] += f
		e[l] = 0
	}

	// Sort eigenvalues ascending, permuting eigenvector columns to match.
	for i := 0; i < n-1; i++ {
		k := i
		p := d[i]
		for j := i + 1; j < n; j++ {
			if d[j] < p {
				k = j
				p = d[j]
			}
		}
		if k != i {
			d[k] = d[i]
			d[i] = p
			for j := 0; j < n; j++ {
				v[j*n+i], v[j*n+k] = v[j*n+k], v[j*n+i]
			}
		}
	}
	return nil
}

// Reconstruct returns Q diag(Values) Qᵀ, the matrix the decomposition
// represents. Used by tests to verify round-trip accuracy.
func (eg *Eigen) Reconstruct() *tensor.Tensor {
	n := eg.Q.Rows()
	qs := tensor.New(n, n) // Q * diag(Values)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			qs.Data[i*n+j] = eg.Q.Data[i*n+j] * eg.Values[j]
		}
	}
	return tensor.MatMulT2(qs, eg.Q)
}

// EigFLOPs returns the cost model's floating-point operation count of a
// symmetric eigendecomposition of an n×n matrix: ~9n³, the textbook cost of
// dense tridiagonalization + QL. The blocked solver does fewer (4⁄3·n³ to
// tridiagonal form, 2n³ to apply the reflectors, and a divide and conquer
// whose merges deflate); the constant only matters relative to the other
// cost-model terms in internal/simulate and to the placement's balance.
func EigFLOPs(n int) float64 { return 9 * float64(n) * float64(n) * float64(n) }
