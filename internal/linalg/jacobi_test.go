package linalg

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/tensor"
)

// SymEigJacobi computes the eigendecomposition of a symmetric matrix by the
// cyclic Jacobi rotation method, the test suite's reference oracle. It is
// asymptotically slower than the Householder+QL solver in SymEig (O(n³)
// with a larger constant; one sweep at n = 432 costs about twelve blocked
// solves) but has a very simple correctness argument (each sweep
// monotonically reduces off-diagonal mass), which is what the suite
// cross-checks SymEig against — the same role the paper's Table I plays for
// validating the numerically delicate path.
func SymEigJacobi(a *tensor.Tensor, maxSweeps int) (*Eigen, error) {
	n := a.Rows()
	if a.Cols() != n {
		return nil, fmt.Errorf("linalg: SymEigJacobi requires square matrix, got %dx%d", a.Rows(), a.Cols())
	}
	if n == 0 {
		return &Eigen{Q: tensor.New(0, 0)}, nil
	}
	if maxSweeps <= 0 {
		maxSweeps = 60
	}
	// Work on the symmetrized copy.
	m := tensor.New(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			m.Data[i*n+j] = 0.5 * (a.Data[i*n+j] + a.Data[j*n+i])
		}
	}
	v := tensor.New(n, n)
	for i := 0; i < n; i++ {
		v.Data[i*n+i] = 1
	}

	offDiag := func() float64 {
		var s float64
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				s += m.Data[i*n+j] * m.Data[i*n+j]
			}
		}
		return s
	}
	var frob float64
	for _, x := range m.Data {
		frob += x * x
	}
	tol := 1e-28 * (frob + 1)

	for sweep := 0; sweep < maxSweeps; sweep++ {
		if offDiag() <= tol {
			break
		}
		for p := 0; p < n-1; p++ {
			for q := p + 1; q < n; q++ {
				apq := m.Data[p*n+q]
				if apq == 0 {
					continue
				}
				app := m.Data[p*n+p]
				aqq := m.Data[q*n+q]
				theta := (aqq - app) / (2 * apq)
				var t float64
				if theta >= 0 {
					t = 1 / (theta + math.Sqrt(1+theta*theta))
				} else {
					t = -1 / (-theta + math.Sqrt(1+theta*theta))
				}
				c := 1 / math.Sqrt(1+t*t)
				s := t * c
				// Apply the rotation to rows/cols p and q of m.
				for k := 0; k < n; k++ {
					akp := m.Data[k*n+p]
					akq := m.Data[k*n+q]
					m.Data[k*n+p] = c*akp - s*akq
					m.Data[k*n+q] = s*akp + c*akq
				}
				for k := 0; k < n; k++ {
					apk := m.Data[p*n+k]
					aqk := m.Data[q*n+k]
					m.Data[p*n+k] = c*apk - s*aqk
					m.Data[q*n+k] = s*apk + c*aqk
				}
				// Accumulate eigenvectors.
				for k := 0; k < n; k++ {
					vkp := v.Data[k*n+p]
					vkq := v.Data[k*n+q]
					v.Data[k*n+p] = c*vkp - s*vkq
					v.Data[k*n+q] = s*vkp + c*vkq
				}
			}
		}
	}
	if offDiag() > tol*1e6 {
		return nil, ErrNoConvergence
	}
	vals := make([]float64, n)
	for i := 0; i < n; i++ {
		vals[i] = m.Data[i*n+i]
	}
	// Sort ascending, permuting columns.
	for i := 0; i < n-1; i++ {
		k := i
		for j := i + 1; j < n; j++ {
			if vals[j] < vals[k] {
				k = j
			}
		}
		if k != i {
			vals[i], vals[k] = vals[k], vals[i]
			for j := 0; j < n; j++ {
				v.Data[j*n+i], v.Data[j*n+k] = v.Data[j*n+k], v.Data[j*n+i]
			}
		}
	}
	return &Eigen{Q: v, Values: vals}, nil
}

func TestJacobiReconstruct(t *testing.T) {
	for _, n := range []int{1, 2, 8, 30} {
		rng := rand.New(rand.NewSource(int64(n)))
		a := randSPD(rng, n, 0.1)
		eg, err := SymEigJacobi(a, 0)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if !eg.Reconstruct().Equal(a, 1e-8*float64(n)) {
			t.Errorf("n=%d: Jacobi QΛQᵀ != A", n)
		}
	}
}

// Property: Jacobi and Householder+QL agree on eigenvalues — the
// cross-solver oracle check.
func TestJacobiMatchesSymEigProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(15)
		b := tensor.Randn(rng, 1, n, n)
		a := b.Clone()
		a.AddScaled(1, tensor.Transpose(b)) // symmetric, possibly indefinite
		e1, err := SymEig(a)
		if err != nil {
			return false
		}
		e2, err := SymEigJacobi(a, 0)
		if err != nil {
			return false
		}
		for i := range e1.Values {
			if math.Abs(e1.Values[i]-e2.Values[i]) > 1e-8*(1+math.Abs(e1.Values[i])) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestJacobiOrthonormal(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	a := randSPD(rng, 20, 0.2)
	eg, err := SymEigJacobi(a, 0)
	if err != nil {
		t.Fatal(err)
	}
	qtq := tensor.MatMulT1(eg.Q, eg.Q)
	if !qtq.Equal(tensor.Eye(20), 1e-10) {
		t.Error("Jacobi eigenvectors not orthonormal")
	}
}

func TestJacobiEdgeCases(t *testing.T) {
	if _, err := SymEigJacobi(tensor.New(2, 3), 0); err == nil {
		t.Error("non-square should error")
	}
	eg, err := SymEigJacobi(tensor.New(0, 0), 0)
	if err != nil || len(eg.Values) != 0 {
		t.Error("empty matrix should succeed trivially")
	}
	// Already diagonal: zero sweeps needed.
	d := tensor.New(3, 3)
	d.Set(5, 0, 0)
	d.Set(-1, 1, 1)
	d.Set(2, 2, 2)
	eg, err = SymEigJacobi(d, 0)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{-1, 2, 5}
	for i := range want {
		if math.Abs(eg.Values[i]-want[i]) > 1e-12 {
			t.Errorf("diagonal eigenvalues = %v", eg.Values)
		}
	}
}
