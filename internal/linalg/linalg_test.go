package linalg

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/tensor"
)

// randSPD returns a random symmetric positive-definite n×n matrix
// M = BᵀB + εI, the same structure as a K-FAC covariance factor.
func randSPD(rng *rand.Rand, n int, eps float64) *tensor.Tensor {
	b := tensor.Randn(rng, 1, n, n)
	m := tensor.MatMulT1(b, b)
	for i := 0; i < n; i++ {
		m.Data[i*n+i] += eps
	}
	return m
}

func TestSymEigDiagonal(t *testing.T) {
	a := tensor.New(3, 3)
	a.Set(3, 0, 0)
	a.Set(1, 1, 1)
	a.Set(2, 2, 2)
	eg, err := SymEig(a)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{1, 2, 3}
	for i, w := range want {
		if math.Abs(eg.Values[i]-w) > 1e-12 {
			t.Errorf("eigenvalue %d = %v, want %v", i, eg.Values[i], w)
		}
	}
}

func TestSymEigKnown2x2(t *testing.T) {
	// [[2,1],[1,2]] has eigenvalues 1 and 3.
	a := tensor.FromSlice([]float64{2, 1, 1, 2}, 2, 2)
	eg, err := SymEig(a)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(eg.Values[0]-1) > 1e-12 || math.Abs(eg.Values[1]-3) > 1e-12 {
		t.Errorf("eigenvalues = %v, want [1 3]", eg.Values)
	}
}

func TestSymEigReconstruct(t *testing.T) {
	for _, n := range []int{1, 2, 5, 16, 40, 100} {
		rng := rand.New(rand.NewSource(int64(n)))
		a := randSPD(rng, n, 0.1)
		eg, err := SymEig(a)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		r := eg.Reconstruct()
		if !r.Equal(a, 1e-8*float64(n)) {
			t.Errorf("n=%d: QΛQᵀ does not reconstruct A (max err matters)", n)
		}
	}
}

func TestSymEigOrthonormalColumns(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	a := randSPD(rng, 30, 0.01)
	eg, err := SymEig(a)
	if err != nil {
		t.Fatal(err)
	}
	qtq := tensor.MatMulT1(eg.Q, eg.Q)
	if !qtq.Equal(tensor.Eye(30), 1e-9) {
		t.Error("QᵀQ != I: eigenvectors not orthonormal")
	}
}

func TestSymEigAscendingOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	a := randSPD(rng, 25, 0)
	eg, err := SymEig(a)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(eg.Values); i++ {
		if eg.Values[i] < eg.Values[i-1] {
			t.Fatalf("eigenvalues not ascending: %v", eg.Values)
		}
	}
}

func TestSymEigSPDPositiveValues(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	a := randSPD(rng, 20, 0.5)
	eg, err := SymEig(a)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range eg.Values {
		if v <= 0 {
			t.Errorf("SPD matrix has non-positive eigenvalue %v", v)
		}
	}
}

func TestSymEigNonSquare(t *testing.T) {
	if _, err := SymEig(tensor.New(2, 3)); err == nil {
		t.Error("expected error for non-square input")
	}
}

func TestSymEigEmpty(t *testing.T) {
	eg, err := SymEig(tensor.New(0, 0))
	if err != nil || len(eg.Values) != 0 {
		t.Errorf("empty matrix: eg=%v err=%v", eg, err)
	}
}

// Property: trace(A) == sum of eigenvalues; this holds for any symmetric A.
func TestEigTraceProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(20)
		b := tensor.Randn(rng, 1, n, n)
		a := b.Clone()
		a.AddScaled(1, tensor.Transpose(b)) // symmetric, possibly indefinite
		eg, err := SymEig(a)
		if err != nil {
			return false
		}
		var sum float64
		for _, v := range eg.Values {
			sum += v
		}
		return math.Abs(sum-Trace(a)) < 1e-8*(1+math.Abs(sum))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// Property: eigenvector residual ‖Av - λv‖ is tiny for every pair.
func TestEigResidualProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(15)
		a := randSPD(rng, n, 0.01)
		eg, err := SymEig(a)
		if err != nil {
			return false
		}
		for j := 0; j < n; j++ {
			v := tensor.New(n)
			for i := 0; i < n; i++ {
				v.Data[i] = eg.Q.Data[i*n+j]
			}
			av := tensor.MatVec(a, v)
			av.AddScaled(-eg.Values[j], v)
			if av.Norm2() > 1e-8*(1+math.Abs(eg.Values[j])) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestInverseKnown(t *testing.T) {
	a := tensor.FromSlice([]float64{4, 7, 2, 6}, 2, 2)
	inv, err := InverseDamped(a, 0)
	if err != nil {
		t.Fatal(err)
	}
	want := tensor.FromSlice([]float64{0.6, -0.7, -0.2, 0.4}, 2, 2)
	if !inv.Equal(want, 1e-12) {
		t.Errorf("InverseDamped(a, 0) = %v, want %v", inv.Data, want.Data)
	}
}

func TestInverseRoundTrip(t *testing.T) {
	for _, n := range []int{1, 3, 10, 50} {
		rng := rand.New(rand.NewSource(int64(100 + n)))
		a := randSPD(rng, n, 0.5)
		inv, err := InverseDamped(a, 0)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		prod := tensor.MatMul(a, inv)
		if !prod.Equal(tensor.Eye(n), 1e-7) {
			t.Errorf("n=%d: A·A⁻¹ != I", n)
		}
	}
}

func TestInverseSingular(t *testing.T) {
	a := tensor.FromSlice([]float64{1, 2, 2, 4}, 2, 2)
	if _, err := InverseDamped(a, 0); err == nil {
		t.Error("expected ErrSingular for rank-deficient matrix")
	}
}

func TestInverseNonSquare(t *testing.T) {
	if _, err := InverseDamped(tensor.New(2, 3), 0); err == nil {
		t.Error("expected error for non-square input")
	}
}

func TestInverseDamped(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	n := 8
	a := randSPD(rng, n, 0)
	inv, err := InverseDamped(a, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	damped := a.Clone()
	for i := 0; i < n; i++ {
		damped.Data[i*n+i] += 0.1
	}
	prod := tensor.MatMul(damped, inv)
	if !prod.Equal(tensor.Eye(n), 1e-8) {
		t.Error("(A+γI)·InverseDamped(A,γ) != I")
	}
}

// Property: eigen-path damped inverse Q diag(1/(λᵢ+γ)) Qᵀ and explicit
// damped inverse agree. This is the heart of the paper's §IV-A claim that
// the eigendecomposition computes (F̂+γI)⁻¹ implicitly.
func TestEigenVsExplicitInverseProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(12)
		a := randSPD(rng, n, 0)
		gamma := 0.01 + rng.Float64()
		eg, err := SymEig(a)
		if err != nil {
			return false
		}
		qs := eg.Q.Clone()
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				qs.Data[i*n+j] /= eg.Values[j] + gamma
			}
		}
		ei := tensor.MatMulT2(qs, eg.Q)
		xi, err := InverseDamped(a, gamma)
		if err != nil {
			return false
		}
		return ei.Equal(xi, 1e-7)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestIsSymmetric(t *testing.T) {
	if !IsSymmetric(tensor.Eye(3), 0) {
		t.Error("identity should be symmetric")
	}
	a := tensor.FromSlice([]float64{1, 2, 3, 4}, 2, 2)
	if IsSymmetric(a, 0.5) {
		t.Error("asymmetric matrix reported symmetric")
	}
	if IsSymmetric(tensor.New(2, 3), 1) {
		t.Error("non-square matrix reported symmetric")
	}
}

// Trace returns the trace of square matrix a.
func Trace(a *tensor.Tensor) float64 {
	n := a.Rows()
	var s float64
	for i := 0; i < n; i++ {
		s += a.Data[i*n+i]
	}
	return s
}

func TestTrace(t *testing.T) {
	a := tensor.FromSlice([]float64{1, 9, 9, 2}, 2, 2)
	if Trace(a) != 3 {
		t.Errorf("Trace = %v, want 3", Trace(a))
	}
}

func TestEigFLOPsMonotone(t *testing.T) {
	if EigFLOPs(100) >= EigFLOPs(200) {
		t.Error("EigFLOPs should grow with n")
	}
	if EigFLOPs(2) != 9*8 {
		t.Errorf("EigFLOPs(2) = %v, want 72", EigFLOPs(2))
	}
}
