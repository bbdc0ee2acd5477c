package linalg

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"repro/internal/tensor"
)

// frobenius returns ‖a‖_F.
func frobenius(a *tensor.Tensor) float64 { return math.Sqrt(a.Dot(a)) }

// powerCase is a symmetric PSD matrix and, in eg, the eigenbasis of a
// different one of the same size — a basis A is not diagonal in. Odd sizes
// take a rank-deficient K-FAC-like factor (fewer samples than rows), so
// A·Q₀ has columns of round-off size.
func powerCase(t *testing.T, n int) (*tensor.Tensor, *Eigen) {
	t.Helper()
	rng := rand.New(rand.NewSource(int64(n)))
	var eg Eigen
	if err := SymEigBlockedInto(randSPD(rng, n, 0.1), &eg, 1); err != nil {
		t.Fatal(err)
	}
	if n%2 == 1 {
		return kfacFactor(rng, n, max(1, n/3), 2), &eg
	}
	return randSPD(rng, n, 0.1), &eg
}

// descending returns Q's columns in descending order of values, the order
// the power refresh takes them in.
func descending(q *tensor.Tensor, values []float64) *tensor.Tensor {
	n := len(values)
	perm := make([]int, n)
	for i := range perm {
		perm[i] = i
	}
	slices.SortStableFunc(perm, func(i, j int) int { return cmp.Compare(values[j], values[i]) })
	p := tensor.New(n, n)
	for i := range n {
		for j, c := range perm {
			p.Data[i*n+j] = q.Data[i*n+c]
		}
	}
	return p
}

// TestSymEigPowerIsOneQRStep holds the power refresh to its definition,
// formed naively: Q₁ is orthonormal, R = Q₁ᵀ·A·Q₀ (Q₀ in descending
// order of its values) is upper triangular with a non-negative diagonal,
// and Values is diag(Q₁ᵀAQ₁). The sizes straddle the 32-reflector panel
// and the 64-row product panel; the odd ones are rank-deficient. Right
// after a full solve of the same A the refresh reads back that solve's
// eigenvalues, in descending order.
func TestSymEigPowerIsOneQRStep(t *testing.T) {
	for _, n := range []int{1, 2, 5, 31, 32, 33, 64, 65, 96, 130, 257} {
		a, eg := powerCase(t, n)
		q0 := descending(eg.Q, eg.Values)
		if err := SymEigPowerInto(a, eg); err != nil {
			t.Fatal(err)
		}
		q1 := eg.Q
		tol := 1e-12 * float64(n)
		for i, x := range tensor.MatMulT1(q1, q1).Data {
			want := 0.0
			if i/n == i%n {
				want = 1
			}
			if d := math.Abs(x - want); d > tol {
				t.Fatalf("n=%d: (Q₁ᵀQ₁)[%d,%d] = %v", n, i/n, i%n, x)
			}
		}
		atol := tol * frobenius(a)
		r := tensor.MatMulT1(q1, tensor.MatMul(a, q0))
		for i := range n {
			if r.Data[i*n+i] < -atol {
				t.Fatalf("n=%d: R[%d,%d] = %v < 0", n, i, i, r.Data[i*n+i])
			}
			for j := range i {
				if d := math.Abs(r.Data[i*n+j]); d > atol {
					t.Fatalf("n=%d: R[%d,%d] = %v below the diagonal (> %.3g)", n, i, j, r.Data[i*n+j], atol)
				}
			}
		}
		d := tensor.MatMulT1(q1, tensor.MatMul(a, q1))
		for j := range n {
			if diff := math.Abs(eg.Values[j] - d.Data[j*n+j]); diff > atol {
				t.Fatalf("n=%d: Values[%d] = %v, diag(Q₁ᵀAQ₁) %v (|Δ| %.3g > %.3g)", n, j, eg.Values[j], d.Data[j*n+j], diff, atol)
			}
		}

		if err := SymEigBlockedInto(a, eg, 2); err != nil {
			t.Fatal(err)
		}
		solved := slices.Clone(eg.Values)
		slices.Reverse(solved)
		if err := SymEigPowerInto(a, eg); err != nil {
			t.Fatal(err)
		}
		for j, v := range eg.Values {
			if d := math.Abs(v - solved[j]); d > 1e-10*frobenius(a) {
				t.Fatalf("n=%d: after a full solve Values[%d] = %v, solve %v (|Δ| %.3g)", n, j, v, solved[j], d)
			}
		}
	}
}

// TestSymEigPowerBitsIndependentOfGOMAXPROCS: every product is a pooled
// GEMM and every reduction has a fixed order, so the refreshed basis and
// values do not depend on the worker count.
func TestSymEigPowerBitsIndependentOfGOMAXPROCS(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	a, eg0 := powerCase(t, 300)
	var wantQ, wantV []float64
	for _, procs := range []int{1, 2, 4} {
		runtime.GOMAXPROCS(procs)
		eg := &Eigen{Q: eg0.Q.Clone(), Values: slices.Clone(eg0.Values)}
		if err := SymEigPowerInto(a, eg); err != nil {
			t.Fatal(err)
		}
		if wantQ == nil {
			wantQ, wantV = eg.Q.Data, eg.Values
		} else if !slices.Equal(eg.Q.Data, wantQ) || !slices.Equal(eg.Values, wantV) {
			t.Fatalf("GOMAXPROCS %d: refresh differs from GOMAXPROCS 1's", procs)
		}
	}
}

// TestSymEigPowerSmallIsPortable: below eigBlockedMinDim the refresh, like
// the serial solver there, never calls the dispatched vector kernels, so
// its bits are the same in every build (TestDefaultTrajectoryBitsPinned's
// factors are all that small).
func TestSymEigPowerSmallIsPortable(t *testing.T) {
	a, eg := powerCase(t, eigBlockedMinDim-1)
	defer func(dot func(a, b []float64) float64, axpy func(dst, src []float64, a float64)) {
		eigDot, eigAxpy = dot, axpy
	}(eigDot, eigAxpy)
	eigDot = func(a, b []float64) float64 { panic("dispatched eigDot called") }
	eigAxpy = func(dst, src []float64, a float64) { panic("dispatched eigAxpy called") }
	if err := SymEigPowerInto(a, eg); err != nil {
		t.Fatal(err)
	}
}

// TestSymEigPowerLeavesEigenOnFailure holds the refresh to the solver's
// failure contract: a NaN or Inf input, finite entries at math.MaxFloat64
// whose values overflow, a wrong shape and a basis of another size each
// return an error and leave eg's Q and Values bit for bit as they were.
func TestSymEigPowerLeavesEigenOnFailure(t *testing.T) {
	const n = 70
	a, eg := powerCase(t, n)
	q0, v0 := slices.Clone(eg.Q.Data), slices.Clone(eg.Values)
	for _, c := range []struct {
		name string
		a    *tensor.Tensor
	}{
		{"NaN", func() *tensor.Tensor { b := a.Clone(); b.Data[3] = math.NaN(); return b }()},
		{"Inf", func() *tensor.Tensor { b := a.Clone(); b.Data[n+1] = math.Inf(-1); return b }()},
		{"finite overflow", overflowingFactor(n)},
		{"not square", tensor.New(n, n-1)},
		{"other size", randSPD(rand.New(rand.NewSource(1)), n-1, 0.1)},
	} {
		if err := SymEigPowerInto(c.a, eg); err == nil {
			t.Fatalf("%s: refresh accepted the input", c.name)
		}
		if !slices.Equal(eg.Q.Data, q0) || !slices.Equal(eg.Values, v0) {
			t.Errorf("%s: failed refresh wrote eg", c.name)
		}
	}
	if err := SymEigPowerInto(a, &Eigen{}); err == nil {
		t.Error("refresh of an empty Eigen succeeded")
	}
}

// TestSymEigPowerSteadyStateZeroAllocs: the buffers come from the pooled
// eigWS, so a repeated refresh allocates nothing.
func TestSymEigPowerSteadyStateZeroAllocs(t *testing.T) {
	a, eg := powerCase(t, 200)
	if err := SymEigPowerInto(a, eg); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(20, func() {
		if err := SymEigPowerInto(a, eg); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("steady-state refresh allocated %.1f times per run, want 0", allocs)
	}
}

// BenchmarkSymEigPower times the power refresh of a K-FAC-like factor in
// its own full-solve basis at the benchmark's factor sizes, beside
// BenchmarkSymEigBlocked's full solve of the same matrix: gflops counts
// the 2n³ of each of the two products with A, and the 8n³/3 of the QR and
// of forming Q₁.
func BenchmarkSymEigPower(b *testing.B) {
	for _, n := range []int{144, 216, 288, 432} {
		a := kfacFactor(rand.New(rand.NewSource(int64(n))), n, 72, 8)
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			var eg Eigen
			if err := SymEigBlockedInto(a, &eg, 1); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := SymEigPowerInto(a, &eg); err != nil {
					b.Fatal(err)
				}
			}
			sec := b.Elapsed().Seconds() / float64(b.N)
			b.ReportMetric(1e3*sec, "ms")
			b.ReportMetric((4+8.0/3)*float64(n)*float64(n)*float64(n)/sec/1e9, "gflops")
		})
	}
}
