package linalg

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/tensor"
)

// orthoFrom returns a random n×n orthogonal matrix: the eigenvectors of a
// random symmetric matrix, from the serial solver.
func orthoFrom(rng *rand.Rand, n int) []float64 {
	eg, err := SymEig(randSPD(rng, n, 0))
	if err != nil {
		panic(err)
	}
	return eg.Q.Data
}

// withSpectrum returns Q·diag(vals)·Qᵀ for a random orthogonal Q.
func withSpectrum(rng *rand.Rand, vals []float64) *tensor.Tensor {
	n := len(vals)
	q := orthoFrom(rng, n)
	qs := tensor.New(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			qs.Data[i*n+j] = q[i*n+j] * vals[j]
		}
	}
	a := tensor.MatMulT2(qs, &tensor.Tensor{Shape: []int{n, n}, Data: q})
	symmetrize(a.Data, append([]float64(nil), a.Data...), n)
	return a
}

// TestSymEigBlockedHardSpectra drives the divide and conquer through the
// spectra its deflation and secular solver exist for, and holds each to
// reconstruction, orthonormality, the serial solver's eigenvalues and bit
// equality at teams 1, 2 and 4:
//   - a cold-start factor (one update of a batch smaller than n), whose
//     zero eigenvalues make deflation total;
//   - identity plus rank one: one eigenvalue apart, the rest equal;
//   - a block-diagonal input, whose tridiagonal has exact zeros in e;
//   - a Wilkinson matrix W⁺, whose mirrored halves give the merges pairs
//     of poles closer than the tolerance, the Givens deflation path;
//   - a graded spectrum from 1e-14 to 1.
func TestSymEigBlockedHardSpectra(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	type hardCase struct {
		name string
		a    *tensor.Tensor
	}
	cases := []hardCase{{"cold start", kfacFactor(rng, 216, 24, 1)}}

	n := 200
	u := make([]float64, n)
	for i := range u {
		u[i] = rng.NormFloat64()
	}
	ir := tensor.New(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			ir.Data[i*n+j] = u[i] * u[j]
		}
		ir.Data[i*n+i]++
	}
	cases = append(cases, hardCase{"identity plus rank one", ir})

	bd := tensor.New(n, n)
	for _, blk := range [][2]int{{0, 40}, {40, 100}, {100, 101}, {101, 200}} {
		m := blk[1] - blk[0]
		b := randSPD(rng, m, 0.1)
		for i := 0; i < m; i++ {
			copy(bd.Data[(blk[0]+i)*n+blk[0]:], b.Data[i*m:(i+1)*m])
		}
	}
	cases = append(cases, hardCase{"block diagonal", bd})

	n = 201
	wk := tensor.New(n, n)
	for i := 0; i < n; i++ {
		wk.Data[i*n+i] = math.Abs(float64(n/2 - i))
		if i > 0 {
			wk.Data[i*n+i-1], wk.Data[(i-1)*n+i] = 1, 1
		}
	}
	cases = append(cases, hardCase{"Wilkinson", wk})

	n = 180
	vals := make([]float64, n)
	for i := range vals {
		vals[i] = math.Pow(10, -14*float64(n-1-i)/float64(n-1))
	}
	cases = append(cases, hardCase{"graded", withSpectrum(rng, vals)})

	const eps = 0x1p-52
	for _, c := range cases {
		name, a, n := c.name, c.a, c.a.Rows()
		var ref Eigen
		if err := SymEigBlockedInto(a, &ref, 1); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		norm := maxAbsRowSum(a)
		if r := ref.Reconstruct(); !r.Equal(a, 64*float64(n)*eps*norm) {
			t.Errorf("%s: QΛQᵀ does not reconstruct A within %g", name, 64*float64(n)*eps*norm)
		}
		qtq := tensor.MatMulT1(ref.Q, ref.Q)
		for i := 0; i < n; i++ {
			qtq.Data[i*n+i]--
		}
		if worst := maxAbsRowSum(qtq); worst > 64*float64(n)*eps {
			t.Errorf("%s: ‖QᵀQ − I‖∞ = %g", name, worst)
		}
		serial, err := SymEig(a)
		if err != nil {
			t.Fatalf("%s serial: %v", name, err)
		}
		for i, v := range serial.Values {
			if d := math.Abs(v - ref.Values[i]); d > 64*float64(n)*eps*norm {
				t.Errorf("%s: eigenvalue %d = %v, serial %v", name, i, ref.Values[i], v)
			}
		}
		for _, team := range []int{2, 4} {
			var eg Eigen
			if err := SymEigBlockedInto(a, &eg, team); err != nil {
				t.Fatalf("%s team=%d: %v", name, team, err)
			}
			for i, v := range eg.Values {
				if math.Float64bits(v) != math.Float64bits(ref.Values[i]) {
					t.Fatalf("%s team=%d: eigenvalue %d not bitwise equal", name, team, i)
				}
			}
			for i, v := range eg.Q.Data {
				if math.Float64bits(v) != math.Float64bits(ref.Q.Data[i]) {
					t.Fatalf("%s team=%d: Q[%d] not bitwise equal", name, team, i)
				}
			}
		}
	}
}

// TestSecularRootsInterlaceAndSolve holds secularRoot to its contract on
// random secular equations — spread, clustered and one- and two-pole — for
// every root: λ_j strictly between pole_j and pole_{j+1} (pole_{k−1} and
// pole_{k−1} + Σ ρz_i² for the last), stated through the origin and offset
// the solver returns; the residual f(λ_j) within a few ulps of its terms;
// and each row Δ_ij = pole_i − λ_j negative for i ≤ j and positive past j,
// the bracket's sign pattern the eigenvector formula depends on.
func TestSecularRootsInterlaceAndSolve(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 60; trial++ {
		k := 1 + rng.Intn(80)
		if trial < 4 {
			k = 1 + trial%2
		}
		pole := make([]float64, k)
		for i := range pole {
			pole[i] = rng.NormFloat64()
		}
		sort.Float64s(pole)
		if trial%3 == 1 {
			// Clusters: poles 1e-9 apart around a few centres.
			for i := range pole {
				pole[i] = float64(i/8) + 1e-9*float64(i%8)
			}
		}
		zsq := make([]float64, k)
		rho := math.Pow(10, -3+6*rng.Float64())
		for i := range zsq {
			z := rng.NormFloat64()
			if trial%3 == 2 && i%2 == 0 {
				z *= 1e-6
			}
			zsq[i] = rho * z * z
		}
		total := 0.0
		for _, w := range zsq {
			total += w
		}
		for j := 0; j < k; j++ {
			o, tau := secularRoot(pole, zsq, j)
			switch {
			case o == j && j == k-1:
				if !(tau > 0 && tau <= total*(1+1e-12)) {
					t.Fatalf("trial %d root %d: last root offset %g outside (0, %g]", trial, j, tau, total)
				}
			case o == j:
				if !(tau > 0 && tau < pole[j+1]-pole[j]) {
					t.Fatalf("trial %d root %d: offset %g from pole %d outside the gap %g", trial, j, tau, j, pole[j+1]-pole[j])
				}
			case o == j+1:
				if !(tau < 0 && -tau < pole[j+1]-pole[j]) {
					t.Fatalf("trial %d root %d: offset %g from pole %d outside the gap %g", trial, j, tau, j+1, pole[j+1]-pole[j])
				}
			default:
				t.Fatalf("trial %d root %d: origin %d is not a bracketing pole", trial, j, o)
			}
			f, psi, phi, dpsi, dphi := secularEval(pole, zsq, o, j, tau)
			if bound := 1e3 * 0x1p-52 * (1 + phi - psi + math.Abs(tau)*(dpsi+dphi)); !(math.Abs(f) <= bound) {
				t.Errorf("trial %d root %d of %d: residual %g above %g", trial, j, k, f, bound)
			}
			for i := 0; i < k; i++ {
				delta := (pole[i] - pole[o]) - tau
				if (i <= j && !(delta < 0)) || (i > j && !(delta > 0)) {
					t.Fatalf("trial %d root %d: Δ[%d] = %g has the wrong sign", trial, j, i, delta)
				}
			}
		}
	}
}
