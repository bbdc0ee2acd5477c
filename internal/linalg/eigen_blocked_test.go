package linalg

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/tensor"
)

// blockedDims covers the blocked path proper (≥ eigBlockedMinDim),
// including odd sizes that exercise the remainder panel and the final
// narrow panel, plus one multiple-of-b size. 129–131 and 193–195 give the
// first reflector-application panel (the last reflectors) widths 63, 64
// and 1.
var blockedDims = []int{129, 130, 131, 161, 193, 194, 195, 256, 293}

func maxAbsRowSum(a *tensor.Tensor) float64 {
	n := a.Rows()
	worst := 0.0
	for i := 0; i < n; i++ {
		s := 0.0
		for j := 0; j < n; j++ {
			s += math.Abs(a.Data[i*n+j])
		}
		if s > worst {
			worst = s
		}
	}
	return worst
}

func TestSymEigBlockedReconstruct(t *testing.T) {
	for _, n := range blockedDims {
		rng := rand.New(rand.NewSource(int64(n)))
		a := randSPD(rng, n, 0.1)
		var eg Eigen
		if err := SymEigBlockedInto(a, &eg, 4); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		r := eg.Reconstruct()
		tol := 1e-12 * float64(n) * maxAbsRowSum(a)
		if !r.Equal(a, tol) {
			t.Errorf("n=%d: QΛQᵀ does not reconstruct A within %g", n, tol)
		}
	}
}

func TestSymEigBlockedOrthonormal(t *testing.T) {
	n := 161
	rng := rand.New(rand.NewSource(42))
	a := randSPD(rng, n, 0.01)
	var eg Eigen
	if err := SymEigBlockedInto(a, &eg, 4); err != nil {
		t.Fatal(err)
	}
	// QᵀQ = I.
	for i := 0; i < n; i++ {
		for j := i; j < n; j++ {
			var dot float64
			for k := 0; k < n; k++ {
				dot += eg.Q.Data[k*n+i] * eg.Q.Data[k*n+j]
			}
			want := 0.0
			if i == j {
				want = 1
			}
			if math.Abs(dot-want) > 1e-12*float64(n) {
				t.Fatalf("QᵀQ[%d,%d] = %v, want %v", i, j, dot, want)
			}
		}
	}
}

// TestSymEigBlockedValuesMatchSerial bounds the eigenvalue disagreement
// between the blocked and serial solvers by the backward-stability bound
// c·n·eps·‖A‖ both algorithms individually satisfy.
func TestSymEigBlockedValuesMatchSerial(t *testing.T) {
	for _, n := range blockedDims {
		rng := rand.New(rand.NewSource(int64(n) + 1))
		a := randSPD(rng, n, 0.1)
		serial, err := SymEig(a)
		if err != nil {
			t.Fatalf("n=%d serial: %v", n, err)
		}
		var blocked Eigen
		if err := SymEigBlockedInto(a, &blocked, 4); err != nil {
			t.Fatalf("n=%d blocked: %v", n, err)
		}
		const eps = 2.220446049250313e-16
		tol := 64 * float64(n) * eps * maxAbsRowSum(a)
		for i := range serial.Values {
			if d := math.Abs(serial.Values[i] - blocked.Values[i]); d > tol {
				t.Errorf("n=%d: eigenvalue %d differs by %g (tol %g): serial %v blocked %v",
					n, i, d, tol, serial.Values[i], blocked.Values[i])
			}
		}
	}
}

// TestSymEigBlockedDeterministicAcrossTeams is the core contract: the
// same input must produce bitwise-identical Q and Λ for every team size
// and on repeated calls, so SPMD ranks with heterogeneous team
// assignments stay in lockstep.
func TestSymEigBlockedDeterministicAcrossTeams(t *testing.T) {
	// 216 and 432 are the benchmark model's largest factor sizes.
	for _, n := range append([]int{216, 432}, blockedDims...) {
		rng := rand.New(rand.NewSource(int64(n) + 2))
		a := randSPD(rng, n, 0.1)
		var ref Eigen
		if err := SymEigBlockedInto(a, &ref, 1); err != nil {
			t.Fatal(err)
		}
		refQ := append([]float64(nil), ref.Q.Data...)
		refV := append([]float64(nil), ref.Values...)
		for team := 1; team <= 8; team++ {
			for rep := 0; rep < 2; rep++ {
				var eg Eigen
				if err := SymEigBlockedInto(a, &eg, team); err != nil {
					t.Fatalf("n=%d team=%d: %v", n, team, err)
				}
				for i, v := range eg.Values {
					if math.Float64bits(v) != math.Float64bits(refV[i]) {
						t.Fatalf("n=%d team=%d rep=%d: eigenvalue %d not bitwise equal", n, team, rep, i)
					}
				}
				for i, v := range eg.Q.Data {
					if math.Float64bits(v) != math.Float64bits(refQ[i]) {
						t.Fatalf("n=%d team=%d rep=%d: Q[%d] not bitwise equal", n, team, rep, i)
					}
				}
			}
		}
	}
}

// TestApplyReflectorsMatchesReflectorProduct holds the compact-WY
// reflector application to its definition: after blockedTridiag, it
// overwrites Z with H₀H₁⋯H_{n−3}·Z for the reflectors H_j = I − τ_j v_j v_jᵀ
// stored in A's lower triangle and tau, applied here one reflector at a
// time. Z is a random dense matrix, so every row block of every panel is
// exercised; the sizes give the first panel (the last reflectors) widths
// 62, 63, 1 and 64 and cover a multiple of the panel width.
func TestApplyReflectorsMatchesReflectorProduct(t *testing.T) {
	for _, n := range []int{128, 129, 131, 194, 293} {
		rng := rand.New(rand.NewSource(int64(n) + 4))
		a := randSPD(rng, n, 0.1)
		A := make([]float64, n*n)
		symmetrize(A, a.Data, n)
		ws := &eigWS{team: 2}
		tau, d, e, work := make([]float64, n), make([]float64, n), make([]float64, n), make([]float64, 4*n)
		U, C, S := tensor.New(n, 2*eigBlock), tensor.New(n, 2*eigBlock), tensor.New(n, n)
		ws.blockedTridiag(A, S.Data, U.Data, C.Data, n, d, e, tau, work)
		z := make([]float64, n*n)
		for i := range z {
			z[i] = rng.NormFloat64()
		}
		want := append([]float64(nil), z...)
		ws.applyReflectors(z, A, n, tau, U.Data, C.Data,
			make([]float64, accBlock*n+2*accBlock*accBlock), S.Data)

		v := make([]float64, n)
		for j := n - 3; j >= 0; j-- {
			clear(v)
			v[j+1] = 1
			for i := j + 2; i < n; i++ {
				v[i] = A[i*n+j]
			}
			for c := 0; c < n; c++ {
				s := 0.0
				for i := j + 1; i < n; i++ {
					s += v[i] * want[i*n+c]
				}
				for i := j + 1; i < n; i++ {
					want[i*n+c] -= tau[j] * s * v[i]
				}
			}
		}
		diff, norm := 0.0, 0.0
		for i := range z {
			diff += (z[i] - want[i]) * (z[i] - want[i])
			norm += want[i] * want[i]
		}
		if rel := math.Sqrt(diff / norm); !(rel <= 1e-12) {
			t.Errorf("n=%d: ‖Z′ − H₀⋯H_{n−3}·Z‖_F / ‖H₀⋯H_{n−3}·Z‖_F = %g, want ≤ 1e-12", n, rel)
		}
	}
}

// TestBlockedTridiagIsSimilarity holds the reduction to its definition:
// with Q = H₀H₁⋯H_{n−3} (formed by applyReflectors on I), QᵀAQ is the
// tridiagonal (d, e) blockedTridiag returns, within 1e-12·‖A‖∞ per
// element. The sizes sit on panel boundaries: their last panels are 30, 31
// or 32 columns wide (at n = 130, n − 2 is a multiple of the panel width),
// and 3 at n = 293. A split case makes A block diagonal with its first
// block ending at column split, so the column there is exactly zero below
// the subdiagonal after the panel's corrections: the scale == 0 branch
// fires mid-panel, and the panel's later columns read its inert Vᵀ and Wᵀ
// rows. The workspaces start as NaN, so an element read before it is
// written poisons the result; in the first panel that includes the inert
// rows' tails.
func TestBlockedTridiagIsSimilarity(t *testing.T) {
	cases := []struct{ n, split int }{
		{128, -1}, {129, -1}, {130, -1}, {160, -1}, {161, -1}, {193, -1}, {293, -1},
		{161, 9}, {161, 2*eigBlock + 9}, // column 9 of the first and of the third panel
	}
	for _, c := range cases {
		n := c.n
		a := randSPD(rand.New(rand.NewSource(int64(n)+5)), n, 0.1)
		if c.split >= 0 {
			for p := 0; p < n; p++ {
				for q := 0; q < n; q++ {
					if (p <= c.split) != (q <= c.split) {
						a.Data[p*n+q] = 0
					}
				}
			}
		}
		A := make([]float64, n*n)
		symmetrize(A, a.Data, n)
		ws := &eigWS{team: 2}
		tau, d, e, work := make([]float64, n), make([]float64, n), make([]float64, n), make([]float64, dcFloats*n)
		U, C, S := tensor.New(n, 2*eigBlock), tensor.New(n, 2*eigBlock), tensor.New(n, n)
		for _, buf := range [][]float64{U.Data, C.Data, S.Data, work} {
			for i := range buf {
				buf[i] = math.NaN() // workspace storage is stale: a read before a write shows
			}
		}
		ws.blockedTridiag(A, S.Data, U.Data, C.Data, n, d, e, tau, work)
		if c.split >= 0 && tau[c.split] != 0 {
			t.Fatalf("n=%d: τ[%d] = %v, want 0 (the zero-column branch)", n, c.split, tau[c.split])
		}
		q := tensor.Eye(n)
		ws.applyReflectors(q.Data, A, n, tau, U.Data, C.Data,
			make([]float64, accBlock*n+2*accBlock*accBlock), S.Data)
		got := tensor.MatMul(tensor.MatMulT1(q, a), q)
		tol := 1e-12 * maxAbsRowSum(a)
		for i := 0; i < n; i++ {
			for k := 0; k < n; k++ {
				want := 0.0
				switch k - i {
				case 0:
					want = d[i]
				case -1:
					want = e[i]
				case 1:
					want = e[k]
				}
				if diff := math.Abs(got.Data[i*n+k] - want); !(diff <= tol) {
					t.Fatalf("n=%d split=%d: (QᵀAQ)[%d,%d] = %v, tridiagonal has %v (|diff| %g > %g)",
						n, c.split, i, k, got.Data[i*n+k], want, diff, tol)
				}
			}
		}
	}
}

// TestSymEigBlockedSmallFallback checks that below eigBlockedMinDim the
// blocked entry point is bitwise the serial solver for every team size —
// small factors must not depend on team assignment at all.
func TestSymEigBlockedSmallFallback(t *testing.T) {
	for _, n := range []int{1, 2, 17, 64, 127} {
		rng := rand.New(rand.NewSource(int64(n) + 3))
		a := randSPD(rng, n, 0.1)
		var serial Eigen
		if err := SymEigInto(a, &serial); err != nil {
			t.Fatal(err)
		}
		for _, team := range []int{1, 8} {
			var eg Eigen
			if err := SymEigBlockedInto(a, &eg, team); err != nil {
				t.Fatalf("n=%d: %v", n, err)
			}
			for i := range serial.Values {
				if math.Float64bits(serial.Values[i]) != math.Float64bits(eg.Values[i]) {
					t.Fatalf("n=%d team=%d: fallback eigenvalue %d differs from serial", n, team, i)
				}
			}
			for i := range serial.Q.Data {
				if math.Float64bits(serial.Q.Data[i]) != math.Float64bits(eg.Q.Data[i]) {
					t.Fatalf("n=%d team=%d: fallback Q[%d] differs from serial", n, team, i)
				}
			}
		}
	}
}

// TestSymEigBlockedDiagonal drives every Householder column through the
// scale==0 (zero column) branch: a diagonal input is already tridiagonal.
func TestSymEigBlockedDiagonal(t *testing.T) {
	n := 161
	a := tensor.New(n, n)
	rng := rand.New(rand.NewSource(5))
	want := make([]float64, n)
	for i := 0; i < n; i++ {
		v := rng.Float64()*10 - 5
		a.Data[i*n+i] = v
		want[i] = v
	}
	var eg Eigen
	if err := SymEigBlockedInto(a, &eg, 4); err != nil {
		t.Fatal(err)
	}
	sorted := append([]float64(nil), want...)
	for i := 0; i < n-1; i++ { // selection sort, to mirror the solver
		k := i
		for j := i + 1; j < n; j++ {
			if sorted[j] < sorted[k] {
				k = j
			}
		}
		sorted[i], sorted[k] = sorted[k], sorted[i]
	}
	for i := range sorted {
		if math.Abs(eg.Values[i]-sorted[i]) > 1e-12 {
			t.Fatalf("diagonal eigenvalue %d = %v, want %v", i, eg.Values[i], sorted[i])
		}
	}
	r := eg.Reconstruct()
	if !r.Equal(a, 1e-10) {
		t.Fatal("diagonal input does not reconstruct")
	}
}

func TestSymEigBlockedRejectsBadInput(t *testing.T) {
	if err := SymEigBlockedInto(tensor.New(3, 4), &Eigen{}, 2); err == nil {
		t.Fatal("expected error for non-square input")
	}
	a := tensor.New(4, 4)
	a.Data[5] = math.NaN()
	if err := SymEigBlockedInto(a, &Eigen{}, 2); err == nil {
		t.Fatal("expected error for NaN input")
	}
	a.Data[5] = math.Inf(1)
	if err := SymEigBlockedInto(a, &Eigen{}, 2); err == nil {
		t.Fatal("expected error for Inf input")
	}
}

// overflowingFactor is a symmetric n×n input that passes validation — every
// entry finite — and still fails the solve: its entries sit at
// math.MaxFloat64, so the symmetrized copy overflows to +Inf: the blocked
// path's tridiagonal is not finite, and the fallback's QL cannot converge on
// the NaNs that follow.
func overflowingFactor(n int) *tensor.Tensor {
	a := tensor.New(n, n)
	for i := range a.Data {
		a.Data[i] = math.MaxFloat64
	}
	return a
}

// TestSymEigBlockedLeavesEigenOnFailure holds the solver's failure
// contract on an input that fails after validation: eg's Q and Values are
// bit for bit, and in the same storage, what they were before the call —
// on the serial fallback (n = 16) and the blocked path (n = 160), teams 1
// and 2. Without the contract the fallback ran tred2 in Q, and the blocked
// path had back-accumulated into Q by the time QL gave up.
func TestSymEigBlockedLeavesEigenOnFailure(t *testing.T) {
	for _, n := range []int{16, 160} {
		var eg Eigen
		if err := SymEigBlockedInto(randSPD(rand.New(rand.NewSource(int64(n))), n, 0.1), &eg, 2); err != nil {
			t.Fatal(err)
		}
		q, vals := eg.Q, eg.Values
		q0, v0 := append([]float64(nil), q.Data...), append([]float64(nil), vals...)
		for _, team := range []int{1, 2} {
			err := SymEigBlockedInto(overflowingFactor(n), &eg, team)
			if !errors.Is(err, ErrNoConvergence) {
				t.Fatalf("n=%d team=%d: err = %v, want ErrNoConvergence (a failure past validation)", n, team, err)
			}
			if eg.Q != q || len(eg.Values) != n || &eg.Values[0] != &vals[0] {
				t.Fatalf("n=%d team=%d: failed solve replaced eg's storage", n, team)
			}
			for i, x := range q0 {
				if math.Float64bits(q.Data[i]) != math.Float64bits(x) {
					t.Fatalf("n=%d team=%d: failed solve wrote Q[%d]: %v, was %v", n, team, i, q.Data[i], x)
				}
			}
			for i, x := range v0 {
				if math.Float64bits(vals[i]) != math.Float64bits(x) {
					t.Fatalf("n=%d team=%d: failed solve wrote Values[%d]: %v, was %v", n, team, i, vals[i], x)
				}
			}
		}
	}
}

// TestSymEigBlockedKernelTimes checks that the timed variant attributes
// wall time to all three blocked kernels on a blocked-path input.
func TestSymEigBlockedKernelTimes(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	a := randSPD(rng, 192, 0.1)
	var eg Eigen
	var tm EigKernelTimes
	if err := SymEigBlockedTimedInto(a, &eg, 2, &tm); err != nil {
		t.Fatal(err)
	}
	if tm.TridiagNS <= 0 || tm.BackAccumNS <= 0 || tm.QLNS <= 0 {
		t.Fatalf("kernel times not populated: %+v", tm)
	}
}

// TestSymEigBlockedSteadyStateZeroAllocs verifies the workspace routing:
// after warmup, repeated decompositions into the same Eigen target
// allocate nothing.
func TestSymEigBlockedSteadyStateZeroAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	a := randSPD(rng, 160, 0.1)
	var eg Eigen
	for i := 0; i < 3; i++ {
		if err := SymEigBlockedInto(a, &eg, 2); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(20, func() {
		if err := SymEigBlockedInto(a, &eg, 2); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state SymEigBlockedInto allocates %.1f/op, want 0", allocs)
	}
}

// TestSymEigWorkspaceHistoryBits: a solve's bits do not depend on what the
// workspace serving it held before. A pooled eigWS keeps every buffer at
// the largest size it has been asked for, holding the leftovers of earlier
// solves of any size, so for each path — the blocked full solve, the
// serial solve below eigBlockedMinDim and the power refresh — a solve at n
// on a fresh workspace is repeated bit for bit after a larger and after a
// smaller solve on its workspace, and on a workspace whose buffers are all
// NaN. Before each solve eigWSFree holds only the workspace the test picks
// to serve it.
func TestSymEigWorkspaceHistoryBits(t *testing.T) {
	cases := []struct {
		name               string
		n, larger, smaller int
		power              bool
	}{
		{"blocked", 160, 200, 136, false},
		{"serial", 60, 100, 24, false},
		{"power", 150, 190, 40, true},
	}
	serve := func(ws *eigWS) {
		eigWSFree.Lock()
		eigWSFree.ws = append(eigWSFree.ws[:0], ws)
		eigWSFree.Unlock()
	}
	for _, c := range cases {
		// Inputs and, for the refresh, starting bases, made before any
		// solve the test routes.
		inputs := map[int]*tensor.Tensor{}
		bases := map[int]*Eigen{}
		for _, n := range []int{c.n, c.larger, c.smaller} {
			if c.power {
				inputs[n], bases[n] = powerCase(t, n)
			} else {
				inputs[n] = randSPD(rand.New(rand.NewSource(int64(n)+17)), n, 0.1)
			}
		}
		solve := func(ws *eigWS, n int) *Eigen {
			t.Helper()
			serve(ws)
			eg := &Eigen{}
			var err error
			if c.power {
				eg.SetFrom(bases[n].Values, bases[n].Q.Data, n)
				err = SymEigPowerInto(inputs[n], eg)
			} else {
				err = SymEigBlockedInto(inputs[n], eg, 2)
			}
			if err != nil {
				t.Fatalf("%s n=%d: %v", c.name, n, err)
			}
			return eg
		}
		same := func(situation string, got, want *Eigen) {
			t.Helper()
			for i, v := range want.Q.Data {
				if math.Float64bits(got.Q.Data[i]) != math.Float64bits(v) {
					t.Errorf("%s %s: Q[%d] = %v, want %v", c.name, situation, i, got.Q.Data[i], v)
					return
				}
			}
			for i, v := range want.Values {
				if math.Float64bits(got.Values[i]) != math.Float64bits(v) {
					t.Errorf("%s %s: Values[%d] = %v, want %v", c.name, situation, i, got.Values[i], v)
					return
				}
			}
		}

		want := solve(new(eigWS), c.n)
		ws := new(eigWS)
		solve(ws, c.larger)
		same("after a larger solve", solve(ws, c.n), want)
		solve(ws, c.smaller)
		same("after a smaller solve", solve(ws, c.n), want)

		solve(ws, c.larger)
		for _, buf := range [][]float64{ws.a, ws.s, ws.u, ws.c, ws.tau, ws.work, ws.de, ws.acc} {
			for i := range buf[:cap(buf)] {
				buf[:cap(buf)][i] = math.NaN()
			}
		}
		for i := range ws.ints[:cap(ws.ints)] {
			ws.ints[:cap(ws.ints)][i] = -1
		}
		same("on a NaN workspace", solve(ws, c.n), want)
	}
}

// TestAcquireEigWSTakesBestFit: a solve takes the smallest idle workspace
// that holds it, else the largest, and a released workspace goes back in
// capacity order — so a large solve does not grow a second workspace while
// one already grown for it is idle.
func TestAcquireEigWSTakesBestFit(t *testing.T) {
	sized := func(n int) *eigWS { return &eigWS{a: make([]float64, n*n)} }
	small, mid, large := sized(10), sized(50), sized(100)
	eigWSFree.Lock()
	eigWSFree.ws = append(eigWSFree.ws[:0], small, mid, large)
	eigWSFree.Unlock()
	for _, c := range []struct {
		n    int
		want *eigWS
	}{{40, mid}, {50, mid}, {5, small}, {101, large}} {
		ws := acquireEigWS(1, c.n)
		if ws != c.want {
			t.Errorf("n=%d: took the workspace of capacity %d, want %d", c.n, cap(ws.a), cap(c.want.a))
		}
		ws.release()
	}
	eigWSFree.Lock()
	defer eigWSFree.Unlock()
	if !slices.Equal(eigWSFree.ws, []*eigWS{small, mid, large}) {
		t.Error("released workspaces are not back in capacity order")
	}
}

// kfacFactor returns an n×n factor shaped like K-FAC's: a running average
// (decay 0.95) of updates Gram products of batch×n Gaussian captures.
func kfacFactor(rng *rand.Rand, n, batch, updates int) *tensor.Tensor {
	a := tensor.New(n, n)
	g := tensor.New(n, n)
	for u := 0; u < updates; u++ {
		x := tensor.Randn(rng, 1, batch, n)
		SymMulT1Into(g, x)
		for i := range a.Data {
			a.Data[i] = 0.95*a.Data[i] + 0.05*g.Data[i]/float64(batch)
		}
	}
	return a
}

// topDeflated runs the blocked solver's steps on a, in private buffers, and
// returns how many of its eigenvalues the divide and conquer's top merge
// deflated.
func topDeflated(a *tensor.Tensor) int {
	n := a.Rows()
	ws := &eigWS{team: 1}
	A, q := make([]float64, n*n), make([]float64, n*n)
	symmetrize(A, a.Data, n)
	S, U, C := tensor.New(n, n), tensor.New(n, 2*eigBlock), tensor.New(n, 2*eigBlock)
	d, e, et, tau := make([]float64, n), make([]float64, n), make([]float64, n), make([]float64, n)
	work, leaf := make([]float64, dcFloats*n), make([]float64, accBlock*n)
	ws.blockedTridiag(A, S.Data, U.Data, C.Data, n, d, e, tau, work)
	if _, ok := unitScale(d, e); !ok {
		panic("linalg: tridiagonal not finite")
	}
	if err := ws.dcLeaves(d, e, et, leaf); err != nil {
		panic(err)
	}
	return ws.dcMerges(d, e, leaf, S.Data, q, U.Data, C.Data, work)
}

// BenchmarkSymEigBlocked decomposes a K-FAC-like factor (a running average
// of 72×n Gram products) at the benchmark model's factor sizes — 144 and
// 288 (the dist and converge rows), 216 and 432 — and at 1024, the first
// rung above them. It reports the split from EigKernelTimes: the
// tridiagonalization (tri_ms, and tri_gflops at 4⁄3·n³), the divide and
// conquer (dc_ms), the reflector application (refl_ms, and refl_gflops at
// its 2n³), and the fraction of eigenvalues the top merge deflated (defl) —
// the numbers of docs/PERFORMANCE.md's eigensolver tables:
//
//	go test -run '^$' -bench SymEigBlocked -benchtime 20x ./internal/linalg
//	go test -run '^$' -bench 'SymEigBlocked/n=1024' -benchtime 5x ./internal/linalg
func BenchmarkSymEigBlocked(b *testing.B) {
	for _, n := range []int{144, 216, 288, 432, 1024} {
		a := kfacFactor(rand.New(rand.NewSource(int64(n))), n, 72, 8)
		defl := float64(topDeflated(a)) / float64(n)
		for _, team := range []int{1, 2} {
			b.Run(fmt.Sprintf("n=%d/team=%d", n, team), func(b *testing.B) {
				var eg Eigen
				if err := SymEigBlockedInto(a, &eg, team); err != nil {
					b.Fatal(err)
				}
				var tm EigKernelTimes
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if err := SymEigBlockedTimedInto(a, &eg, team, &tm); err != nil {
						b.Fatal(err)
					}
				}
				perOp := 1e6 * float64(b.N)
				b.ReportMetric(float64(tm.QLNS)/perOp, "dc_ms")
				b.ReportMetric(float64(tm.TridiagNS)/perOp, "tri_ms")
				b.ReportMetric(float64(tm.BackAccumNS)/perOp, "refl_ms")
				n3 := float64(n) * float64(n) * float64(n) * float64(b.N)
				b.ReportMetric(4.0/3*n3/float64(tm.TridiagNS), "tri_gflops")
				b.ReportMetric(2*n3/float64(tm.BackAccumNS), "refl_gflops")
				b.ReportMetric(defl, "defl")
			})
		}
	}
}
