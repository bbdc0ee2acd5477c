package kfac

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/linalg"
	"repro/internal/nn"
	"repro/internal/tensor"
)

// buildWideNet returns a net whose fc layer's A factor (257×257 with
// bias augmentation) crosses both the blocked-solver and team-size
// thresholds, so the blocked path and the eig scheduler actually engage.
func buildWideNet(seed int64) *nn.Sequential {
	rng := rand.New(rand.NewSource(seed))
	return nn.NewSequential("wide",
		nn.NewLinear("fc", 256, 8, true, rng),
		nn.NewReLU("relu"),
		nn.NewLinear("out", 8, 4, true, rng),
	)
}

// runWideStep performs one forward/backward on deterministic data.
func runWideStep(net *nn.Sequential, seed int64, batch int) {
	rng := rand.New(rand.NewSource(seed))
	x := tensor.Randn(rng, 1, batch, 256)
	labels := make([]int, batch)
	for i := range labels {
		labels[i] = rng.Intn(4)
	}
	out := net.Forward(x, true)
	ce := nn.CrossEntropy{}
	_, grad := ce.Loss(out, labels)
	nn.ZeroGrads(net)
	net.Backward(grad)
}

func TestEigTeamSize(t *testing.T) {
	cases := []struct {
		dim, procs int
		rankLoad   float64
		want       int
	}{
		// Single core or small factor: always a team of one.
		{dim: 4096, procs: 1, rankLoad: 0, want: 1},
		{dim: EigTeamMinDim - 1, procs: 8, rankLoad: 0, want: 1},
		// A factor carrying the rank's whole load gets the machine.
		{dim: 1024, procs: 8, rankLoad: linalg.EigFLOPs(1024), want: 8},
		{dim: 1024, procs: 8, rankLoad: 0, want: 8}, // load floored at own cost
		// Half the load → half the machine (ceil).
		{dim: 1024, procs: 8, rankLoad: 2 * linalg.EigFLOPs(1024), want: 4},
		// A big factor among many: cost share ~1/8 of an 8-proc machine.
		{dim: 256, procs: 8, rankLoad: 8 * linalg.EigFLOPs(256), want: 1},
		// Shares always round up, never to zero, never past procs.
		{dim: 256, procs: 8, rankLoad: 100 * linalg.EigFLOPs(256), want: 1},
		{dim: 4096, procs: 4, rankLoad: linalg.EigFLOPs(4096), want: 4},
	}
	for _, c := range cases {
		if got := EigTeamSize(c.dim, c.procs, c.rankLoad); got != c.want {
			t.Errorf("EigTeamSize(%d, %d, %.3g) = %d, want %d",
				c.dim, c.procs, c.rankLoad, got, c.want)
		}
	}
}

func TestWeightedSemClampsAndBalances(t *testing.T) {
	sem := newWeightedSem(4)
	if w := sem.acquire(100); w != 4 {
		t.Fatalf("acquire(100) took %d units, want clamp to 4", w)
	}
	sem.release(4)
	if w := sem.acquire(0); w != 1 {
		t.Fatalf("acquire(0) took %d units, want floor 1", w)
	}
	sem.release(1)
	// Capacity-many unit holds must all succeed without blocking.
	for i := 0; i < 4; i++ {
		sem.acquire(1)
	}
	done := make(chan struct{})
	go func() {
		sem.acquire(2) // blocks until two units free
		sem.release(2)
		close(done)
	}()
	sem.release(1)
	sem.release(1)
	<-done
	sem.release(1)
	sem.release(1)
}

// TestEigSolverBlockedMatchesSerialOracle preconditions a wide net after a
// blocked decomposition step, then swaps in the serial oracle's
// decompositions (linalg.SymEigInto) of the same averaged factors and
// re-runs the precondition stages on the same combined gradient. The two
// solvers differ only in round-off, so the preconditioned gradients must
// agree far beyond what a wrong decomposition could survive.
func TestEigSolverBlockedMatchesSerialOracle(t *testing.T) {
	net := buildWideNet(91)
	prec := NewFromOptions(net, nil, Options{
		FactorUpdateFreq: 1, InvUpdateFreq: 1, Damping: 1e-3,
	})
	grads := make([][]*tensor.Tensor, 2)
	collect := func(i int) {
		for _, l := range nn.CapturableLayers(net) {
			for _, p := range l.Params() {
				grads[i] = append(grads[i], p.Grad.Clone())
			}
		}
	}
	runWideStep(net, 500, 8)
	if err := prec.Step(0.1); err != nil {
		t.Fatal(err)
	}
	collect(0)

	for _, s := range prec.states {
		for _, isG := range []bool{false, true} {
			f := s.side(isG)
			eg := &linalg.Eigen{}
			if err := linalg.SymEigInto(*f.factor, eg); err != nil {
				t.Fatal(err)
			}
			clampEigen(eg)
			*f.eig = eg
			s.k.refresh(isG)
		}
	}
	// Step wrote the preconditioned gradients back and changed no weight, so
	// the same data reproduces the combined gradient it started from.
	runWideStep(net, 500, 8)
	if err := prec.precondition(0.1); err != nil {
		t.Fatal(err)
	}
	collect(1)
	if len(grads[0]) == 0 || len(grads[0]) != len(grads[1]) {
		t.Fatalf("gradient sets differ in shape: %d vs %d", len(grads[0]), len(grads[1]))
	}
	for k := range grads[0] {
		for i := range grads[0][k].Data {
			b, s := grads[0][k].Data[i], grads[1][k].Data[i]
			scale := math.Max(1, math.Max(math.Abs(b), math.Abs(s)))
			if math.Abs(b-s) > 1e-8*scale {
				t.Fatalf("param %d elem %d: blocked %v vs serial %v", k, i, b, s)
			}
		}
	}
}

// TestEigStatsSurfaceTeamsAndKernels checks the scheduler's observability
// contract: after a decomposition update the stage stats carry the team
// table (every factor, FactorRefs order) and, for blocked-path factors,
// nonzero per-kernel times.
func TestEigStatsSurfaceTeamsAndKernels(t *testing.T) {
	net := buildWideNet(92)
	prec := NewFromOptions(net, nil, Options{
		FactorUpdateFreq: 1, InvUpdateFreq: 1, Damping: 1e-3,
	})
	runWideStep(net, 501, 8)
	if err := prec.Step(0.1); err != nil {
		t.Fatal(err)
	}
	snap := prec.Stats().Snapshot()
	if len(snap.EigTeams) != 2*prec.NumLayers() {
		t.Fatalf("EigTeams has %d entries, want %d", len(snap.EigTeams), 2*prec.NumLayers())
	}
	refs := prec.FactorRefs()
	for i, e := range snap.EigTeams {
		if e.Layer != refs[i].Layer || e.IsG != refs[i].IsG || e.Dim != refs[i].Dim {
			t.Fatalf("EigTeams[%d] = %+v does not match FactorRefs[%d] = %+v", i, e, i, refs[i])
		}
		if e.Team < 1 {
			t.Fatalf("EigTeams[%d].Team = %d, want ≥ 1", i, e.Team)
		}
		if e.Dim < EigTeamMinDim && e.Team != 1 {
			t.Fatalf("EigTeams[%d]: dim %d below threshold got team %d", i, e.Dim, e.Team)
		}
	}
	// The 257-dim A factor runs the blocked kernels; their times must land.
	if snap.EigTridiag <= 0 || snap.EigBackAccum <= 0 || snap.EigQL <= 0 {
		t.Fatalf("blocked kernel times not recorded: tridiag=%v backaccum=%v ql=%v",
			snap.EigTridiag, snap.EigBackAccum, snap.EigQL)
	}
	if snap.EigCompute <= 0 {
		t.Fatal("EigCompute wall time not recorded")
	}
}

// TestKFACStepSteadyStateZeroAllocsWide extends the allocation guard to a
// net whose factors take the blocked eigensolver path: the steady-state
// stale-decomposition Step must stay allocation-free with the blocked
// solver active (its workspaces live in linalg's arena and pools).
func TestKFACStepSteadyStateZeroAllocsWide(t *testing.T) {
	net := buildWideNet(94)
	prec := NewFromOptions(net, nil, Options{
		FactorUpdateFreq: 1 << 30, InvUpdateFreq: 1 << 30, Damping: 1e-3,
	})
	runWideStep(net, 503, 8)
	for i := 0; i < 3; i++ {
		if err := prec.Step(0.1); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(100, func() {
		if err := prec.Step(0.1); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("steady-state wide-net Step allocated %.1f times per run, want 0", allocs)
	}
}

// TestDecomposeFailurePreservesPreviousEigenBlocked mirrors the NaN-injection
// guard on the blocked path: SymEigBlockedInto validates inputs identically
// to the serial solver, so a poisoned wide factor must error out without
// clobbering the last good decomposition.
func TestDecomposeFailurePreservesPreviousEigenBlocked(t *testing.T) {
	net := buildWideNet(95)
	p := NewFromOptions(net, nil, Options{FactorUpdateFreq: 1, InvUpdateFreq: 1})
	runWideStep(net, 504, 8)
	if err := p.Step(0.1); err != nil {
		t.Fatal(err)
	}
	s := p.states[0]
	q0 := s.eigA.Q.Clone()
	s.A.Data[0] = math.NaN()
	if err := p.decompose(s, false); err == nil {
		t.Fatal("blocked decompose accepted a NaN factor")
	}
	if !s.eigA.Q.Equal(q0, 0) {
		t.Error("failed blocked decomposition clobbered the previous eigenbasis")
	}
}
