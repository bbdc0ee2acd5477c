package kfac

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"repro/internal/linalg"
	"repro/internal/tensor"
)

func TestPiCorrectionBalancedFactors(t *testing.T) {
	// Equal average traces → π = 1.
	a := tensor.Eye(4)
	g := tensor.Eye(7)
	if pi := PiCorrection(a, g); math.Abs(pi-1) > 1e-12 {
		t.Errorf("π = %v, want 1", pi)
	}
}

func TestPiCorrectionScalesWithTraceRatio(t *testing.T) {
	a := tensor.Eye(3)
	a.Scale(100)       // avg trace 100
	g := tensor.Eye(3) // avg trace 1
	if pi := PiCorrection(a, g); math.Abs(pi-10) > 1e-9 {
		t.Errorf("π = %v, want 10", pi)
	}
}

func TestPiCorrectionClamps(t *testing.T) {
	a := tensor.Eye(2)
	a.Scale(1e12)
	g := tensor.Eye(2)
	if pi := PiCorrection(a, g); pi != 1e3 {
		t.Errorf("π = %v, want clamp at 1e3", pi)
	}
	// Degenerate traces return 1.
	if pi := PiCorrection(tensor.New(2, 2), tensor.Eye(2)); pi != 1 {
		t.Errorf("π on zero-trace = %v, want 1", pi)
	}
	if pi := PiCorrection(tensor.New(0, 0), tensor.Eye(2)); pi != 1 {
		t.Errorf("π on empty = %v, want 1", pi)
	}
}

func TestPiDampingEigenMatchesFactoredInverse(t *testing.T) {
	// With π damping, the eigen path must equal
	// (G + √γ/π·I)⁻¹ ∇L (A + π√γ·I)⁻¹ exactly.
	rng := rand.New(rand.NewSource(1))
	out, in := 3, 4
	gBase := tensor.Randn(rng, 1, out, out)
	G := tensor.MatMulT1(gBase, gBase)
	aBase := tensor.Randn(rng, 1, in, in)
	A := tensor.MatMulT1(aBase, aBase)
	grad := tensor.Randn(rng, 1, out, in)
	gamma := 0.05

	egA, err := linalg.SymEig(A)
	if err != nil {
		t.Fatal(err)
	}
	egG, err := linalg.SymEig(G)
	if err != nil {
		t.Fatal(err)
	}
	p := &Preconditioner{opts: Options{Mode: EigenMode, Damping: gamma, PiDamping: true}}
	s := withKernels(p, &layerState{eigA: egA, eigG: egG, pi: PiCorrection(A, G)})
	got := s.k.preconditionOne(grad)

	ga, gg := p.dampingSplit(s)
	invA, err := linalg.InverseDamped(A, ga)
	if err != nil {
		t.Fatal(err)
	}
	invG, err := linalg.InverseDamped(G, gg)
	if err != nil {
		t.Fatal(err)
	}
	want := tensor.MatMul(tensor.MatMul(invG, grad), invA)
	if !got.Equal(want, 1e-8) {
		t.Error("π-damped eigen path != factored damped inverses")
	}
}

func TestPiDampingTrainingStep(t *testing.T) {
	net := buildTinyNet(31)
	p := NewFromOptions(net, nil, Options{PiDamping: true, FactorUpdateFreq: 1, InvUpdateFreq: 1})
	runStep(net, 310, 8)
	if err := p.Step(0.1); err != nil {
		t.Fatal(err)
	}
	if net.Params()[0].Grad.HasNaN() {
		t.Error("π-damped step produced NaN")
	}
	for _, s := range p.states {
		if s.pi <= 0 {
			t.Error("π not computed for a layer")
		}
	}
}

func TestPiDampingInverseModeStep(t *testing.T) {
	net := buildTinyNet(32)
	p := NewFromOptions(net, nil, Options{Mode: InverseMode, PiDamping: true, FactorUpdateFreq: 1, InvUpdateFreq: 1})
	runStep(net, 320, 8)
	if err := p.Step(0.1); err != nil {
		t.Fatal(err)
	}
	if net.Params()[0].Grad.HasNaN() {
		t.Error("π-damped inverse step produced NaN")
	}
}

func TestLMAdjustDirections(t *testing.T) {
	net := buildTinyNet(33)
	p := NewFromOptions(net, nil, Options{Damping: 0.01})
	// Good model fit → damping shrinks.
	p.LMAdjust(0.9, 0.5, 1e-6, 1)
	if p.Damping() != 0.005 {
		t.Errorf("damping after good rho = %v, want 0.005", p.Damping())
	}
	// Poor fit → grows.
	p.LMAdjust(0.1, 0.5, 1e-6, 1)
	if p.Damping() != 0.01 {
		t.Errorf("damping after poor rho = %v, want 0.01", p.Damping())
	}
	// Neutral zone → unchanged.
	p.LMAdjust(0.5, 0.5, 1e-6, 1)
	if p.Damping() != 0.01 {
		t.Errorf("damping after neutral rho = %v, want 0.01", p.Damping())
	}
}

func TestLMAdjustClamps(t *testing.T) {
	net := buildTinyNet(34)
	p := NewFromOptions(net, nil, Options{Damping: 1e-6})
	p.LMAdjust(0.9, 0.5, 1e-6, 1)
	if p.Damping() != 1e-6 {
		t.Errorf("min clamp failed: %v", p.Damping())
	}
	p.SetDamping(0.9)
	p.LMAdjust(0.1, 0.5, 1e-6, 1)
	if p.Damping() != 1 {
		t.Errorf("max clamp failed: %v", p.Damping())
	}
	// Invalid omega is a no-op.
	p.SetDamping(0.3)
	p.LMAdjust(0.9, 1.5, 1e-6, 1)
	if p.Damping() != 0.3 {
		t.Error("invalid omega should not change damping")
	}
}

func TestStageStatsAccumulate(t *testing.T) {
	net := buildTinyNet(35)
	p := NewFromOptions(net, nil, Options{FactorUpdateFreq: 1, InvUpdateFreq: 2})
	for i := 0; i < 4; i++ {
		runStep(net, int64(400+i), 4)
		if err := p.Step(0.1); err != nil {
			t.Fatal(err)
		}
	}
	st := p.Stats().Snapshot()
	if st.Steps != 4 {
		t.Errorf("Steps = %d, want 4", st.Steps)
	}
	if st.FactorUpdates != 4 {
		t.Errorf("FactorUpdates = %d, want 4", st.FactorUpdates)
	}
	if st.EigUpdates != 2 { // iters 0 and 2
		t.Errorf("EigUpdates = %d, want 2", st.EigUpdates)
	}
	if st.FactorCompute <= 0 || st.EigCompute <= 0 || st.Precondition <= 0 {
		t.Error("stage durations not recorded")
	}
	// Single process: no communication time.
	if st.FactorComm != 0 || st.EigComm != 0 {
		t.Error("unexpected comm time in single-process run")
	}
	if p.Stats().String() == "" {
		t.Error("empty stats string")
	}
	fc, fm := p.Stats().PerFactorUpdate()
	if fc <= 0 || fm != 0 {
		t.Errorf("PerFactorUpdate = %v, %v", fc, fm)
	}
	ec, em := p.Stats().PerEigUpdate()
	if ec <= 0 || em != 0 {
		t.Errorf("PerEigUpdate = %v, %v", ec, em)
	}
}

func TestStageStatsEmpty(t *testing.T) {
	var s StageStats
	if c, m := s.PerFactorUpdate(); c != 0 || m != 0 {
		t.Error("empty PerFactorUpdate should be zero")
	}
	if c, m := s.PerEigUpdate(); c != 0 || m != 0 {
		t.Error("empty PerEigUpdate should be zero")
	}
	s.add(&s.Precondition, time.Millisecond)
	if s.Snapshot().Precondition != time.Millisecond {
		t.Error("add/Snapshot mismatch")
	}
}
