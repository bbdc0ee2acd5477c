package kfac

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/linalg"
	"repro/internal/nn"
	"repro/internal/tensor"
)

// TestPrecisionTokens: the precision tokens and their float64/float32
// aliases decode in any case ("F32" too), empty text is F64, and String
// keeps the short log names.
func TestPrecisionTokens(t *testing.T) {
	for _, c := range []struct {
		in   string
		want Precision
		ok   bool
	}{
		{"", F64, true}, {"f64", F64, true}, {"float64", F64, true},
		{"f32", F32, true}, {"float32", F32, true}, {"F32", F32, true}, {"Float64", F64, true},
		{"fp16", F64, false},
	} {
		var got Precision
		err := got.UnmarshalText([]byte(c.in))
		if (err == nil) != c.ok || got != c.want {
			t.Errorf("UnmarshalText(%q) = %v, %v; want %v, ok=%v", c.in, got, err, c.want, c.ok)
		}
	}
	if F64.String() != "f64" || F32.String() != "f32" {
		t.Errorf("Precision.String: got %q/%q", F64.String(), F32.String())
	}
}

// relFrobErr returns ‖got−want‖_F / (1 + ‖want‖_F).
func relFrobErr(got, want *tensor.Tensor) float64 {
	var num, den float64
	for i := range want.Data {
		d := got.Data[i] - want.Data[i]
		num += d * d
		den += want.Data[i] * want.Data[i]
	}
	return math.Sqrt(num) / (1 + math.Sqrt(den))
}

// f32StepTol is the acceptance bound for the float32 compute path at the
// K-FAC step level, as relFrobErr of the preconditioned gradient against the
// float64 reference. The products run the float64 chain, so what is left is
// the rounding of operands and results to float32 (~6e-8 each). Worst layer
// observed with that arithmetic: EigenMode 6.1e-07 single-process and
// 6.4e-07 across worlds 1–4; InverseMode 5.5e-05, because the narrowed
// damped inverse carries the factor's condition number (γ = 1e-3 admits
// ~1e3 on the tiny-net factors) where the eigenbasis mirrors are
// orthogonal. Each bound is about 4× its observation (both were 1e-3).
func f32StepTol(mode Mode) float64 {
	if mode == InverseMode {
		return 2.5e-4
	}
	return 2.5e-6
}

// TestF32StepMatchesF64SingleProcess runs several full preconditioned steps
// through the float32 kernel path — factors, eigendecompositions stay f64,
// but every Gram product and preconditioning matmul runs in float32 — and
// requires each layer's final gradient to track the float64 reference
// within f32StepTol of its mode, for both preconditioning modes and both
// step engines.
func TestF32StepMatchesF64SingleProcess(t *testing.T) {
	for _, mode := range []Mode{EigenMode, InverseMode} {
		for _, engine := range []Engine{EngineSync, EnginePipelined} {
			base := Options{Mode: mode, Engine: engine, FactorUpdateFreq: 1, InvUpdateFreq: 2}
			want := stepTrace(t, nil, base, 5)
			f32opts := base
			f32opts.Precision = F32
			got := stepTrace(t, nil, f32opts, 5)
			for i := range want {
				if e := relFrobErr(got[i], want[i]); e > f32StepTol(mode) {
					t.Errorf("mode=%v engine=%v layer %d: f32 relative error %.3e > %.1e",
						mode, engine, i, e, f32StepTol(mode))
				}
			}
		}
	}
}

// TestF32StepMatchesF64AcrossWorlds is the distributed counterpart: worlds
// 1–4 under the round-robin COMM-OPT plan and the LayerWise-implied MEM-OPT
// plan (which exercises the widened-pcBuf broadcast boundary: the float32
// result must widen to float64 before the preconditioned-gradient
// broadcast so full- and mixed-precision payloads stay wire-compatible).
func TestF32StepMatchesF64AcrossWorlds(t *testing.T) {
	for _, strategy := range []Strategy{RoundRobin, LayerWise} {
		for p := 1; p <= 4; p++ {
			base := Options{Strategy: strategy, FactorUpdateFreq: 1, InvUpdateFreq: 2}
			want := worldStepTrace(t, p, base, 4)
			f32opts := base
			f32opts.Precision = F32
			got := worldStepTrace(t, p, f32opts, 4)
			for r := range want {
				for i := range want[r] {
					if e := relFrobErr(got[r][i], want[r][i]); e > f32StepTol(base.Mode) {
						t.Errorf("strategy=%v world %d rank %d layer %d: f32 relative error %.3e",
							strategy, p, r, i, e)
					}
				}
			}
		}
	}
}

// TestF32StepWithF32ComputeLayers drives the fully fused configuration the
// trainer enables under --precision f32: the nn layers compute in float32
// (so K-FAC consumes their native float32 captures via KFACCapturable32,
// with no narrowing pass) and the preconditioner runs its float32 kernels.
// The result must still track an all-float64 run of the same seed.
func TestF32StepWithF32ComputeLayers(t *testing.T) {
	trace := func(f32 bool) []*tensor.Tensor {
		net := buildTinyNet(42)
		opts := Options{FactorUpdateFreq: 1, InvUpdateFreq: 2}
		if f32 {
			nn.SetComputeF32(net, true)
			opts.Precision = F32
		}
		prec := NewFromOptions(net, nil, opts)
		defer prec.Close()
		for i := 0; i < 5; i++ {
			runStep(net, int64(1000+i), 4)
			if err := prec.Step(0.1); err != nil {
				t.Fatal(err)
			}
		}
		var out []*tensor.Tensor
		for _, l := range nn.CapturableLayers(net) {
			out = append(out, l.CombinedGrad().Clone())
		}
		return out
	}
	want := trace(false)
	got := trace(true)
	// Looser than f32StepTol: the forward/backward pass itself is float32
	// here, so the captures (and hence factors) carry rounded inputs too.
	const tol = 5e-3
	for i := range want {
		if e := relFrobErr(got[i], want[i]); e > tol {
			t.Errorf("layer %d: fused f32 relative error %.3e > %.0e", i, e, tol)
		}
	}
}

// TestKFACStepSteadyStateZeroAllocsF32 extends the steady-state allocation
// guard to the float32 path: once the mirrors and float32 workspaces have
// settled, a stale-decomposition Step must not allocate.
func TestKFACStepSteadyStateZeroAllocsF32(t *testing.T) {
	net := buildTinyNet(81)
	nn.SetComputeF32(net, true)
	prec := NewFromOptions(net, nil, Options{
		Precision: F32, FactorUpdateFreq: 1 << 30, InvUpdateFreq: 1 << 30, Damping: 1e-3,
	})
	runStep(net, 303, 4)
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
		t.Errorf("steady-state f32 Step allocated %.1f times per run, want 0", allocs)
	}
}

// TestF32FactorsStayFloat64 pins the convert-at-the-boundary contract: under
// Precision == F32 the running-average factors, decompositions, and the
// preconditioned-gradient buffer all remain float64 tensors (so factor
// allreduce, decomposition records, and checkpoints are unchanged), while
// the float32 state is confined to the derived mirrors.
func TestF32FactorsStayFloat64(t *testing.T) {
	net := buildTinyNet(82)
	prec := NewFromOptions(net, nil, Options{Precision: F32, FactorUpdateFreq: 1, InvUpdateFreq: 1})
	runStep(net, 304, 4)
	if err := prec.Step(0.1); err != nil {
		t.Fatal(err)
	}
	for i, s := range prec.states {
		if s.A == nil || s.G == nil || s.eigA == nil || s.eigG == nil || s.pcBuf == nil {
			t.Fatalf("layer %d: float64 state missing under F32", i)
		}
		k := s.k.(*kernels[float32])
		if k.mirror[0] == nil || k.mirror[1] == nil {
			t.Fatalf("layer %d: float32 mirrors not refreshed", i)
		}
		// The mirror must be the narrowed image of the current eigenbasis.
		n := s.eigA.Q.Rows()
		for j := 0; j < n*n; j++ {
			if k.mirror[0].Data[j] != float32(s.eigA.Q.Data[j]) {
				t.Fatalf("layer %d: stale qA mirror at %d", i, j)
			}
		}
	}
}

// roundF32 returns t rounded to float32, as a float64 tensor.
func roundF32(t *tensor.Tensor) *tensor.Tensor {
	n := tensor.NewT32(t.Shape...)
	n.NarrowFrom(t)
	out := tensor.New(t.Shape...)
	n.WidenInto(out)
	return out
}

// f32PreconditionRef is preconditionOne at F32 as a definition: the float64
// body of Equations 13–15 (or 10) on the float32-rounded decompositions and
// gradient, with one rounding to float32 after each product and after the
// division. The eigenvalues, γ and π stay float64.
func f32PreconditionRef(p *Preconditioner, s *layerState, grad *tensor.Tensor) *tensor.Tensor {
	r := roundF32
	g := r(grad)
	if p.opts.Mode == InverseMode {
		return r(tensor.MatMul(r(tensor.MatMul(r(s.invG), g)), r(s.invA)))
	}
	qa, qg := r(s.eigA.Q), r(s.eigG.Q)
	v := r(tensor.MatMul(r(tensor.MatMulT1(qg, g)), qa))
	out, in := v.Rows(), v.Cols()
	ga, gg := p.dampingSplit(s)
	for row := 0; row < out; row++ {
		for c := 0; c < in; c++ {
			den := s.eigG.Values[row]*s.eigA.Values[c] + p.opts.Damping
			if p.opts.PiDamping {
				den = (s.eigG.Values[row] + gg) * (s.eigA.Values[c] + ga)
			}
			v.Data[row*in+c] /= den
		}
	}
	return r(tensor.MatMulT2(r(tensor.MatMul(qg, r(v))), qa))
}

// f32TestState builds a hand-made F32 layer state over random SPD factors.
func f32TestState(t *testing.T, opts Options) (*Preconditioner, *layerState, *tensor.Tensor) {
	t.Helper()
	rng := rand.New(rand.NewSource(91))
	const out, in = 5, 7
	ga, ab := tensor.Randn(rng, 1, out+3, out), tensor.Randn(rng, 1, in+3, in)
	G, A := tensor.MatMulT1(ga, ga), tensor.MatMulT1(ab, ab)
	opts.Precision = F32
	p := &Preconditioner{opts: opts}
	s := &layerState{pi: 1}
	if opts.PiDamping {
		s.pi = PiCorrection(A, G)
	}
	var err error
	if opts.Mode == InverseMode {
		if s.invA, err = linalg.InverseDamped(A, opts.Damping); err == nil {
			s.invG, err = linalg.InverseDamped(G, opts.Damping)
		}
	} else if s.eigA, err = linalg.SymEig(A); err == nil {
		s.eigG, err = linalg.SymEig(G)
	}
	if err != nil {
		t.Fatal(err)
	}
	return p, withKernels(p, s), tensor.Randn(rng, 1, out, in)
}

func wantSameBits(t *testing.T, what string, got, want *tensor.Tensor) {
	t.Helper()
	for i := range want.Data {
		if math.Float64bits(got.Data[i]) != math.Float64bits(want.Data[i]) {
			t.Fatalf("%s: element %d = %v, want %v (bit equality)", what, i, got.Data[i], want.Data[i])
		}
	}
}

// TestF32PreconditionOneIsItsDefinition turns the float32 step from a
// tolerance into a definition, in both modes and both damping forms.
func TestF32PreconditionOneIsItsDefinition(t *testing.T) {
	for _, c := range []struct {
		name string
		opts Options
	}{
		{"eigen", Options{Mode: EigenMode, Damping: 0.05}},
		{"eigen+pi", Options{Mode: EigenMode, Damping: 0.05, PiDamping: true}},
		{"inverse", Options{Mode: InverseMode, Damping: 0.05}},
	} {
		p, s, grad := f32TestState(t, c.opts)
		wantSameBits(t, c.name, s.k.preconditionOne(grad), f32PreconditionRef(p, s, grad))
	}
}

// TestF32StepSeesDampingAndPiAtOnce: γ and π are read by the step that uses
// them, so a change between two F32 steps — the damping-decay schedule, a
// decomposition update moving π — shows in the very next one.
func TestF32StepSeesDampingAndPiAtOnce(t *testing.T) {
	p, s, grad := f32TestState(t, Options{Mode: EigenMode, Damping: 0.05, PiDamping: true})
	before := s.k.preconditionOne(grad).Clone()

	p.SetDamping(0.005)
	afterGamma := s.k.preconditionOne(grad).Clone()
	wantSameBits(t, "after SetDamping", afterGamma, f32PreconditionRef(p, s, grad))
	if afterGamma.Equal(before, 0) {
		t.Fatal("a tenfold damping change left the preconditioned gradient unchanged")
	}

	s.pi *= 3
	afterPi := s.k.preconditionOne(grad)
	wantSameBits(t, "after π change", afterPi, f32PreconditionRef(p, s, grad))
	if afterPi.Equal(afterGamma, 0) {
		t.Fatal("a threefold π change left the preconditioned gradient unchanged")
	}

	// The uniform-γ form as well.
	p, s, grad = f32TestState(t, Options{Mode: EigenMode, Damping: 0.05})
	s.k.preconditionOne(grad)
	p.SetDamping(0.5)
	wantSameBits(t, "uniform γ after SetDamping", s.k.preconditionOne(grad), f32PreconditionRef(p, s, grad))
}
