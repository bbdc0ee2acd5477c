package kfac

import (
	"math"
	"testing"
)

func TestBuildResolvesOptions(t *testing.T) {
	o := Build(
		WithMode(InverseMode),
		WithStrategy(SizeGreedy),
		WithDamping(0.01),
		WithFactorDecay(0.9),
		WithKLClip(-1),
		WithFactorUpdateFreq(3),
		WithInvUpdateFreq(30),
		WithFusionBytes(1<<20),
		WithPiDamping(),
		WithSkipLayers("fc", "conv1"),
		WithMaxFactorDim(64),
		WithEngine(EnginePipelined),
	)
	want := Options{
		Mode: InverseMode, Strategy: SizeGreedy, Damping: 0.01,
		FactorDecay: 0.9, KLClip: -1, FactorUpdateFreq: 3, InvUpdateFreq: 30,
		FusionBytes: 1 << 20, PiDamping: true, SkipLayers: []string{"fc", "conv1"},
		MaxFactorDim: 64, Engine: EnginePipelined,
	}
	if o.Mode != want.Mode || o.Strategy != want.Strategy || o.Damping != want.Damping ||
		o.FactorDecay != want.FactorDecay || o.KLClip != want.KLClip ||
		o.FactorUpdateFreq != want.FactorUpdateFreq || o.InvUpdateFreq != want.InvUpdateFreq ||
		o.FusionBytes != want.FusionBytes || o.PiDamping != want.PiDamping ||
		o.MaxFactorDim != want.MaxFactorDim || o.Engine != want.Engine {
		t.Errorf("Build = %+v, want %+v", o, want)
	}
	if len(o.SkipLayers) != 2 || o.SkipLayers[0] != "fc" || o.SkipLayers[1] != "conv1" {
		t.Errorf("SkipLayers = %v", o.SkipLayers)
	}
}

func TestDistributionOptions(t *testing.T) {
	o := Build(WithDistMode(MemOpt), WithGroupSize(4))
	if o.DistMode != MemOpt || o.GroupSize != 4 {
		t.Errorf("Build = %+v", o)
	}
	// WithGradWorkerFrac selects Hybrid and carries the fraction.
	o = Build(WithGradWorkerFrac(0.25))
	if o.DistMode != Hybrid || o.GradWorkerFrac != 0.25 {
		t.Errorf("WithGradWorkerFrac: %+v", o)
	}
	// Default: DistAuto resolves per strategy at plan-build time.
	o = Build()
	if o.DistMode != DistAuto {
		t.Errorf("default DistMode = %v, want DistAuto", o.DistMode)
	}
}

// WithOptions seeds from a resolved struct; later options override fields.
func TestWithOptionsBaseAndOverride(t *testing.T) {
	base := Options{Damping: 0.01, InvUpdateFreq: 50, Strategy: LayerWise}
	o := Build(WithOptions(base), WithDamping(0.002))
	if o.Damping != 0.002 {
		t.Errorf("override lost: damping = %v", o.Damping)
	}
	if o.InvUpdateFreq != 50 || o.Strategy != LayerWise {
		t.Errorf("base lost: %+v", o)
	}
}

// New with no options must behave exactly like NewFromOptions with a zero
// struct: the paper defaults.
func TestNewAppliesPaperDefaults(t *testing.T) {
	net := buildTinyNet(1)
	p := New(net, nil)
	if p.opts.Damping != 0.001 || p.opts.FactorDecay != 0.95 || p.opts.KLClip != 0.001 ||
		p.opts.FactorUpdateFreq != 10 || p.opts.InvUpdateFreq != 100 {
		t.Errorf("defaults not applied: %+v", p.opts)
	}
	if p.opts.Engine != EngineSync {
		t.Errorf("default engine = %v", p.opts.Engine)
	}
}

// A preconditioner built from options must match one built from the
// equivalent resolved struct step for step.
func TestNewMatchesNewFromOptions(t *testing.T) {
	a := buildTinyNet(7)
	b := buildTinyNet(7)
	pa := New(a, nil, WithDamping(0.01), WithFactorUpdateFreq(1), WithInvUpdateFreq(2))
	pb := NewFromOptions(b, nil, Options{Damping: 0.01, FactorUpdateFreq: 1, InvUpdateFreq: 2})
	defer pa.Close()
	defer pb.Close()
	for i := 0; i < 4; i++ {
		runStep(a, int64(100+i), 4)
		runStep(b, int64(100+i), 4)
		if err := pa.Step(0.1); err != nil {
			t.Fatal(err)
		}
		if err := pb.Step(0.1); err != nil {
			t.Fatal(err)
		}
	}
	ga, gb := a.Params()[0].Grad, b.Params()[0].Grad
	for i := range ga.Data {
		if ga.Data[i] != gb.Data[i] {
			t.Fatalf("gradient %d diverged: %v vs %v", i, ga.Data[i], gb.Data[i])
		}
	}
}

func TestParamScheduleDecaysAtEpochBoundaries(t *testing.T) {
	s := ParamSchedule{Initial: 0.01, DecayEpochs: []int{3, 6}, Factor: 0.5}
	cases := []struct {
		epoch int
		want  float64
	}{
		{0, 0.01},
		{2, 0.01},    // last epoch before the first boundary
		{3, 0.005},   // decay applies AT the boundary epoch
		{5, 0.005},   // holds between boundaries
		{6, 0.0025},  // second boundary compounds
		{50, 0.0025}, // holds forever after
	}
	for _, c := range cases {
		if got := s.At(c.epoch); math.Abs(got-c.want) > 1e-15 {
			t.Errorf("At(%d) = %v, want %v", c.epoch, got, c.want)
		}
	}
}

func TestParamScheduleDefaultFactorIsHalf(t *testing.T) {
	s := ParamSchedule{Initial: 8, DecayEpochs: []int{1, 2, 3}}
	if got := s.At(3); got != 1 {
		t.Errorf("At(3) with default factor = %v, want 1 (8 × 0.5³)", got)
	}
}

func TestParamScheduleNoDecayEpochsIsConstant(t *testing.T) {
	s := ParamSchedule{Initial: 0.07}
	for _, e := range []int{0, 1, 10, 1000} {
		if got := s.At(e); got != 0.07 {
			t.Errorf("At(%d) = %v, want constant 0.07", e, got)
		}
	}
}

// A growth schedule (factor > 1) models the paper's update-frequency decay,
// where the INTERVAL grows over training.
func TestParamScheduleGrowthForUpdateFreq(t *testing.T) {
	s := ParamSchedule{Initial: 10, DecayEpochs: []int{2}, Factor: 2}
	if got := s.At(1); got != 10 {
		t.Errorf("At(1) = %v, want 10", got)
	}
	if got := s.At(2); got != 20 {
		t.Errorf("At(2) = %v, want 20", got)
	}
}
