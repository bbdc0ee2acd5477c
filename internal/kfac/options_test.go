package kfac

import (
	"encoding"
	"math"
	"reflect"
	"strings"
	"testing"

	"repro/internal/comm"
)

// TestBuildResolvesOptions: building a preconditioner keeps every field the
// caller set; the paper defaults fill only zero fields.
func TestBuildResolvesOptions(t *testing.T) {
	want := Options{
		Mode: InverseMode, Strategy: SizeGreedy, Damping: 0.01,
		FactorDecay: 0.9, KLClip: -1, FactorUpdateFreq: 3, InvUpdateFreq: 30,
		FusionBytes: 1 << 20, PiDamping: true, SkipLayers: []string{"fc", "conv1"},
		MaxFactorDim: 64, Engine: EnginePipelined, Precision: F32,
	}
	p := NewFromOptions(buildTinyNet(1), nil, want)
	defer p.Close()
	if !reflect.DeepEqual(p.opts, want) {
		t.Errorf("resolved %+v, want %+v", p.opts, want)
	}
}

// TestDistributionOptions: the distribution fields reach the Decision the
// plan and the collectives follow, and DistAuto resolves per strategy.
func TestDistributionOptions(t *testing.T) {
	for _, c := range []struct {
		opts Options
		want Decision
	}{
		{Options{DistMode: MemOpt, GroupSize: 4}, Decision{Mode: MemOpt, GroupSize: 4}},
		{Options{DistMode: Hybrid, GradWorkerFrac: 0.25}, Decision{Mode: Hybrid, GradWorkerFrac: 0.25}},
		{Options{}, Decision{Mode: CommOpt}},
		{Options{Strategy: LayerWise}, Decision{Mode: MemOpt}},
	} {
		p := NewFromOptions(buildTinyNet(1), nil, c.opts)
		c.want.FusionBytes = comm.DefaultFusionBytes
		if d := p.Decision(); !reflect.DeepEqual(d, c.want) {
			t.Errorf("%+v: decision %+v, want %+v", c.opts, d, c.want)
		}
		if p.Plan().Mode != c.want.Mode {
			t.Errorf("%+v: plan mode %v, want %v", c.opts, p.Plan().Mode, c.want.Mode)
		}
		p.Close()
	}
}

// NewFromOptions with a zero struct selects the paper defaults.
func TestNewAppliesPaperDefaults(t *testing.T) {
	net := buildTinyNet(1)
	p := NewFromOptions(net, nil, Options{})
	defer p.Close()
	if p.opts.Damping != 0.001 || p.opts.FactorDecay != 0.95 || p.opts.KLClip != 0.001 ||
		p.opts.FactorUpdateFreq != 10 || p.opts.InvUpdateFreq != 100 {
		t.Errorf("defaults not applied: %+v", p.opts)
	}
	if p.opts.Engine != EngineSync {
		t.Errorf("default engine = %v", p.opts.Engine)
	}
}

// TestOptionsValidate walks every rule of the rule book: each bad value is
// refused with an error naming its field, and the zero value, the paper
// defaults spelled out, and each rule's boundary are accepted.
func TestOptionsValidate(t *testing.T) {
	const world = 4
	for _, c := range []struct {
		opts  Options
		field string // "" = valid
	}{
		{Options{}, ""},
		{Options{Damping: 0.001, FactorDecay: 0.95, KLClip: -1, FactorUpdateFreq: 10, InvUpdateFreq: 100}, ""},
		{Options{DistMode: Hybrid, GradWorkerFrac: 0.5}, ""},
		{Options{GroupSize: 2}, ""},
		{Options{GroupSize: 3}, ""},
		{Options{NoErrorFeedback: true, Compression: comm.Float16Codec{}}, ""},
		{Options{NoErrorFeedback: true, Autotune: &AutotuneConfig{}}, ""},
		{Options{Autotune: &AutotuneConfig{Interval: 0}}, ""},

		{Options{Mode: 2}, "Mode"},
		{Options{Strategy: -1}, "Strategy"},
		{Options{DistMode: 4}, "DistMode"},
		{Options{Engine: 2}, "Engine"},
		{Options{Precision: 2}, "Precision"},
		{Options{DistMode: Hybrid}, "GradWorkerFrac"},
		{Options{DistMode: Hybrid, GradWorkerFrac: 1}, "GradWorkerFrac"},
		{Options{DistMode: Hybrid, GradWorkerFrac: math.NaN()}, "GradWorkerFrac"},
		{Options{GradWorkerFrac: 0.5}, "GradWorkerFrac"},
		{Options{DistMode: MemOpt, GradWorkerFrac: 0.5}, "GradWorkerFrac"},
		{Options{GroupSize: 1}, "GroupSize"},
		{Options{GroupSize: -2}, "GroupSize"},
		{Options{GroupSize: world}, "GroupSize"},
		{Options{NoErrorFeedback: true}, "NoErrorFeedback"},
		{Options{Damping: -1}, "Damping"},
		{Options{Damping: math.NaN()}, "Damping"},
		{Options{FactorDecay: -0.1}, "FactorDecay"},
		{Options{FactorDecay: 1}, "FactorDecay"},
		{Options{FactorUpdateFreq: -2}, "FactorUpdateFreq"},
		{Options{InvUpdateFreq: -5}, "InvUpdateFreq"},
		{Options{FusionBytes: -1}, "FusionBytes"},
		{Options{MaxFactorDim: -1}, "MaxFactorDim"},
		{Options{Autotune: &AutotuneConfig{Interval: -1}}, "Autotune.Interval"},
	} {
		err := c.opts.Validate(world)
		switch {
		case c.field == "" && err != nil:
			t.Errorf("%+v refused: %v", c.opts, err)
		case c.field != "" && err == nil:
			t.Errorf("%+v accepted, want an error naming %s", c.opts, c.field)
		case c.field != "" && !strings.Contains(err.Error(), c.field):
			t.Errorf("%+v: error %q does not name %s", c.opts, err, c.field)
		}
	}
}

// TestEnumTextRoundTrip: every value of the five configuration enums
// round-trips through its text form, decoding ignores case, empty text is
// the zero value, and an unknown token's error lists the accepted set.
func TestEnumTextRoundTrip(t *testing.T) {
	checkEnumText[Mode](t, 2, "eigen, inverse")
	checkEnumText[Strategy](t, 3, "roundrobin, layerwise, greedy")
	checkEnumText[DistMode](t, 4, "auto, commopt, memopt, hybrid")
	checkEnumText[Engine](t, 2, "sync, pipelined")
	checkEnumText[Precision](t, 2, "f64, float64, f32, float32")
}

// checkEnumText checks the text form of an enum whose values are 0…n−1.
func checkEnumText[T interface {
	~int
	encoding.TextMarshaler
}, P interface {
	*T
	encoding.TextUnmarshaler
}](t *testing.T, n int, accepted string) {
	t.Helper()
	for v := T(0); v < T(n); v++ {
		text, err := v.MarshalText()
		if err != nil {
			t.Fatalf("%T(%d): %v", v, v, err)
		}
		for _, in := range []string{string(text), strings.ToUpper(string(text))} {
			var got T
			if err := P(&got).UnmarshalText([]byte(in)); err != nil || got != v {
				t.Errorf("%T %q decoded to %d (err %v), want %d", v, in, got, err, v)
			}
		}
	}
	if _, err := T(n).MarshalText(); err == nil {
		t.Errorf("%T(%d) has a token", T(n), n)
	}
	got := T(n - 1)
	if err := P(&got).UnmarshalText(nil); err != nil || got != 0 {
		t.Errorf("%T: empty text decoded to %d (err %v), want 0", got, got, err)
	}
	if err := P(&got).UnmarshalText([]byte("bogus")); err == nil || !strings.Contains(err.Error(), accepted) {
		t.Errorf("%T: unknown token error %v does not list %q", got, err, accepted)
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
