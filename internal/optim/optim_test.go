package optim

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/models"
	"repro/internal/nn"
	"repro/internal/tensor"
)

func paramWith(value, grad []float64) *nn.Param {
	p := nn.NewParam("p", tensor.FromSlice(value, len(value)))
	copy(p.Grad.Data, grad)
	return p
}

func TestSGDVanillaStep(t *testing.T) {
	p := paramWith([]float64{1, 2}, []float64{0.5, -0.5})
	s := SGD([]*nn.Param{p}, WithLR(0.1))
	s.Step()
	if math.Abs(p.Value.Data[0]-0.95) > 1e-12 || math.Abs(p.Value.Data[1]-2.05) > 1e-12 {
		t.Errorf("SGD step = %v", p.Value.Data)
	}
}

func TestSGDMomentumAccumulates(t *testing.T) {
	p := paramWith([]float64{0}, []float64{1})
	s := SGD([]*nn.Param{p}, WithLR(1), WithMomentum(0.9))
	s.Step() // buf=1, w=-1
	copy(p.Grad.Data, []float64{1})
	s.Step() // buf=1.9, w=-2.9
	if math.Abs(p.Value.Data[0]+2.9) > 1e-12 {
		t.Errorf("momentum step = %v, want -2.9", p.Value.Data[0])
	}
}

func TestSGDWeightDecay(t *testing.T) {
	p := paramWith([]float64{10}, []float64{0})
	s := SGD([]*nn.Param{p}, WithLR(0.1), WithWeightDecay(0.5))
	s.Step() // g_eff = 0 + 0.5*10 = 5; w = 10 - 0.5 = 9.5
	if math.Abs(p.Value.Data[0]-9.5) > 1e-12 {
		t.Errorf("weight decay step = %v, want 9.5", p.Value.Data[0])
	}
}

func TestSGDNoWeightDecayFlag(t *testing.T) {
	p := paramWith([]float64{10}, []float64{0})
	p.NoWeightDecay = true
	s := SGD([]*nn.Param{p}, WithLR(0.1), WithWeightDecay(0.5))
	s.Step()
	if p.Value.Data[0] != 10 {
		t.Errorf("NoWeightDecay param moved: %v", p.Value.Data[0])
	}
}

func TestSGDConvergesOnQuadratic(t *testing.T) {
	// Minimize f(w) = ½‖w − w*‖²; gradient = w − w*.
	rng := rand.New(rand.NewSource(1))
	target := tensor.Randn(rng, 1, 10)
	p := nn.NewParam("w", tensor.New(10))
	s := SGD([]*nn.Param{p}, WithLR(0.3), WithMomentum(0.9))
	for i := 0; i < 500; i++ {
		for j := range p.Grad.Data {
			p.Grad.Data[j] = p.Value.Data[j] - target.Data[j]
		}
		s.Step()
	}
	diff := p.Value.Clone()
	diff.Sub(target)
	if diff.Norm2() > 1e-6 {
		t.Errorf("SGD did not converge: dist %v", diff.Norm2())
	}
}

// TestSGDStepSteadyStateZeroAllocs: a step updates every parameter and its
// momentum buffer in place and allocates nothing, weight decay or not.
func TestSGDStepSteadyStateZeroAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	w, b := nn.NewParam("w", tensor.Randn(rng, 13, 7)), nn.NewParam("b", tensor.Randn(rng, 13))
	b.NoWeightDecay = true
	s := SGD([]*nn.Param{w, b}, WithLR(0.1), WithMomentum(0.9), WithWeightDecay(5e-4))
	s.Step()
	if a := testing.AllocsPerRun(100, s.Step); a != 0 {
		t.Fatalf("steady-state SGD step allocates %v times", a)
	}
}

func TestSetLR(t *testing.T) {
	p := paramWith([]float64{0}, []float64{1})
	s := SGD([]*nn.Param{p}, WithLR(0.1))
	var o Optimizer = s
	o.SetLR(0.42)
	if s.lr != 0.42 {
		t.Errorf("SetLR failed: lr = %v", s.lr)
	}
}

func TestLRScheduleWarmupAndDecay(t *testing.T) {
	s := LRSchedule{BaseLR: 1.0, WarmupEpochs: 5, Milestones: []int{10, 20}, Factor: 0.1}
	// Linear warmup: epoch 0 → 0.2, epoch 4 → 1.0.
	if math.Abs(s.At(0)-0.2) > 1e-12 {
		t.Errorf("At(0) = %v, want 0.2", s.At(0))
	}
	if math.Abs(s.At(4)-1.0) > 1e-12 {
		t.Errorf("At(4) = %v, want 1.0", s.At(4))
	}
	if math.Abs(s.At(7)-1.0) > 1e-12 {
		t.Errorf("At(7) = %v, want 1.0", s.At(7))
	}
	if math.Abs(s.At(10)-0.1) > 1e-12 {
		t.Errorf("At(10) = %v, want 0.1", s.At(10))
	}
	if math.Abs(s.At(25)-0.01) > 1e-12 {
		t.Errorf("At(25) = %v, want 0.01", s.At(25))
	}
}

func TestLRScheduleDefaultFactor(t *testing.T) {
	s := LRSchedule{BaseLR: 1.0, Milestones: []int{2}}
	if math.Abs(s.At(3)-0.1) > 1e-12 {
		t.Errorf("default factor At(3) = %v, want 0.1", s.At(3))
	}
}

func TestLRScheduleMonotoneNonIncreasingAfterWarmup(t *testing.T) {
	s := LRSchedule{BaseLR: 3.2, WarmupEpochs: 5, Milestones: []int{25, 35, 40, 45, 50}, Factor: 0.1}
	prev := math.Inf(1)
	for e := 5; e < 55; e++ {
		v := s.At(e)
		if v > prev {
			t.Fatalf("LR increased after warmup at epoch %d", e)
		}
		prev = v
	}
}

// BenchmarkSGDStep times one momentum step over the parameters of the
// benchmark's stale_w1 network (models.BuildCIFARResNet(2, 12, 3, 10)).
//
//	go test ./internal/optim -run '^$' -bench SGDStep -cpu 1
func BenchmarkSGDStep(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	params := models.BuildCIFARResNet(2, 12, 3, 10, rng).Params()
	for _, p := range params {
		for i := range p.Grad.Data {
			p.Grad.Data[i] = rng.NormFloat64()
		}
	}
	s := SGD(params, WithLR(0.02), WithMomentum(0.9))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Step()
	}
}
