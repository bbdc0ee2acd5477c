package optim

import (
	"math"
	"testing"

	"repro/internal/nn"
	"repro/internal/tensor"
)

func TestOptionDefaults(t *testing.T) {
	a := Adam(nil)
	if a.Beta1 != 0.9 || a.Beta2 != 0.999 || a.Eps != 1e-8 {
		t.Errorf("Adam defaults = %v %v %v", a.Beta1, a.Beta2, a.Eps)
	}
	if a.LR() != 0.1 {
		t.Errorf("default lr = %v, want 0.1", a.LR())
	}
	l := LARS(nil)
	if l.Eta != 0.001 {
		t.Errorf("LARS default eta = %v, want 0.001", l.Eta)
	}
	s := SGD(nil)
	if s.Momentum != 0 || s.WeightDecay != 0 {
		t.Errorf("SGD defaults = %+v", s)
	}
}

// Later options override earlier ones.
func TestOptionOrderLastWins(t *testing.T) {
	s := SGD(nil, WithLR(0.1), WithLR(0.7))
	if s.LR() != 0.7 {
		t.Errorf("lr = %v, want 0.7 (last option wins)", s.LR())
	}
}

// Irrelevant options are accepted and ignored, so one option list can serve
// several optimizer families.
func TestIrrelevantOptionsIgnored(t *testing.T) {
	shared := []Option{WithLR(0.2), WithBetas(0.5, 0.6), WithTrustCoefficient(7)}
	s := SGD(nil, shared...)
	if s.LR() != 0.2 {
		t.Errorf("SGD ignored WithLR in shared list: %v", s.LR())
	}
	a := Adam(nil, shared...)
	if a.Beta1 != 0.5 || a.Beta2 != 0.6 {
		t.Errorf("Adam betas = %v %v", a.Beta1, a.Beta2)
	}
}

func TestZeroGrad(t *testing.T) {
	p := paramWith([]float64{1, 2}, []float64{3, 4})
	for _, o := range []Optimizer{
		SGD([]*nn.Param{p}),
		LARS([]*nn.Param{p}),
		Adam([]*nn.Param{p}),
	} {
		copy(p.Grad.Data, []float64{3, 4})
		o.ZeroGrad()
		if p.Grad.Data[0] != 0 || p.Grad.Data[1] != 0 {
			t.Errorf("%T: ZeroGrad left %v", o, p.Grad.Data)
		}
	}
}

// The Optimizer interface is satisfied by all three families and drives a
// quadratic to its minimum regardless of implementation.
func TestInterfaceStepConverges(t *testing.T) {
	target := []float64{1, -2, 3}
	for _, mk := range []func(p *nn.Param) Optimizer{
		func(p *nn.Param) Optimizer { return SGD([]*nn.Param{p}, WithLR(0.3), WithMomentum(0.9)) },
		func(p *nn.Param) Optimizer { return Adam([]*nn.Param{p}, WithLR(0.1)) },
	} {
		p := nn.NewParam("w", tensor.New(3))
		o := mk(p)
		for i := 0; i < 1000; i++ {
			o.ZeroGrad()
			for j := range p.Grad.Data {
				p.Grad.Data[j] = p.Value.Data[j] - target[j]
			}
			o.Step()
		}
		for j := range target {
			if math.Abs(p.Value.Data[j]-target[j]) > 1e-3 {
				t.Errorf("%T did not converge: %v", o, p.Value.Data)
				break
			}
		}
	}
}
