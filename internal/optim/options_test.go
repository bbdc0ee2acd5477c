package optim

import (
	"math"
	"testing"

	"repro/internal/nn"
	"repro/internal/tensor"
)

func TestOptionDefaults(t *testing.T) {
	s := SGD(nil)
	if s.lr != 0.1 {
		t.Errorf("default lr = %v, want 0.1", s.lr)
	}
	if s.Momentum != 0 || s.WeightDecay != 0 {
		t.Errorf("SGD defaults = %+v", s)
	}
}

// Later options override earlier ones.
func TestOptionOrderLastWins(t *testing.T) {
	s := SGD(nil, WithLR(0.1), WithLR(0.7))
	if s.lr != 0.7 {
		t.Errorf("lr = %v, want 0.7 (last option wins)", s.lr)
	}
}

func TestZeroGrad(t *testing.T) {
	p := paramWith([]float64{1, 2}, []float64{3, 4})
	var o Optimizer = SGD([]*nn.Param{p})
	o.ZeroGrad()
	if p.Grad.Data[0] != 0 || p.Grad.Data[1] != 0 {
		t.Errorf("ZeroGrad left %v", p.Grad.Data)
	}
}

// Driven through the Optimizer interface, SGD with momentum takes a
// quadratic to its minimum.
func TestInterfaceStepConverges(t *testing.T) {
	target := []float64{1, -2, 3}
	p := nn.NewParam("w", tensor.New(3))
	var o Optimizer = SGD([]*nn.Param{p}, WithLR(0.3), WithMomentum(0.9))
	for i := 0; i < 1000; i++ {
		o.ZeroGrad()
		for j := range p.Grad.Data {
			p.Grad.Data[j] = p.Value.Data[j] - target[j]
		}
		o.Step()
	}
	for j := range target {
		if math.Abs(p.Value.Data[j]-target[j]) > 1e-3 {
			t.Errorf("SGD did not converge: %v", p.Value.Data)
			break
		}
	}
}
