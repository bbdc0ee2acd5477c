package models

import (
	"math/rand"
	"testing"

	"repro/internal/nn"
	"repro/internal/tensor"
)

func TestBuildBottleneckResNetForwardBackward(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	net := BuildBottleneckResNet([]int{1, 1}, 4, 3, 10, rng)
	x := tensor.Randn(rng, 1, 2, 16, 16, 3)
	out := net.Forward(x, true)
	if out.Rows() != 2 || out.Cols() != 10 {
		t.Fatalf("output shape = %v", out.Shape)
	}
	ce := nn.CrossEntropy{}
	_, grad := ce.Loss(out, []int{1, 2})
	nn.ZeroGrads(net)
	net.Backward(grad)
	for _, p := range net.Params() {
		if p.Grad.HasNaN() {
			t.Fatalf("NaN gradient in %s", p.Name)
		}
	}
}

func TestBuildBottleneckResNetCapturableLayers(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	net := BuildBottleneckResNet([]int{1, 1}, 4, 3, 10, rng)
	caps := nn.CapturableLayers(net)
	// stem + 2 blocks × 3 convs + 2 projections + fc = 1+6+2+1 = 10.
	if len(caps) != 10 {
		t.Errorf("capturable layers = %d, want 10", len(caps))
	}
	// Factor-size heterogeneity: the G dims must differ across layers (the
	// property that drives round-robin imbalance).
	dims := map[int]bool{}
	for _, c := range caps {
		dims[c.OutDim()] = true
	}
	if len(dims) < 3 {
		t.Errorf("only %d distinct output dims; expected heterogeneity", len(dims))
	}
}

func TestBuildBottleneckResNetStageWidths(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	net := BuildBottleneckResNet([]int{1, 1, 1}, 4, 3, 5, rng)
	// Final linear input = 4·width·2^(stages-1) = 4·4·4 = 64.
	caps := nn.CapturableLayers(net)
	fc := caps[len(caps)-1]
	if fc.InDim() != 64 {
		t.Errorf("fc input = %d, want 64", fc.InDim())
	}
}

func TestBuildBottleneckResNetInvalidPanics(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	BuildBottleneckResNet(nil, 4, 3, 10, rng)
}
