package nn

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/tensor"
)

func TestAvgPoolForwardKnown(t *testing.T) {
	x := tensor.New(1, 4, 4, 1)
	for i := range x.Data {
		x.Data[i] = float64(i)
	}
	ap := NewAvgPool2d("ap", 2, 2)
	y := ap.Forward(x, true)
	// Window averages: (0+1+4+5)/4=2.5, (2+3+6+7)/4=4.5, ...
	want := []float64{2.5, 4.5, 10.5, 12.5}
	for i := range want {
		if y.Data[i] != want[i] {
			t.Fatalf("AvgPool = %v, want %v", y.Data, want)
		}
	}
}

func TestAvgPoolGradCheck(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	ap := NewAvgPool2d("ap", 2, 2)
	x := tensor.Randn(rng, 1, 2, 4, 4, 2)
	gradCheckLayer(t, ap, x, rng)
}

func TestAvgPoolStride1GradCheck(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	ap := NewAvgPool2d("ap", 3, 1)
	x := tensor.Randn(rng, 1, 1, 5, 5, 2)
	gradCheckLayer(t, ap, x, rng)
}

func TestDropoutEvalIsIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	d := NewDropout("do", 0.5, rng)
	x := tensor.Randn(rng, 1, 4, 4)
	y := d.Forward(x, false)
	if !y.Equal(x, 0) {
		t.Error("eval-mode dropout must be identity")
	}
	g := d.Backward(x)
	if !g.Equal(x, 0) {
		t.Error("eval-mode dropout backward must be identity")
	}
}

func TestDropoutZeroProbability(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	d := NewDropout("do", 0, rng)
	x := tensor.Randn(rng, 1, 3, 3)
	if !d.Forward(x, true).Equal(x, 0) {
		t.Error("p=0 dropout must be identity")
	}
}

func TestDropoutPreservesExpectation(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	d := NewDropout("do", 0.3, rng)
	x := tensor.Ones(10000)
	y := d.Forward(x, true)
	// Inverted dropout: E[y] = 1.
	if math.Abs(y.Mean()-1) > 0.05 {
		t.Errorf("dropout mean = %v, want ≈ 1", y.Mean())
	}
	// Survivors are scaled by 1/(1−p).
	seen := map[float64]bool{}
	for _, v := range y.Data {
		seen[v] = true
	}
	if len(seen) != 2 {
		t.Errorf("dropout output has %d distinct values, want 2", len(seen))
	}
}

func TestDropoutBackwardMatchesMask(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	d := NewDropout("do", 0.5, rng)
	x := tensor.Ones(64)
	y := d.Forward(x, true)
	g := d.Backward(tensor.Ones(64))
	// Gradient flows exactly where the forward survived (same scale).
	for i := range y.Data {
		if (y.Data[i] == 0) != (g.Data[i] == 0) {
			t.Fatal("backward mask mismatch")
		}
	}
}

func TestGroupNormForwardNormalizesSlabs(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	gn := NewGroupNorm("gn", 4, 2)
	x := tensor.Randn(rng, 2, 2, 3, 3, 4)
	y := gn.Forward(x, true)
	// Each (image, group) slab of the output — two adjacent channels of
	// every pixel of one image — is standardized (γ=1, β=0).
	const spatial, c, chPerGroup = 9, 4, 2
	for img := 0; img < 2; img++ {
		for grp := 0; grp < 2; grp++ {
			var mean float64
			for s := 0; s < spatial; s++ {
				for ch := 0; ch < chPerGroup; ch++ {
					mean += y.Data[(img*spatial+s)*c+grp*chPerGroup+ch]
				}
			}
			if mean /= chPerGroup * spatial; math.Abs(mean) > 1e-10 {
				t.Errorf("slab (%d,%d) mean %v", img, grp, mean)
			}
		}
	}
}

func TestGroupNormGradCheck(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	gn := NewGroupNorm("gn", 4, 2)
	x := tensor.Randn(rng, 1, 2, 3, 3, 4)
	gradCheckLayer(t, gn, x, rng)
}

func TestGroupNormSingleGroupIsLayerNorm(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	gn := NewGroupNorm("gn", 3, 1)
	x := tensor.Randn(rng, 1, 2, 4, 4, 3)
	gradCheckLayer(t, gn, x, rng)
}

func TestGroupNormInvalidGroupsPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewGroupNorm("gn", 4, 3)
}

func TestGroupNormBatchSizeIndependent(t *testing.T) {
	// GroupNorm of a single image must not change when other images join
	// the batch — the property BatchNorm lacks.
	rng := rand.New(rand.NewSource(10))
	gn := NewGroupNorm("gn", 2, 2)
	x1 := tensor.Randn(rng, 1, 1, 3, 3, 2)
	solo := gn.Forward(x1, true).Clone()
	x2 := tensor.ConcatRows(x1, tensor.Randn(rng, 1, 1, 3, 3, 2))
	both := gn.Forward(x2, true)
	firstHalf := tensor.SliceRows(both, 0, 1)
	if !firstHalf.Equal(solo, 1e-12) {
		t.Error("GroupNorm output depends on batch composition")
	}
}
