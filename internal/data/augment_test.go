package data

import (
	"math"
	"testing"

	"repro/internal/tensor"
)

func makeBatch(n, h, w, c int) Batch {
	b := Batch{X: tensor.New(n, h, w, c), Labels: make([]int, n)}
	for i := range b.X.Data {
		b.X.Data[i] = float64(i + 1)
	}
	return b
}

func TestFlipHorizontal(t *testing.T) {
	// Two rows of three one-channel pixels.
	img := tensor.FromSlice([]float64{1, 2, 3, 4, 5, 6}, 1, 2, 3, 1)
	flipHorizontal(img)
	want := []float64{3, 2, 1, 6, 5, 4}
	for i := range want {
		if img.Data[i] != want[i] {
			t.Fatalf("flip = %v, want %v", img.Data, want)
		}
	}
	// Involution.
	flipHorizontal(img)
	for i := range img.Data {
		if img.Data[i] != float64(i+1) {
			t.Fatal("double flip should restore")
		}
	}
	// A pixel's channels move together: one row of three two-channel pixels.
	rgb := tensor.FromSlice([]float64{1, 10, 2, 20, 3, 30}, 1, 1, 3, 2)
	flipHorizontal(rgb)
	for i, v := range []float64{3, 30, 2, 20, 1, 10} {
		if rgb.Data[i] != v {
			t.Fatalf("two-channel flip = %v", rgb.Data)
		}
	}
}

func TestCropShift(t *testing.T) {
	img := tensor.FromSlice([]float64{
		1, 2,
		3, 4,
	}, 1, 2, 2, 1)
	cropShift(img, 1, 0) // shift up by one: bottom row exposed → zeros
	want := []float64{3, 4, 0, 0}
	for i := range want {
		if img.Data[i] != want[i] {
			t.Fatalf("shift = %v, want %v", img.Data, want)
		}
	}
	// Zero shift is identity.
	img2 := tensor.FromSlice([]float64{1, 2, 3, 4}, 1, 2, 2, 1)
	cropShift(img2, 0, 0)
	for i := range img2.Data {
		if img2.Data[i] != float64(i+1) {
			t.Fatal("zero shift should be identity")
		}
	}
	// Two-channel pixels shifted right by one and left by more than the
	// width: the exposed column, then the whole image, is zero.
	img3 := tensor.FromSlice([]float64{1, 10, 2, 20, 3, 30, 4, 40}, 1, 2, 2, 2)
	cropShift(img3, 0, -1)
	for i, v := range []float64{0, 0, 1, 10, 0, 0, 3, 30} {
		if img3.Data[i] != v {
			t.Fatalf("shift right = %v", img3.Data)
		}
	}
	cropShift(img3, 0, 5)
	if img3.Norm2() != 0 {
		t.Fatalf("shift past the edge = %v, want zeros", img3.Data)
	}
}

func TestAugmenterPreservesShape(t *testing.T) {
	b := makeBatch(4, 8, 8, 3)
	a := NewAugmenter(2, 0.5, 1)
	a.Apply(b)
	if b.X.Shape[0] != 4 || b.X.Shape[3] != 3 {
		t.Fatalf("shape changed: %v", b.X.Shape)
	}
}

func TestAugmenterDeterministicPerSeed(t *testing.T) {
	b1 := makeBatch(4, 6, 6, 1)
	b2 := makeBatch(4, 6, 6, 1)
	NewAugmenter(2, 0.5, 9).Apply(b1)
	NewAugmenter(2, 0.5, 9).Apply(b2)
	if !b1.X.Equal(b2.X, 0) {
		t.Error("same seed should give identical augmentation")
	}
}

func TestAugmenterNoOpConfig(t *testing.T) {
	b := makeBatch(2, 4, 4, 1)
	orig := b.X.Clone()
	NewAugmenter(0, 0, 1).Apply(b)
	if !b.X.Equal(orig, 0) {
		t.Error("pad=0 flip=0 should be identity")
	}
}

func TestNormalizeZeroMeanUnitVar(t *testing.T) {
	cfg := SyntheticConfig{Train: 64, Test: 16, Classes: 3, Channels: 2, Size: 6, Noise: 1, Seed: 4}
	train, test := GenerateSynthetic(cfg)
	means, stds := Normalize(train)
	if len(means) != 2 || len(stds) != 2 {
		t.Fatalf("stats lengths: %d %d", len(means), len(stds))
	}
	// After normalization the training set is standardized per channel.
	c, pixels := 2, train.Len()*36
	for ch := 0; ch < c; ch++ {
		var sum float64
		cnt := float64(pixels)
		for p := 0; p < pixels; p++ {
			sum += train.X.Data[p*c+ch]
		}
		if math.Abs(sum/cnt) > 1e-10 {
			t.Errorf("channel %d mean %v after normalize", ch, sum/cnt)
		}
	}
	// Test split normalized with train statistics runs without panic and
	// roughly standardizes (not exactly: different sample).
	ApplyNormalization(test, means, stds)
	if test.X.HasNaN() {
		t.Error("NaN after normalization")
	}
}

func TestNormalizeConstantChannel(t *testing.T) {
	d := &Dataset{X: tensor.New(4, 2, 2, 1), Labels: make([]int, 4), Classes: 2}
	d.X.Fill(3)
	means, stds := Normalize(d)
	if means[0] != 3 || stds[0] != 1 {
		t.Errorf("constant channel stats: %v %v", means, stds)
	}
	for _, v := range d.X.Data {
		if v != 0 {
			t.Fatal("constant channel should normalize to zero")
		}
	}
}
