package models

import (
	"math/rand"
	"testing"

	"repro/internal/nn"
	"repro/internal/tensor"
)

func TestResNet50CatalogParamCount(t *testing.T) {
	// Published ResNet-50 has ~25.56 M parameters; our catalog excludes
	// BatchNorm affine parameters (~53 k), so expect ≈ 25.50 M.
	c := ResNet50Catalog()
	total := c.TotalParams()
	if total < 25_400_000 || total > 25_600_000 {
		t.Errorf("ResNet-50 params = %d, want ≈ 25.5M", total)
	}
}

func TestResNet101CatalogParamCount(t *testing.T) {
	// Published: ~44.55 M including BN.
	total := ResNet101Catalog().TotalParams()
	if total < 44_300_000 || total > 44_700_000 {
		t.Errorf("ResNet-101 params = %d, want ≈ 44.5M", total)
	}
}

func TestResNet152CatalogParamCount(t *testing.T) {
	// Published: ~60.19 M including BN.
	total := ResNet152Catalog().TotalParams()
	if total < 59_900_000 || total > 60_400_000 {
		t.Errorf("ResNet-152 params = %d, want ≈ 60.2M", total)
	}
}

func TestResNet34CatalogParamCount(t *testing.T) {
	// Published: ~21.80 M including BN.
	total := ResNet34Catalog().TotalParams()
	if total < 21_600_000 || total > 21_900_000 {
		t.Errorf("ResNet-34 params = %d, want ≈ 21.8M", total)
	}
}

func TestResNet32CatalogStructure(t *testing.T) {
	c := ResNet32Catalog()
	// 6n+2 with n=5: 31 convs + 1 fc = 32 weighted layers, plus two
	// downsample projections (stage 2 and 3 entries).
	convs, linears, downs := 0, 0, 0
	for _, l := range c.Layers {
		switch l.Kind {
		case "conv":
			convs++
		case "linear":
			linears++
		}
		if l.Name == "layer2.0.downsample" || l.Name == "layer3.0.downsample" {
			downs++
		}
	}
	if linears != 1 {
		t.Errorf("linears = %d, want 1", linears)
	}
	if convs != 31+2 {
		t.Errorf("convs = %d, want 33 (31 + 2 downsample)", convs)
	}
	if downs != 2 {
		t.Errorf("downsample layers = %d, want 2", downs)
	}
	// ~0.46 M params for CIFAR ResNet-32.
	total := c.TotalParams()
	if total < 400_000 || total > 520_000 {
		t.Errorf("ResNet-32 params = %d, want ≈ 0.46M", total)
	}
}

func TestCatalogLayerCounts(t *testing.T) {
	// Weighted-layer counts of the bottleneck models: the "50/101/152"
	// names count convs + fc (excluding downsample projections):
	// 1 stem + 3·Σblocks + 1 fc.
	cases := []struct {
		cat    *Catalog
		blocks int // total bottleneck blocks
	}{
		{ResNet50Catalog(), 16},
		{ResNet101Catalog(), 33},
		{ResNet152Catalog(), 50},
	}
	for _, cse := range cases {
		named := 1 + 3*cse.blocks + 1
		// Catalog also includes 4 downsample convs (one per stage).
		want := named + 4
		if got := len(cse.cat.Layers); got != want {
			t.Errorf("%s: %d layers, want %d", cse.cat.Name, got, want)
		}
	}
}

func TestCatalogMaxFactorDims(t *testing.T) {
	// The largest A factor in bottleneck ResNets is the 3×3 conv at width
	// 512: 512·9 = 4608. The largest G factor is 2048.
	c := ResNet152Catalog()
	maxA, maxG := 0, 0
	for _, l := range c.Layers {
		if l.FactorADim() > maxA {
			maxA = l.FactorADim()
		}
		if l.GDim > maxG {
			maxG = l.GDim
		}
	}
	if maxA != 4608 {
		t.Errorf("max A dim = %d, want 4608", maxA)
	}
	if maxG != 2048 {
		t.Errorf("max G dim = %d, want 2048", maxG)
	}
}

func TestFactorRefsOrderAndCount(t *testing.T) {
	c := ResNet32Catalog()
	refs := c.FactorRefs()
	if len(refs) != 2*len(c.Layers) {
		t.Fatalf("refs = %d, want %d", len(refs), 2*len(c.Layers))
	}
	for i, l := range c.Layers {
		if refs[2*i].IsG || !refs[2*i+1].IsG {
			t.Fatal("refs must alternate A,G")
		}
		if refs[2*i].Dim != l.FactorADim() || refs[2*i+1].Dim != l.GDim {
			t.Fatalf("layer %d ref dims mismatch", i)
		}
	}
}

func TestCatalogByName(t *testing.T) {
	for _, name := range []string{"resnet32", "resnet34", "resnet50", "resnet101", "resnet152"} {
		c, err := CatalogByName(name)
		if err != nil || c.Name != name {
			t.Errorf("CatalogByName(%q) = %v, %v", name, c, err)
		}
	}
	if _, err := CatalogByName("vgg16"); err == nil {
		t.Error("expected error for unknown model")
	}
}

func TestBuildCIFARResNetForwardBackward(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	net := BuildCIFARResNet(1, 4, 3, 10, rng)
	x := tensor.Randn(rng, 1, 2, 16, 16, 3)
	out := net.Forward(x, true)
	if out.Rows() != 2 || out.Cols() != 10 {
		t.Fatalf("output shape = %v", out.Shape)
	}
	ce := nn.CrossEntropy{}
	loss, grad := ce.Loss(out, []int{3, 7})
	if loss <= 0 {
		t.Errorf("loss = %v", loss)
	}
	nn.ZeroGrads(net)
	net.Backward(grad)
	// Every trainable parameter should receive some gradient signal.
	zero := 0
	for _, p := range net.Params() {
		if p.Grad.Norm2() == 0 {
			zero++
		}
	}
	if zero > 0 {
		t.Errorf("%d parameters received zero gradient", zero)
	}
}

func TestBuildCIFARResNetCapturableLayerCount(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	net := BuildCIFARResNet(1, 4, 3, 10, rng)
	caps := nn.CapturableLayers(net)
	// n=1: stem + 3 stages × (2 convs) + 2 downsample convs + fc = 1+6+2+1.
	if len(caps) != 10 {
		t.Errorf("capturable layers = %d, want 10", len(caps))
	}
}

func TestBuildCIFARResNetStridesReduceSpatial(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	net := BuildCIFARResNet(1, 4, 3, 5, rng)
	x := tensor.Randn(rng, 1, 1, 32, 32, 3)
	out := net.Forward(x, false)
	if out.Rows() != 1 || out.Cols() != 5 {
		t.Fatalf("32x32 forward output shape = %v", out.Shape)
	}
}

func TestBuildMLP(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	net := BuildMLP("mlp", []int{8, 16, 4}, rng)
	x := tensor.Randn(rng, 1, 3, 8)
	out := net.Forward(x, true)
	if out.Rows() != 3 || out.Cols() != 4 {
		t.Fatalf("MLP output shape = %v", out.Shape)
	}
	if len(nn.CapturableLayers(net)) != 2 {
		t.Error("MLP should have 2 capturable layers")
	}
}

func TestBuildSmallCNN(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	net := BuildSmallCNN(3, 10, 8, rng)
	x := tensor.Randn(rng, 1, 2, 16, 16, 3)
	out := net.Forward(x, true)
	if out.Rows() != 2 || out.Cols() != 10 {
		t.Fatalf("SmallCNN output shape = %v", out.Shape)
	}
}

// TestParamCountsMatchBuild holds each closed-form count to the parameters
// its builder allocates.
func TestParamCountsMatchBuild(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	count := func(net *nn.Sequential) float64 {
		total := 0
		for _, p := range net.Params() {
			total += len(p.Value.Data)
		}
		return float64(total)
	}
	for _, c := range []struct{ n, width, channels, classes int }{
		{1, 1, 1, 2}, {1, 2, 3, 10}, {3, 4, 2, 7}, {2, 3, 1, 5},
	} {
		if got, want := CIFARResNetParams(c.n, c.width, c.channels, c.classes),
			count(BuildCIFARResNet(c.n, c.width, c.channels, c.classes, rng)); got != want {
			t.Errorf("CIFARResNetParams%+v = %v, Build allocates %v", c, got, want)
		}
	}
	for _, c := range []struct{ channels, classes, width int }{{3, 10, 3}, {1, 4, 8}, {2, 2, 1}} {
		if got, want := SmallCNNParams(c.channels, c.classes, c.width),
			count(BuildSmallCNN(c.channels, c.classes, c.width, rng)); got != want {
			t.Errorf("SmallCNNParams%+v = %v, Build allocates %v", c, got, want)
		}
	}
	for _, dims := range [][]int{{16, 8, 4}, {5, 3}, {48, 1, 1, 1, 10}} {
		if got, want := MLPParams(dims), count(BuildMLP("mlp", dims, rng)); got != want {
			t.Errorf("MLPParams(%v) = %v, Build allocates %v", dims, got, want)
		}
	}
}

func TestBuildInvalidConfigPanics(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	BuildCIFARResNet(0, 4, 3, 10, rng)
}
