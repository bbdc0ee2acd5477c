// Package models provides (a) exact layer-shape catalogs of the ResNet
// family the paper evaluates — ResNet-32 on CIFAR geometry and
// ResNet-34/50/101/152 on ImageNet geometry — and (b) small trainable
// ResNets built from internal/nn used by the correctness experiments.
//
// The catalogs matter because the paper's scaling behaviour (Tables V–VI,
// Figures 7–10) is driven by the true distribution of Kronecker-factor
// dimensions across layers: eigendecomposition cost is cubic in factor size,
// so a handful of 2048–4608-dimensional factors dominate, and round-robin
// placement leaves workers imbalanced exactly as §VI-C4 reports.
package models

import (
	"fmt"

	"repro/internal/kfac"
)

// LayerSpec describes one K-FAC-relevant layer of a reference architecture.
type LayerSpec struct {
	Name string
	// Kind is "conv" or "linear".
	Kind string
	// ADim is the activation-factor dimension (C·kh·kw for conv, in for
	// linear), excluding the bias column.
	ADim int
	// GDim is the gradient-factor dimension (output channels/features).
	GDim int
	// Bias reports whether the layer has a bias (adds 1 to the A factor).
	Bias bool
	// Params is the trainable parameter count (weights + bias).
	Params int
	// SpatialOut is outH·outW at the reference input resolution; linear
	// layers have SpatialOut 1.
	SpatialOut int
}

// FactorADim returns the A factor's matrix dimension including bias.
func (l LayerSpec) FactorADim() int {
	if l.Bias {
		return l.ADim + 1
	}
	return l.ADim
}

// Catalog is an ordered list of the K-FAC layers of one model.
type Catalog struct {
	Name   string
	Layers []LayerSpec
}

// TotalParams sums parameter counts over K-FAC layers.
func (c *Catalog) TotalParams() int {
	n := 0
	for _, l := range c.Layers {
		n += l.Params
	}
	return n
}

// FactorRefs converts the catalog into the factor list used by the
// placement code, in the same (A then G, layer-major) order the live
// preconditioner uses.
func (c *Catalog) FactorRefs() []kfac.FactorRef {
	refs := make([]kfac.FactorRef, 0, 2*len(c.Layers))
	for i, l := range c.Layers {
		refs = append(refs, kfac.FactorRef{Layer: i, IsG: false, Dim: l.FactorADim()})
		refs = append(refs, kfac.FactorRef{Layer: i, IsG: true, Dim: l.GDim})
	}
	return refs
}

// conv appends an ImageNet/CIFAR conv spec (bias-free, BN follows).
func conv(name string, inC, outC, k, spatialOut int) LayerSpec {
	return LayerSpec{
		Name: name, Kind: "conv",
		ADim: inC * k * k, GDim: outC,
		Params:     outC * inC * k * k,
		SpatialOut: spatialOut,
	}
}

// fc appends a biased linear spec.
func fc(name string, in, out int) LayerSpec {
	return LayerSpec{
		Name: name, Kind: "linear",
		ADim: in, GDim: out, Bias: true,
		Params: in*out + out, SpatialOut: 1,
	}
}

// bottleneckCounts are the per-stage block counts of the ImageNet ResNets.
var bottleneckCounts = map[string][4]int{
	"resnet50":  {3, 4, 6, 3},
	"resnet101": {3, 4, 23, 3},
	"resnet152": {3, 8, 36, 3},
}

// imagenetBottleneck builds the catalog of a bottleneck-block ResNet at
// 224×224 input resolution.
func imagenetBottleneck(name string) *Catalog {
	counts, ok := bottleneckCounts[name]
	if !ok {
		panic(fmt.Sprintf("models: unknown bottleneck resnet %q", name))
	}
	c := &Catalog{Name: name}
	// Stem: 7×7/2 conv 3→64 (224→112).
	c.Layers = append(c.Layers, conv("conv1", 3, 64, 7, 112*112))
	// After 3×3/2 max pool: 56×56.
	spatial := [4]int{56 * 56, 28 * 28, 14 * 14, 7 * 7}
	width := [4]int{64, 128, 256, 512}
	inC := 64
	for stage := 0; stage < 4; stage++ {
		w := width[stage]
		outC := 4 * w
		sp := spatial[stage]
		for block := 0; block < counts[stage]; block++ {
			p := fmt.Sprintf("layer%d.%d", stage+1, block)
			c.Layers = append(c.Layers,
				conv(p+".conv1", inC, w, 1, sp),
				conv(p+".conv2", w, w, 3, sp),
				conv(p+".conv3", w, outC, 1, sp),
			)
			if block == 0 {
				// Projection shortcut at each stage entry.
				c.Layers = append(c.Layers, conv(p+".downsample", inC, outC, 1, sp))
			}
			inC = outC
		}
	}
	c.Layers = append(c.Layers, fc("fc", 2048, 1000))
	return c
}

// imagenetBasic builds a basic-block ImageNet ResNet (ResNet-34).
func imagenetBasic(name string, counts [4]int) *Catalog {
	c := &Catalog{Name: name}
	c.Layers = append(c.Layers, conv("conv1", 3, 64, 7, 112*112))
	spatial := [4]int{56 * 56, 28 * 28, 14 * 14, 7 * 7}
	width := [4]int{64, 128, 256, 512}
	inC := 64
	for stage := 0; stage < 4; stage++ {
		w := width[stage]
		sp := spatial[stage]
		for block := 0; block < counts[stage]; block++ {
			p := fmt.Sprintf("layer%d.%d", stage+1, block)
			c.Layers = append(c.Layers,
				conv(p+".conv1", inC, w, 3, sp),
				conv(p+".conv2", w, w, 3, sp),
			)
			if block == 0 && inC != w {
				c.Layers = append(c.Layers, conv(p+".downsample", inC, w, 1, sp))
			}
			inC = w
		}
	}
	c.Layers = append(c.Layers, fc("fc", 512, 1000))
	return c
}

// cifarBasic builds the CIFAR ResNet family of He et al. (6n+2 layers):
// three stages of n basic blocks at widths {16, 32, 64} on 32×32 inputs.
// ResNet-32 is n = 5.
func cifarBasic(name string, n, classes int) *Catalog {
	c := &Catalog{Name: name}
	c.Layers = append(c.Layers, conv("conv1", 3, 16, 3, 32*32))
	spatial := [3]int{32 * 32, 16 * 16, 8 * 8}
	width := [3]int{16, 32, 64}
	inC := 16
	for stage := 0; stage < 3; stage++ {
		w := width[stage]
		sp := spatial[stage]
		for block := 0; block < n; block++ {
			p := fmt.Sprintf("layer%d.%d", stage+1, block)
			c.Layers = append(c.Layers,
				conv(p+".conv1", inC, w, 3, sp),
				conv(p+".conv2", w, w, 3, sp),
			)
			if block == 0 && inC != w {
				c.Layers = append(c.Layers, conv(p+".downsample", inC, w, 1, sp))
			}
			inC = w
		}
	}
	c.Layers = append(c.Layers, fc("fc", 64, classes))
	return c
}

// ResNet50Catalog returns the ResNet-50 layer shapes at 224×224.
func ResNet50Catalog() *Catalog { return imagenetBottleneck("resnet50") }

// ResNet101Catalog returns the ResNet-101 layer shapes at 224×224.
func ResNet101Catalog() *Catalog { return imagenetBottleneck("resnet101") }

// ResNet152Catalog returns the ResNet-152 layer shapes at 224×224.
func ResNet152Catalog() *Catalog { return imagenetBottleneck("resnet152") }

// ResNet34Catalog returns the ResNet-34 layer shapes at 224×224.
func ResNet34Catalog() *Catalog { return imagenetBasic("resnet34", [4]int{3, 4, 6, 3}) }

// ResNet32Catalog returns the CIFAR ResNet-32 layer shapes at 32×32.
func ResNet32Catalog() *Catalog { return cifarBasic("resnet32", 5, 10) }

// CatalogByName resolves a model name to its catalog.
func CatalogByName(name string) (*Catalog, error) {
	switch name {
	case "resnet32":
		return ResNet32Catalog(), nil
	case "resnet34":
		return ResNet34Catalog(), nil
	case "resnet50":
		return ResNet50Catalog(), nil
	case "resnet101":
		return ResNet101Catalog(), nil
	case "resnet152":
		return ResNet152Catalog(), nil
	}
	return nil, fmt.Errorf("models: unknown model %q", name)
}
