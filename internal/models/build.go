package models

import (
	"fmt"
	"math/rand"

	"repro/internal/nn"
)

// BuildCIFARResNet constructs a trainable CIFAR-style ResNet (the 6n+2
// family): a 3×3 stem at `width` channels, three stages of n basic residual
// blocks at widths {width, 2·width, 4·width} with stride-2 stage
// transitions, global average pooling and a linear classifier.
//
// The paper's correctness runs use ResNet-32 (n=5, width=16). Pure-Go
// training at that size is possible but slow, so the experiment harness
// defaults to n=1, width=8 — a faithful miniature with the same topology;
// pass n=5, width=16 to build the paper-exact model.
//
// The stem reads the data, so it skips its input gradient
// (Conv2D.SkipInputGrad) and the network's Backward returns nil.
func BuildCIFARResNet(n, width, channels, classes int, rng *rand.Rand) *nn.Sequential {
	if n < 1 || width < 1 {
		panic(fmt.Sprintf("models: invalid resnet config n=%d width=%d", n, width))
	}
	net := nn.NewSequential(fmt.Sprintf("cifar-resnet-%d", 6*n+2),
		stem(channels, width, rng),
		nn.NewBatchNorm2d("bn1", width),
		nn.NewReLU("relu1"),
	)
	inC := width
	for stage := 0; stage < 3; stage++ {
		w := width << stage
		for block := 0; block < n; block++ {
			stride := 1
			if stage > 0 && block == 0 {
				stride = 2
			}
			name := fmt.Sprintf("layer%d.%d", stage+1, block)
			body := nn.NewSequential(name+".body",
				nn.NewConv2D(name+".conv1", inC, w, 3, stride, 1, false, rng),
				nn.NewBatchNorm2d(name+".bn1", w),
				nn.NewReLU(name+".relu"),
				nn.NewConv2D(name+".conv2", w, w, 3, 1, 1, false, rng),
				nn.NewBatchNorm2d(name+".bn2", w),
			)
			var shortcut nn.Layer
			if stride != 1 || inC != w {
				shortcut = nn.NewSequential(name+".down",
					nn.NewConv2D(name+".downconv", inC, w, 1, stride, 0, false, rng),
					nn.NewBatchNorm2d(name+".downbn", w),
				)
			}
			net.Add(nn.NewResidual(name, body, shortcut))
			inC = w
		}
	}
	net.Add(nn.NewGlobalAvgPool("gap"))
	net.Add(nn.NewLinear("fc", inC, classes, true, rng))
	return net
}

// CIFARResNetParams is the parameter count of BuildCIFARResNet(n, width,
// channels, classes) — conv weights, batch-norm scales and shifts, and the
// classifier — in closed form, so nothing is built to count it. It is a
// float64 so that no configuration overflows it.
func CIFARResNetParams(n, width, channels, classes int) float64 {
	blocks, w, k := float64(n), float64(width), float64(classes)
	total, in := 9*float64(channels)*w+2*w, w
	for stage, out := range [3]float64{w, 2 * w, 4 * w} {
		// Two 3×3 convs with batch norms per block; only the first block's
		// first conv reads the previous stage's width, and only stages 2
		// and 3 enter through a 1×1 projection with batch norm.
		total += 9*in*out + 9*out*out*(2*blocks-1) + 4*out*blocks
		if stage > 0 {
			total += in*out + 2*out
		}
		in = out
	}
	return total + in*k + k
}

// BuildMLP constructs a small fully-connected classifier; used by the
// quickstart example and fast tests.
func BuildMLP(name string, dims []int, rng *rand.Rand) *nn.Sequential {
	if len(dims) < 2 {
		panic("models: MLP needs at least input and output dims")
	}
	net := nn.NewSequential(name)
	for i := 0; i < len(dims)-1; i++ {
		net.Add(nn.NewLinear(fmt.Sprintf("%s.fc%d", name, i), dims[i], dims[i+1], true, rng))
		if i < len(dims)-2 {
			net.Add(nn.NewReLU(fmt.Sprintf("%s.relu%d", name, i)))
		}
	}
	return net
}

// MLPParams is the parameter count of BuildMLP(name, dims): each layer's
// weights and bias, as a float64 like CIFARResNetParams.
func MLPParams(dims []int) float64 {
	total := 0.0
	for i := 0; i+1 < len(dims); i++ {
		total += (float64(dims[i]) + 1) * float64(dims[i+1])
	}
	return total
}

// BuildSmallCNN constructs the compact conv net used by fast experiments:
// two conv/BN/ReLU stages with pooling, then GAP and a classifier. It is
// K-FAC-preconditionable end to end (convs and the linear head). Like
// BuildCIFARResNet's, its stem skips the input gradient.
func BuildSmallCNN(channels, classes, width int, rng *rand.Rand) *nn.Sequential {
	return nn.NewSequential("smallcnn",
		stem(channels, width, rng),
		nn.NewBatchNorm2d("bn1", width),
		nn.NewReLU("relu1"),
		nn.NewMaxPool2d("pool1", 2, 2),
		nn.NewConv2D("conv2", width, 2*width, 3, 1, 1, false, rng),
		nn.NewBatchNorm2d("bn2", 2*width),
		nn.NewReLU("relu2"),
		nn.NewGlobalAvgPool("gap"),
		nn.NewLinear("fc", 2*width, classes, true, rng),
	)
}

// SmallCNNParams is the parameter count of BuildSmallCNN(channels, classes,
// width), as a float64 like CIFARResNetParams.
func SmallCNNParams(channels, classes, width int) float64 {
	c, k, w := float64(channels), float64(classes), float64(width)
	return 9*c*w + 2*w + 9*w*2*w + 2*2*w + (2*w+1)*k
}

// stem is a network's first layer, conv1: a 3×3 convolution of the data
// that skips its input gradient, which nothing reads.
func stem(channels, width int, rng *rand.Rand) *nn.Conv2D {
	c := nn.NewConv2D("conv1", channels, width, 3, 1, 1, false, rng)
	c.SkipInputGrad = true
	return c
}
