package models

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/nn"
	"repro/internal/tensor"
)

// directConv is a convolution written down from its definition — the nested
// loops over a channels-last [N, H, W, C] input, the weight's columns in
// (ky, kx, c) order — sharing the parameters of the nn.Conv2D it stands in
// for. No lowering, no GEMM: the reference the lowered layer is held to.
type directConv struct {
	*nn.Conv2D
	w, dW *tensor.Tensor
	x     *tensor.Tensor
}

func (d *directConv) geometry(x *tensor.Tensor) (n, h, w, oh, ow int) {
	n, h, w = x.Shape[0], x.Shape[1], x.Shape[2]
	return n, h, w, tensor.ConvOutSize(h, d.KH, d.Stride, d.Pad), tensor.ConvOutSize(w, d.KW, d.Stride, d.Pad)
}

// eachTerm visits every (output element, input element, weight element)
// triple of the convolution.
func (d *directConv) eachTerm(x *tensor.Tensor, visit func(out, in, wt int)) {
	n, h, w, oh, ow := d.geometry(x)
	for img := 0; img < n; img++ {
		for oy := 0; oy < oh; oy++ {
			for ox := 0; ox < ow; ox++ {
				for oc := 0; oc < d.OutC; oc++ {
					for ky := 0; ky < d.KH; ky++ {
						for kx := 0; kx < d.KW; kx++ {
							iy, ix := oy*d.Stride-d.Pad+ky, ox*d.Stride-d.Pad+kx
							if iy < 0 || iy >= h || ix < 0 || ix >= w {
								continue
							}
							for c := 0; c < d.InC; c++ {
								visit(((img*oh+oy)*ow+ox)*d.OutC+oc, ((img*h+iy)*w+ix)*d.InC+c,
									(oc*d.KH*d.KW+ky*d.KW+kx)*d.InC+c)
							}
						}
					}
				}
			}
		}
	}
}

func (d *directConv) Forward(x *tensor.Tensor, _ bool) *tensor.Tensor {
	d.x = x
	n, _, _, oh, ow := d.geometry(x)
	y := tensor.New(n, oh, ow, d.OutC)
	d.eachTerm(x, func(out, in, wt int) { y.Data[out] += x.Data[in] * d.w.Data[wt] })
	return y
}

func (d *directConv) Backward(g *tensor.Tensor) *tensor.Tensor {
	dx := tensor.New(d.x.Shape...)
	d.eachTerm(d.x, func(out, in, wt int) {
		dx.Data[in] += g.Data[out] * d.w.Data[wt]
		d.dW.Data[wt] += g.Data[out] * d.x.Data[in]
	})
	return dx
}

// withDirectConvs replaces every bias-free Conv2D under l, in place, by its
// directConv; the replacements accumulate their weight gradients into dW,
// keyed by parameter name.
func withDirectConvs(l nn.Layer, dW map[string]*tensor.Tensor) nn.Layer {
	switch v := l.(type) {
	case *nn.Conv2D:
		g := tensor.New(v.W.Value.Shape...)
		dW[v.W.Name] = g
		return &directConv{Conv2D: v, w: v.W.Value, dW: g}
	case *nn.Sequential:
		for i, c := range v.Layers {
			v.Layers[i] = withDirectConvs(c, dW)
		}
	case *nn.Residual:
		v.Body = withDirectConvs(v.Body, dW)
		if v.Shortcut != nil {
			v.Shortcut = withDirectConvs(v.Shortcut, dW)
		}
	}
	return l
}

func relClose(got, want, tol float64) bool {
	return math.Abs(got-want) <= tol*(1+math.Abs(want))
}

// layoutProbe is the fixed input of the tests below: sin(0.37·i + 1) over
// the channels-first index i of a [2, 3, 8, 8] batch, stored channels-last.
func layoutProbe() (*tensor.Tensor, []int) {
	x := tensor.New(2, 8, 8, 3)
	for img := 0; img < 2; img++ {
		for c := 0; c < 3; c++ {
			for s := 0; s < 64; s++ {
				x.Data[(img*64+s)*3+c] = math.Sin(0.37*float64((img*3+c)*64+s) + 1)
			}
		}
	}
	return x, []int{3, 7}
}

// TestLayoutResNetMatchesDirectConvolution: logits and every parameter
// gradient of the lowered network equal those of the same network — same
// seed, same parameters — with each convolution computed from its
// definition, to 1e-12 relative.
func TestLayoutResNetMatchesDirectConvolution(t *testing.T) {
	x, labels := layoutProbe()
	run := func(direct bool) (*tensor.Tensor, map[string]*tensor.Tensor) {
		net := BuildCIFARResNet(1, 4, 3, 10, rand.New(rand.NewSource(5)))
		grads := map[string]*tensor.Tensor{}
		if direct {
			withDirectConvs(net, grads)
		}
		out := net.Forward(x, true)
		_, g := nn.CrossEntropy{}.Loss(out, labels)
		nn.ZeroGrads(net)
		net.Backward(g)
		for _, p := range net.Params() {
			if grads[p.Name] == nil {
				grads[p.Name] = p.Grad
			}
		}
		return out, grads
	}
	logits, grads := run(false)
	wantLogits, wantGrads := run(true)
	for i, w := range wantLogits.Data {
		if !relClose(logits.Data[i], w, 1e-12) {
			t.Errorf("logit %d = %.17g, direct convolution gives %.17g", i, logits.Data[i], w)
		}
	}
	if len(wantGrads) != 29 {
		t.Fatalf("reference has %d parameter gradients, want 29", len(wantGrads))
	}
	for name, want := range wantGrads {
		for i, w := range want.Data {
			if !relClose(grads[name].Data[i], w, 1e-12) {
				t.Fatalf("%s gradient element %d = %.17g, direct convolution gives %.17g", name, i, grads[name].Data[i], w)
			}
		}
	}
}

// TestLayoutSameNetworkForSameSeed pins the network to what the same seed
// built while layers were channels-first (recorded at 8c2b58a, on the
// transposed input): He-init draws are consumed in the old order and stored
// at their channels-last columns, so logits, loss and every parameter's
// gradient norm agree up to summation order.
func TestLayoutSameNetworkForSameSeed(t *testing.T) {
	x, labels := layoutProbe()
	net := BuildCIFARResNet(1, 4, 3, 10, rand.New(rand.NewSource(5)))
	out := net.Forward(x, true)
	loss, g := nn.CrossEntropy{}.Loss(out, labels)
	nn.ZeroGrads(net)
	net.Backward(g)

	wantLogits := []float64{
		-0.22819301488594806, -0.29029759719653631, -0.30496540836232749, -0.85413610157235065, -0.70431958565947772,
		0.33905475009474706, -0.91958902653863639, -0.81858956555121087, -0.028735845672474274, 2.3558420130141298,
		-0.4665431648226136, -1.9807120040710304, 0.45592022207365146, -1.0002341239060992, 0.16876665015966474,
		-0.80157433460656802, 0.0032578223933733695, -0.380925068648374, 0.83939443296861516, 0.96434012787601708,
	}
	for i, w := range wantLogits {
		if !relClose(out.Data[i], w, 1e-10) {
			t.Errorf("logit %d = %.17g, the channels-first network gave %.17g", i, out.Data[i], w)
		}
	}
	if !relClose(loss, 3.2305261679523429, 1e-10) {
		t.Errorf("loss = %.17g, the channels-first network gave 3.2305261679523429", loss)
	}
	wantGradNorms := map[string]float64{
		"conv1.weight":             4.8736406872199334,
		"bn1.gamma":                0.67848499889403435,
		"layer1.0.conv1.weight":    1.7433510885049077,
		"layer1.0.conv2.weight":    1.6060255995956947,
		"layer2.0.conv1.weight":    2.0729396948526935,
		"layer2.0.conv2.weight":    2.1315266172414962,
		"layer2.0.bn2.beta":        0.25375634958366339,
		"layer2.0.downconv.weight": 0.61569699867746175,
		"layer3.0.conv1.weight":    2.1150929257394542,
		"layer3.0.conv2.weight":    3.2047262983086902,
		"layer3.0.downconv.weight": 0.81398082694924467,
		"layer3.0.downbn.gamma":    0.52102830356634988,
		"fc.weight":                1.9848981259434153,
		"fc.bias":                  0.8104041496816401,
	}
	seen := 0
	for _, p := range net.Params() {
		if w, ok := wantGradNorms[p.Name]; ok {
			seen++
			if got := p.Grad.Norm2(); !relClose(got, w, 1e-9) {
				t.Errorf("‖∇%s‖ = %.17g, the channels-first network gave %.17g", p.Name, got, w)
			}
		}
	}
	if seen != len(wantGradNorms) {
		t.Errorf("found %d of %d recorded parameters", seen, len(wantGradNorms))
	}
}
