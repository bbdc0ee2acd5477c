package nn

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/tensor"
)

// Every layer that sees the image layout is held here to a channels-first
// reference: the definition of the layer written over [N, C, H, W] planes,
// fed the transpose of the channels-last input and compared through the
// transpose back. The references are the loops the layers ran when
// activations were channels-first, so where a layer's per-channel summation
// order is unchanged the comparison is exact.

func channelsFirst(x *tensor.Tensor) *tensor.Tensor {
	n, h, w, c := x.Shape[0], x.Shape[1], x.Shape[2], x.Shape[3]
	out := tensor.New(n, c, h, w)
	for i := 0; i < n; i++ {
		for s := 0; s < h*w; s++ {
			for ch := 0; ch < c; ch++ {
				out.Data[(i*c+ch)*h*w+s] = x.Data[(i*h*w+s)*c+ch]
			}
		}
	}
	return out
}

func channelsLast(x *tensor.Tensor) *tensor.Tensor {
	n, c, h, w := x.Shape[0], x.Shape[1], x.Shape[2], x.Shape[3]
	out := tensor.New(n, h, w, c)
	for i := 0; i < n; i++ {
		for s := 0; s < h*w; s++ {
			for ch := 0; ch < c; ch++ {
				out.Data[(i*h*w+s)*c+ch] = x.Data[(i*c+ch)*h*w+s]
			}
		}
	}
	return out
}

// wantClose compares got with want elementwise to a relative tolerance; a
// tolerance of 0 demands equal bits.
func wantClose(t *testing.T, what string, got, want *tensor.Tensor, tol float64) {
	t.Helper()
	if tol == 0 {
		wantBits(t, what, got, want)
		return
	}
	if !got.SameShape(want) {
		t.Fatalf("%s: shape %v, want %v", what, got.Shape, want.Shape)
	}
	for i, w := range want.Data {
		if d := math.Abs(got.Data[i] - w); d > tol*(1+math.Abs(w)) {
			t.Fatalf("%s: element %d = %v, want %v (rel %.2e)", what, i, got.Data[i], w, d/(1+math.Abs(w)))
		}
	}
}

// refNorm is normalization over channels-first planes: slabs lists, per
// statistics group, the (image, channel) planes it pools. It returns the
// output, the input gradient, dγ, dβ, and each group's mean and biased
// variance. With fixed non-nil it normalizes by those statistics instead.
func refNorm(x, g *tensor.Tensor, gamma, beta []float64, eps float64, slabs [][][2]int, fixed [][2]float64) (y, dx *tensor.Tensor, dGamma, dBeta []float64, stats [][2]float64) {
	c, spatial := x.Shape[1], x.Shape[2]*x.Shape[3]
	y, dx = tensor.New(x.Shape...), tensor.New(x.Shape...)
	dGamma, dBeta = make([]float64, c), make([]float64, c)
	for gi, planes := range slabs {
		cnt := float64(len(planes) * spatial)
		var mean, variance float64
		if fixed != nil {
			mean, variance = fixed[gi][0], fixed[gi][1]
		} else {
			for _, p := range planes {
				for s := 0; s < spatial; s++ {
					mean += x.Data[(p[0]*c+p[1])*spatial+s]
				}
			}
			mean /= cnt
			for _, p := range planes {
				for s := 0; s < spatial; s++ {
					d := x.Data[(p[0]*c+p[1])*spatial+s] - mean
					variance += d * d
				}
			}
			variance /= cnt
		}
		stats = append(stats, [2]float64{mean, variance})
		inv := 1 / math.Sqrt(variance+eps)
		var sumDxhat, sumDxhatXhat float64
		for _, p := range planes {
			for s := 0; s < spatial; s++ {
				i := (p[0]*c+p[1])*spatial + s
				xh := (x.Data[i] - mean) * inv
				y.Data[i] = gamma[p[1]]*xh + beta[p[1]]
				dGamma[p[1]] += g.Data[i] * xh
				dBeta[p[1]] += g.Data[i]
				sumDxhat += g.Data[i] * gamma[p[1]]
				sumDxhatXhat += g.Data[i] * gamma[p[1]] * xh
			}
		}
		for _, p := range planes {
			for s := 0; s < spatial; s++ {
				i := (p[0]*c+p[1])*spatial + s
				xh := (x.Data[i] - mean) * inv
				dx.Data[i] = inv / cnt * (cnt*g.Data[i]*gamma[p[1]] - sumDxhat - xh*sumDxhatXhat)
			}
		}
	}
	return
}

func randParams(rng *rand.Rand, ps ...*Param) {
	for _, p := range ps {
		p.Value = tensor.Randn(rng, 1, p.Value.Shape...)
	}
}

func TestChannelsLastBatchNormMatchesChannelsFirst(t *testing.T) {
	const n, h, w, c = 3, 4, 5, 6
	rng := rand.New(rand.NewSource(41))
	bn := NewBatchNorm2d("bn", c)
	randParams(rng, bn.Gamma, bn.Beta)
	x, g := tensor.Randn(rng, 2, n, h, w, c), tensor.Randn(rng, 1, n, h, w, c)
	slabs := make([][][2]int, c) // one group per channel: its plane in every image
	for ch := range slabs {
		for img := 0; img < n; img++ {
			slabs[ch] = append(slabs[ch], [2]int{img, ch})
		}
	}
	gamma, beta := bn.Gamma.Value.Data, bn.Beta.Value.Data
	wantY, wantDx, dGamma, dBeta, stats := refNorm(channelsFirst(x), channelsFirst(g), gamma, beta, bn.Eps, slabs, nil)

	wantClose(t, "train y", bn.Forward(x, true), channelsLast(wantY), 0)
	// 1e-13, not bits: the reference forms γ·dy before the sums, the layer
	// (as it always did) folds γ in after them.
	wantClose(t, "dx", bn.Backward(g), channelsLast(wantDx), 1e-13)
	wantClose(t, "dγ", bn.Gamma.Grad, tensor.FromSlice(dGamma, c), 0)
	wantClose(t, "dβ", bn.Beta.Grad, tensor.FromSlice(dBeta, c), 0)
	running := make([][2]float64, c)
	for ch, st := range stats {
		cnt, m := float64(n*h*w), bn.Momentum
		unbiased := st[1] * cnt / (cnt - 1)
		running[ch] = [2]float64{(1-m)*0 + m*st[0], (1-m)*1 + m*unbiased}
		if bn.RunningMean.Data[ch] != running[ch][0] || bn.RunningVar.Data[ch] != running[ch][1] {
			t.Errorf("channel %d running stats (%v, %v), want (%v, %v)", ch,
				bn.RunningMean.Data[ch], bn.RunningVar.Data[ch], running[ch][0], running[ch][1])
		}
	}
	wantEval, _, _, _, _ := refNorm(channelsFirst(x), channelsFirst(g), gamma, beta, bn.Eps, slabs, running)
	wantClose(t, "eval y", bn.Forward(x, false), channelsLast(wantEval), 0)
}

// refPool is k×k/stride max pooling over channels-first planes (the first
// largest element of each window, in (ky, kx) order), forward and backward.
func refPool(x, g *tensor.Tensor, k, stride int) (y, dx *tensor.Tensor) {
	n, c, h, w := x.Shape[0], x.Shape[1], x.Shape[2], x.Shape[3]
	oh, ow := (h-k)/stride+1, (w-k)/stride+1
	y, dx = tensor.New(n, c, oh, ow), tensor.New(n, c, h, w)
	for p := 0; p < n*c; p++ {
		for oy := 0; oy < oh; oy++ {
			for ox := 0; ox < ow; ox++ {
				o := (p*oh+oy)*ow + ox
				at := func(ky, kx int) int { return (p*h+oy*stride+ky)*w + ox*stride + kx }
				best := at(0, 0)
				for ky := 0; ky < k; ky++ {
					for kx := 0; kx < k; kx++ {
						if x.Data[at(ky, kx)] > x.Data[best] {
							best = at(ky, kx)
						}
					}
				}
				y.Data[o] = x.Data[best]
				dx.Data[best] += g.Data[o]
			}
		}
	}
	return y, dx
}

func TestChannelsLastPoolingMatchesChannelsFirst(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	for _, cfg := range []struct{ k, stride int }{{2, 2}, {3, 1}, {3, 2}} {
		const n, h, w, c = 2, 7, 6, 5
		x := tensor.Randn(rng, 1, n, h, w, c)
		oh, ow := (h-cfg.k)/cfg.stride+1, (w-cfg.k)/cfg.stride+1
		g := tensor.Randn(rng, 1, n, oh, ow, c)
		mp := NewMaxPool2d("max", cfg.k, cfg.stride)
		wantY, wantDx := refPool(channelsFirst(x), channelsFirst(g), cfg.k, cfg.stride)
		wantClose(t, "max y", mp.Forward(x, true), channelsLast(wantY), 0)
		wantClose(t, "max dx", mp.Backward(g), channelsLast(wantDx), 0)
	}
}

func TestChannelsLastGlobalAvgPoolMatchesChannelsFirst(t *testing.T) {
	const n, h, w, c = 3, 4, 5, 7
	rng := rand.New(rand.NewSource(53))
	x, g := tensor.Randn(rng, 1, n, h, w, c), tensor.Randn(rng, 1, n, c)
	cf := channelsFirst(x)
	wantY, wantDx := tensor.New(n, c), tensor.New(n, c, h, w)
	for p := 0; p < n*c; p++ {
		var s float64
		for i := 0; i < h*w; i++ {
			s += cf.Data[p*h*w+i]
			wantDx.Data[p*h*w+i] = g.Data[p] * (1 / float64(h*w))
		}
		wantY.Data[p] = s / float64(h*w)
	}
	gap := NewGlobalAvgPool("gap")
	wantClose(t, "y", gap.Forward(x, true), wantY, 0)
	wantClose(t, "dx", gap.Backward(g), channelsLast(wantDx), 0)
}

// TestLayoutFlattenIsRowMajor: flattening an [N, H, W, C] activation orders
// the features (y, x, c), and Backward restores the shape.
func TestLayoutFlattenIsRowMajor(t *testing.T) {
	x := tensor.New(2, 2, 3, 4)
	for i := range x.Data {
		x.Data[i] = float64(i)
	}
	f := NewFlatten("flat")
	y := f.Forward(x, true)
	if y.Rows() != 2 || y.Cols() != 24 || y.Data[24+(1*3+2)*4+3] != x.Data[((1*2+1)*3+2)*4+3] {
		t.Fatalf("Flatten gave %v", y)
	}
	if back := f.Backward(y); !back.SameShape(x) {
		t.Errorf("Flatten backward shape %v", back.Shape)
	}
}

// TestLayoutConvInitDrawOrder: NewConv2D consumes its generator in
// (outC, c, ky, kx) order — the order the channels-first layer filled its
// weight in — and stores each value at the channels-last column
// (ky·kw + kx)·inC + c, so a seed names the same filters in either layout.
func TestLayoutConvInitDrawOrder(t *testing.T) {
	const inC, outC, k = 3, 4, 3
	conv := NewConv2D("c", inC, outC, k, 1, 1, false, rand.New(rand.NewSource(59)))
	rng := rand.New(rand.NewSource(59))
	std := math.Sqrt(2 / float64(inC*k*k))
	for oc := 0; oc < outC; oc++ {
		for c := 0; c < inC; c++ {
			for ky := 0; ky < k; ky++ {
				for kx := 0; kx < k; kx++ {
					if got, want := conv.W.Value.Data[oc*k*k*inC+(ky*k+kx)*inC+c], rng.NormFloat64()*std; got != want {
						t.Fatalf("W[%d, ky=%d kx=%d c=%d] = %v, want draw %v", oc, ky, kx, c, got, want)
					}
				}
			}
		}
	}
}

// reluParent is the ReLU the layers ran before it lost its branch; the
// tests hold the new one to its bits.
func reluParent(v float64) (out float64, keep bool) {
	if v > 0 {
		return v, true
	}
	return 0, false
}

// reluProbes are the inputs a mask built from comparisons or bits could get
// wrong: both zeros, subnormals, infinities, NaNs of either sign.
func reluProbes(rng *rand.Rand) []float64 {
	negNaN := math.Float64frombits(math.Float64bits(math.NaN()) | 1<<63)
	probes := []float64{0, math.Copysign(0, -1), math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
		math.Inf(1), math.Inf(-1), math.NaN(), negNaN, math.MaxFloat64, -math.MaxFloat64, 1, -1}
	for i := 0; i < 200; i++ {
		probes = append(probes, rng.NormFloat64())
	}
	return probes
}

func TestReLUBranchlessMatchesBranching(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	probes := reluProbes(rng)
	x := tensor.FromSlice(probes, len(probes))
	// Gradients include NaN and −0, which a kept position must pass through
	// unchanged and a dropped one must replace by +0.
	g := tensor.Randn(rng, 1, x.Len())
	g.Data[0], g.Data[4], g.Data[5], g.Data[12] = math.NaN(), math.Copysign(0, -1), math.NaN(), math.Copysign(0, -1)
	r := NewReLU("relu")
	y := r.Forward(x, true)
	dx := r.Backward(g)
	for i, v := range x.Data {
		wantY, keep := reluParent(v)
		wantDx := 0.0
		if keep {
			wantDx = g.Data[i]
		}
		if math.Float64bits(y.Data[i]) != math.Float64bits(wantY) {
			t.Errorf("ReLU(%v) = %v (bits %x), want %v", v, y.Data[i], math.Float64bits(y.Data[i]), wantY)
		}
		if math.Float64bits(dx.Data[i]) != math.Float64bits(wantDx) {
			t.Errorf("ReLU'(%v)·%v = %v, want %v", v, g.Data[i], dx.Data[i], wantDx)
		}
	}
}

func TestReLUSteadyStateZeroAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(67))
	r := NewReLU("relu")
	r.SetBufferReuse(true)
	x, g := tensor.Randn(rng, 1, 4, 3, 3, 5), tensor.Randn(rng, 1, 4, 3, 3, 5)
	step := func() { r.Forward(x, true); r.Backward(g) }
	step()
	if a := testing.AllocsPerRun(20, step); a != 0 {
		t.Errorf("ReLU forward+backward allocates %v times per step (the mask is the kept output)", a)
	}
}

// constLayer is a Layer whose output is a fixed tensor and whose backward
// is the identity: a Residual body whose output, and so the block's
// pre-activation sum, the test chooses.
type constLayer struct{ v *tensor.Tensor }

func (c constLayer) Forward(*tensor.Tensor, bool) *tensor.Tensor { return c.v }
func (c constLayer) Backward(g *tensor.Tensor) *tensor.Tensor    { return g }
func (c constLayer) Params() []*Param                            { return nil }
func (c constLayer) Name() string                                { return "const" }

// TestReLUResidualFusedMatchesThreePasses: the block's one pass over
// body + shortcut gives the bits of copy, add, then ReLU, and its backward
// the bits of masking and summing the two branches' gradients.
func TestReLUResidualFusedMatchesThreePasses(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	probes := reluProbes(rng)
	x := tensor.Randn(rng, 1, 1, 1, len(probes), 1)
	body := tensor.New(x.Shape...)
	for i, p := range probes {
		body.Data[i] = p - x.Data[i] // body + x lands on or next to every probe
	}
	res := NewResidual("res", constLayer{body}, nil)
	y := res.Forward(x, true)
	g := tensor.Randn(rng, 1, x.Shape...)
	dx := res.Backward(g)
	for i := range probes {
		sum := body.Data[i] + x.Data[i]
		wantY, keep := reluParent(sum)
		masked := 0.0
		if keep {
			masked = g.Data[i]
		}
		if math.Float64bits(y.Data[i]) != math.Float64bits(wantY) {
			t.Errorf("element %d: block output %v, want %v", i, y.Data[i], wantY)
		}
		if want := masked + masked; math.Float64bits(dx.Data[i]) != math.Float64bits(want) {
			t.Errorf("element %d: block input gradient %v, want %v", i, dx.Data[i], want)
		}
	}
}
