package nn

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/tensor"
)

// scalarLoss projects a layer output onto fixed random coefficients,
// giving a scalar function of the inputs/parameters whose analytic gradient
// the backward pass must match.
type scalarLoss struct {
	coef *tensor.Tensor
}

func newScalarLoss(rng *rand.Rand, shape []int) *scalarLoss {
	return &scalarLoss{coef: tensor.Randn(rng, 1, shape...)}
}

func (s *scalarLoss) value(out *tensor.Tensor) float64 { return out.Dot(s.coef) }

func (s *scalarLoss) grad() *tensor.Tensor { return s.coef.Clone() }

// numericGrad computes d f/d x[i] by central differences for every element
// of x, where f re-runs the full forward pass.
func numericGrad(f func() float64, x *tensor.Tensor, eps float64) *tensor.Tensor {
	g := tensor.New(x.Shape...)
	for i := range x.Data {
		orig := x.Data[i]
		x.Data[i] = orig + eps
		fp := f()
		x.Data[i] = orig - eps
		fm := f()
		x.Data[i] = orig
		g.Data[i] = (fp - fm) / (2 * eps)
	}
	return g
}

func checkGrad(t *testing.T, name string, got, want *tensor.Tensor, tol float64) {
	t.Helper()
	if !got.SameShape(want) {
		t.Fatalf("%s: gradient shape %v != %v", name, got.Shape, want.Shape)
	}
	for i := range got.Data {
		diff := math.Abs(got.Data[i] - want.Data[i])
		scale := 1 + math.Abs(want.Data[i])
		if diff/scale > tol {
			t.Fatalf("%s: grad[%d] = %v, numeric %v (rel %.2e)", name, i, got.Data[i], want.Data[i], diff/scale)
		}
	}
}

// gradCheckLayer verifies input and parameter gradients of a layer against
// central differences.
func gradCheckLayer(t *testing.T, l Layer, x *tensor.Tensor, rng *rand.Rand) {
	t.Helper()
	out := l.Forward(x, true)
	sl := newScalarLoss(rng, out.Shape)
	// Analytic gradients.
	ZeroGrads(l)
	dx := l.Backward(sl.grad())
	f := func() float64 { return sl.value(l.Forward(x, true)) }
	numDx := numericGrad(f, x, 1e-5)
	checkGrad(t, l.Name()+"/input", dx, numDx, 2e-4)
	for _, p := range l.Params() {
		numDp := numericGrad(f, p.Value, 1e-5)
		checkGrad(t, l.Name()+"/"+p.Name, p.Grad, numDp, 2e-4)
	}
}

func TestLinearForwardKnown(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	l := NewLinear("fc", 2, 2, true, rng)
	l.W.Value.CopyFrom(tensor.FromSlice([]float64{1, 2, 3, 4}, 2, 2))
	l.B.Value.CopyFrom(tensor.FromSlice([]float64{10, 20}, 2))
	x := tensor.FromSlice([]float64{1, 1}, 1, 2)
	y := l.Forward(x, false)
	if y.Data[0] != 13 || y.Data[1] != 27 {
		t.Errorf("Linear forward = %v, want [13 27]", y.Data)
	}
}

func TestLinearGradCheck(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	l := NewLinear("fc", 5, 4, true, rng)
	x := tensor.Randn(rng, 1, 3, 5)
	gradCheckLayer(t, l, x, rng)
}

func TestLinearNoBiasGradCheck(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	l := NewLinear("fc", 4, 3, false, rng)
	x := tensor.Randn(rng, 1, 2, 4)
	gradCheckLayer(t, l, x, rng)
}

// naiveConv2D computes a channels-last convolution directly from the
// definition: x is [N, H, W, C], w is [outC, kh·kw·C] with columns ordered
// (ky, kx, c), the result is [N, outH, outW, outC].
func naiveConv2D(x, w *tensor.Tensor, bias []float64, outC, k, stride, pad int) *tensor.Tensor {
	n, h, wd, c := x.Shape[0], x.Shape[1], x.Shape[2], x.Shape[3]
	oh := tensor.ConvOutSize(h, k, stride, pad)
	ow := tensor.ConvOutSize(wd, k, stride, pad)
	out := tensor.New(n, oh, ow, outC)
	for img := 0; img < n; img++ {
		for oy := 0; oy < oh; oy++ {
			for ox := 0; ox < ow; ox++ {
				for oc := 0; oc < outC; oc++ {
					var s float64
					if bias != nil {
						s = bias[oc]
					}
					for ky := 0; ky < k; ky++ {
						iy := oy*stride - pad + ky
						if iy < 0 || iy >= h {
							continue
						}
						for kx := 0; kx < k; kx++ {
							ix := ox*stride - pad + kx
							if ix < 0 || ix >= wd {
								continue
							}
							for ch := 0; ch < c; ch++ {
								s += x.Data[((img*h+iy)*wd+ix)*c+ch] * w.Data[oc*w.Shape[1]+(ky*k+kx)*c+ch]
							}
						}
					}
					out.Set(s, img, oy, ox, oc)
				}
			}
		}
	}
	return out
}

func TestConv2DForwardMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for _, cfg := range []struct{ k, stride, pad int }{
		{3, 1, 1}, {3, 2, 1}, {1, 1, 0}, {5, 1, 2},
	} {
		conv := NewConv2D("c", 3, 4, cfg.k, cfg.stride, cfg.pad, true, rng)
		x := tensor.Randn(rng, 1, 2, 8, 8, 3)
		got := conv.Forward(x, false)
		want := naiveConv2D(x, conv.W.Value, conv.B.Value.Data, 4, cfg.k, cfg.stride, cfg.pad)
		if !got.Equal(want, 1e-10) {
			t.Errorf("k=%d s=%d p=%d: lowered conv disagrees with naive", cfg.k, cfg.stride, cfg.pad)
		}
	}
}

func TestConv2DGradCheck(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	conv := NewConv2D("c", 2, 3, 3, 1, 1, true, rng)
	x := tensor.Randn(rng, 1, 2, 5, 5, 2)
	gradCheckLayer(t, conv, x, rng)
}

func TestConv2DStridedGradCheck(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	conv := NewConv2D("c", 2, 2, 3, 2, 1, false, rng)
	x := tensor.Randn(rng, 1, 2, 6, 6, 2)
	gradCheckLayer(t, conv, x, rng)
}

func TestBatchNormForwardNormalizes(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	bn := NewBatchNorm2d("bn", 3)
	x := tensor.Randn(rng, 2, 4, 5, 5, 3)
	y := bn.Forward(x, true)
	// Per-channel mean ≈ 0, var ≈ 1 after normalization with γ=1, β=0.
	c, cnt := 3, 4*5*5
	for ch := 0; ch < c; ch++ {
		var mean, variance float64
		for r := 0; r < cnt; r++ {
			mean += y.Data[r*c+ch]
		}
		mean /= float64(cnt)
		if math.Abs(mean) > 1e-10 {
			t.Errorf("channel %d mean = %v, want 0", ch, mean)
		}
		for r := 0; r < cnt; r++ {
			d := y.Data[r*c+ch] - mean
			variance += d * d
		}
		variance /= float64(cnt)
		if math.Abs(variance-1) > 1e-3 {
			t.Errorf("channel %d var = %v, want 1", ch, variance)
		}
	}
}

func TestBatchNormEvalUsesRunningStats(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	bn := NewBatchNorm2d("bn", 2)
	x := tensor.Randn(rng, 1, 8, 4, 4, 2)
	// Train several batches so the running stats move off their init.
	for i := 0; i < 20; i++ {
		bn.Forward(x, true)
	}
	y1 := bn.Forward(x, false)
	y2 := bn.Forward(x, false)
	if !y1.Equal(y2, 0) {
		t.Error("eval mode should be deterministic")
	}
}

func TestBatchNormGradCheck(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	bn := NewBatchNorm2d("bn", 2)
	x := tensor.Randn(rng, 1, 3, 3, 3, 2)
	gradCheckLayer(t, bn, x, rng)
}

func TestReLUForwardBackward(t *testing.T) {
	r := NewReLU("relu")
	x := tensor.FromSlice([]float64{-1, 2, -3, 4}, 1, 4)
	y := r.Forward(x, true)
	want := []float64{0, 2, 0, 4}
	for i := range want {
		if y.Data[i] != want[i] {
			t.Fatalf("ReLU forward = %v", y.Data)
		}
	}
	g := r.Backward(tensor.FromSlice([]float64{10, 10, 10, 10}, 1, 4))
	wantG := []float64{0, 10, 0, 10}
	for i := range wantG {
		if g.Data[i] != wantG[i] {
			t.Fatalf("ReLU backward = %v", g.Data)
		}
	}
}

func TestMaxPoolForward(t *testing.T) {
	x := tensor.New(1, 4, 4, 1)
	for i := range x.Data {
		x.Data[i] = float64(i)
	}
	mp := NewMaxPool2d("mp", 2, 2)
	y := mp.Forward(x, true)
	want := []float64{5, 7, 13, 15}
	for i := range want {
		if y.Data[i] != want[i] {
			t.Fatalf("MaxPool = %v, want %v", y.Data, want)
		}
	}
}

func TestMaxPoolGradCheck(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	mp := NewMaxPool2d("mp", 2, 2)
	x := tensor.Randn(rng, 1, 2, 4, 4, 2)
	// Max-pool is piecewise linear; numeric grad check valid away from ties.
	gradCheckLayer(t, mp, x, rng)
}

func TestGlobalAvgPoolGradCheck(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	gp := NewGlobalAvgPool("gap")
	x := tensor.Randn(rng, 1, 2, 4, 4, 3)
	gradCheckLayer(t, gp, x, rng)
}

func TestFlattenRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	f := NewFlatten("flat")
	x := tensor.Randn(rng, 1, 2, 4, 5, 3)
	y := f.Forward(x, true)
	if y.Rows() != 2 || y.Cols() != 60 {
		t.Fatalf("Flatten shape = %v", y.Shape)
	}
	back := f.Backward(y)
	if !back.SameShape(x) {
		t.Fatalf("Flatten backward shape = %v", back.Shape)
	}
}

func TestSequentialGradCheck(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	seq := NewSequential("net",
		NewLinear("fc1", 6, 8, true, rng),
		NewReLU("r1"),
		NewLinear("fc2", 8, 4, true, rng),
	)
	x := tensor.Randn(rng, 1, 3, 6)
	gradCheckLayer(t, seq, x, rng)
}

func TestResidualIdentityGradCheck(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	body := NewSequential("body",
		NewConv2D("c1", 2, 2, 3, 1, 1, false, rng),
		NewReLU("r"),
		NewConv2D("c2", 2, 2, 3, 1, 1, false, rng),
	)
	res := NewResidual("res", body, nil)
	x := tensor.Randn(rng, 1, 2, 4, 4, 2)
	gradCheckLayer(t, res, x, rng)
}

func TestResidualProjectionGradCheck(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	body := NewSequential("body",
		NewConv2D("c1", 2, 4, 3, 2, 1, false, rng),
	)
	short := NewConv2D("sc", 2, 4, 1, 2, 0, false, rng)
	res := NewResidual("res", body, short)
	x := tensor.Randn(rng, 1, 2, 4, 4, 2)
	gradCheckLayer(t, res, x, rng)
}

func TestResidualShapeMismatchPanics(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	body := NewConv2D("c", 2, 4, 3, 1, 1, false, rng) // channel change, no shortcut
	res := NewResidual("res", body, nil)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on shape mismatch")
		}
	}()
	res.Forward(tensor.Randn(rng, 1, 1, 4, 4, 2), true)
}

func TestCrossEntropyKnownValue(t *testing.T) {
	// Uniform logits over K classes: loss = log K regardless of label.
	logits := tensor.New(2, 4)
	ce := CrossEntropy{}
	loss, _ := ce.Loss(logits, []int{0, 3})
	if math.Abs(loss-math.Log(4)) > 1e-12 {
		t.Errorf("uniform CE loss = %v, want ln 4 = %v", loss, math.Log(4))
	}
}

// TestCrossEntropyPanicsOnLabelOutsideHead: a label the head cannot output
// (≥ K, or negative) is a caller bug — a head narrower than the label set —
// and panics naming the row, instead of adding no loss.
func TestCrossEntropyPanicsOnLabelOutsideHead(t *testing.T) {
	for _, labels := range [][]int{{0, 4}, {-1, 2}} {
		func() {
			defer func() {
				r := recover()
				if r == nil {
					t.Fatalf("labels %v over a 4-class head: no panic", labels)
				}
				if msg := fmt.Sprint(r); !strings.Contains(msg, "outside [0, 4)") {
					t.Errorf("labels %v: panic %q does not name the range", labels, msg)
				}
			}()
			CrossEntropy{}.Loss(tensor.New(2, 4), labels)
		}()
	}
}

func TestCrossEntropyGradientNumeric(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	logits := tensor.Randn(rng, 1, 3, 5)
	labels := []int{1, 4, 0}
	ce := CrossEntropy{}
	_, grad := ce.Loss(logits, labels)
	f := func() float64 {
		l, _ := ce.Loss(logits, labels)
		return l
	}
	num := numericGrad(f, logits, 1e-6)
	checkGrad(t, "crossentropy", grad, num, 1e-5)
}

func TestCrossEntropyGradSumsToZeroPerRow(t *testing.T) {
	// Softmax gradient rows sum to zero: the probabilities and the one-hot
	// target each sum to one.
	rng := rand.New(rand.NewSource(18))
	logits := tensor.Randn(rng, 2, 4, 6)
	labels := []int{0, 1, 2, 3}
	ce := CrossEntropy{}
	_, grad := ce.Loss(logits, labels)
	for i := 0; i < 4; i++ {
		var s float64
		for j := 0; j < 6; j++ {
			s += grad.Data[i*6+j]
		}
		if math.Abs(s) > 1e-12 {
			t.Errorf("row %d grad sum = %v, want 0", i, s)
		}
	}
}

func TestAccuracy(t *testing.T) {
	logits := tensor.FromSlice([]float64{
		0.9, 0.1,
		0.2, 0.8,
		0.6, 0.4,
	}, 3, 2)
	if got := Accuracy(logits, []int{0, 1, 1}); math.Abs(got-2.0/3) > 1e-12 {
		t.Errorf("Accuracy = %v, want 2/3", got)
	}
	if Accuracy(tensor.New(0, 2), nil) != 0 {
		t.Error("empty accuracy should be 0")
	}
}

func TestLinearCaptureShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	l := NewLinear("fc", 5, 3, true, rng)
	l.SetCapture(true)
	x := tensor.Randn(rng, 1, 7, 5)
	out := l.Forward(x, true)
	l.Backward(tensor.Randn(rng, 1, out.Shape...))
	act := l.CapturedActivation()
	g := l.CapturedOutputGrad()
	if act.Rows() != 7 || act.Cols() != 5 {
		t.Errorf("captured activation shape = %v", act.Shape)
	}
	if g.Rows() != 7 || g.Cols() != 3 {
		t.Errorf("captured grad shape = %v", g.Shape)
	}
	if l.BatchSize() != 7 || l.SpatialSize() != 1 {
		t.Errorf("batch=%d spatial=%d", l.BatchSize(), l.SpatialSize())
	}
}

func TestConvCaptureShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	c := NewConv2D("c", 3, 6, 3, 1, 1, true, rng)
	c.SetCapture(true)
	x := tensor.Randn(rng, 1, 2, 8, 8, 3)
	out := c.Forward(x, true)
	c.Backward(tensor.Randn(rng, 1, out.Shape...))
	act := c.CapturedActivation()
	g := c.CapturedOutputGrad()
	if !act.SameShape(x) {
		t.Errorf("captured activation shape = %v, want the input image's %v", act.Shape, x.Shape)
	}
	if p := (tensor.Patches[float64]{Image: act, Window: c.Window()}); p.Rows() != 2*8*8 || p.Cols() != 3*3*3 {
		t.Errorf("captured patch matrix is %dx%d", p.Rows(), p.Cols())
	}
	if g.Rows() != 2*8*8 || g.Cols() != 6 {
		t.Errorf("captured grad shape = %v", g.Shape)
	}
	if c.SpatialSize() != 64 {
		t.Errorf("spatial = %d, want 64", c.SpatialSize())
	}
}

func TestCaptureDisabledReturnsNil(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	l := NewLinear("fc", 3, 2, true, rng)
	x := tensor.Randn(rng, 1, 2, 3)
	out := l.Forward(x, true)
	l.Backward(tensor.Randn(rng, 1, out.Shape...))
	if l.CapturedActivation() != nil || l.CapturedOutputGrad() != nil {
		t.Error("capture off should yield nil captures")
	}
}

func TestCombinedGradRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	for _, layer := range []KFACCapturable{
		NewLinear("fc", 4, 3, true, rng),
		NewLinear("fcnb", 4, 3, false, rng),
		NewConv2D("cv", 2, 3, 3, 1, 1, true, rng),
	} {
		// Fill grads with recognizable values.
		for _, p := range layer.Params() {
			for i := range p.Grad.Data {
				p.Grad.Data[i] = float64(i + 1)
			}
		}
		g := combinedGrad(layer)
		wantCols := layer.InDim()
		if layer.HasBias() {
			wantCols++
		}
		if g.Rows() != layer.OutDim() || g.Cols() != wantCols {
			t.Fatalf("%s: combined grad shape %v", layer.Name(), g.Shape)
		}
		g.Scale(2)
		layer.SetCombinedGrad(g)
		g2 := combinedGrad(layer)
		if !g2.Equal(g, 0) {
			t.Errorf("%s: SetCombinedGrad/CombinedGradInto round trip failed", layer.Name())
		}
	}
}

// combinedGrad returns a fresh copy of l's [out, in(+1)] combined gradient.
func combinedGrad(l KFACCapturable) *tensor.Tensor {
	cols := l.InDim()
	if l.HasBias() {
		cols++
	}
	g := tensor.New(l.OutDim(), cols)
	l.CombinedGradInto(g)
	return g
}

func TestCapturableLayersWalk(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	body := NewSequential("body",
		NewConv2D("c1", 2, 2, 3, 1, 1, false, rng),
		NewBatchNorm2d("bn", 2),
	)
	res := NewResidual("res", body, NewConv2D("sc", 2, 2, 1, 1, 0, false, rng))
	net := NewSequential("net",
		NewConv2D("stem", 3, 2, 3, 1, 1, false, rng),
		res,
		NewGlobalAvgPool("gap"),
		NewLinear("fc", 2, 10, true, rng),
	)
	caps := CapturableLayers(net)
	if len(caps) != 4 {
		names := make([]string, len(caps))
		for i, c := range caps {
			names[i] = c.Name()
		}
		t.Fatalf("CapturableLayers = %v, want 4 layers", names)
	}
}

func TestParamCount(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	l := NewLinear("fc", 10, 5, true, rng)
	if got := ParamCount(l); got != 55 {
		t.Errorf("ParamCount = %d, want 55", got)
	}
}

func TestZeroGrads(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	l := NewLinear("fc", 3, 3, true, rng)
	for i := range l.W.Grad.Data {
		l.W.Grad.Data[i] = 5
	}
	ZeroGrads(l)
	if l.W.Grad.Norm2() != 0 {
		t.Error("ZeroGrads did not clear gradient")
	}
}

// TestWindowLargerThanInputPanics: a window that does not fit its padded
// input once panics naming the layer and the geometry, rather than
// returning a negative shape or reading another image's pixels.
func TestWindowLargerThanInputPanics(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for _, c := range []struct {
		layer Layer
		shape []int
		want  []string
	}{
		{NewConv2D("stem", 3, 4, 3, 1, 0, false, rng), []int{1, 1, 1, 3}, []string{"Conv2D stem", "3x3 window", "1x1 input padded by 0"}},
		{NewConv2D("wide", 2, 4, 5, 1, 1, false, rng), []int{2, 2, 6, 2}, []string{"Conv2D wide", "5x5 window", "2x6 input padded by 1"}},
		{NewConv2D("zero", 2, 4, 3, 0, 1, false, rng), []int{1, 4, 4, 2}, []string{"Conv2D zero", "stride 0"}},
		{NewMaxPool2d("pool", 2, 2), []int{2, 1, 1, 1}, []string{"MaxPool2d pool", "2x2 window", "1x1 input padded by 0"}},
		{NewMaxPool2d("tall", 3, 1), []int{1, 2, 5, 1}, []string{"MaxPool2d tall", "3x3 window", "2x5 input"}},
	} {
		func() {
			defer func() {
				r := recover()
				msg, _ := r.(string)
				for _, w := range c.want {
					if !strings.Contains(msg, w) {
						t.Errorf("%s over %v: panic %q does not name %q", c.layer.Name(), c.shape, r, w)
					}
				}
			}()
			c.layer.Forward(tensor.New(c.shape...), true)
		}()
	}
	// The largest window that fits still runs.
	if out := NewMaxPool2d("fit", 2, 2).Forward(tensor.New(2, 2, 2, 1), true); out.Shape[1] != 1 || out.Shape[2] != 1 {
		t.Errorf("2x2 pool over a 2x2 image: output shape %v", out.Shape)
	}
}

// TestConvCaptureBorrowsLayerOutputs: under SetCapture over the tree, a
// conv whose input is another layer's output captures that output itself
// at float64, while a conv that reads the network's own input — at the top
// of a Sequential, or of a Residual's body and shortcut at the top of one —
// keeps a copy; a conv whose capture its own SetCapture turned on copies
// too.
func TestConvCaptureBorrowsLayerOutputs(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	body := NewConv2D("body", 2, 2, 3, 1, 1, false, rng)
	short := NewConv2D("short", 2, 2, 1, 1, 0, false, rng)
	relu := NewReLU("relu")
	inner := NewConv2D("inner", 2, 2, 3, 1, 1, false, rng)
	net := NewSequential("net", NewResidual("res", body, short), relu, inner)
	SetCapture(net, true)
	x := tensor.Randn(rng, 1, 2, 5, 5, 2)
	net.Forward(x, true)
	shares := func(c *Conv2D, t2 *tensor.Tensor) bool {
		return &c.CapturedActivation().Data[0] == &t2.Data[0]
	}
	for _, c := range []*Conv2D{body, short} {
		if shares(c, x) || !c.CapturedActivation().Equal(x, 0) {
			t.Errorf("%s reads the network's input: its capture must be an equal copy", c.Name())
		}
	}
	if !shares(inner, relu.out) {
		t.Error("inner reads relu's output: its capture must be that output itself")
	}
	inner.SetCapture(true)
	net.Forward(x, true)
	if shares(inner, relu.out) || !inner.CapturedActivation().Equal(relu.out, 0) {
		t.Error("after its own SetCapture, inner must capture an equal copy")
	}
}
