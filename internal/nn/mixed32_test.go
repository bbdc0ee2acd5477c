package nn

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/tensor"
)

// f32LayerTol bounds the forward/backward divergence of the float32 compute
// path from the float64 reference for unit-scale inputs: float32 round-off
// amplified by the O(k) reductions, with float64 accumulation keeping the
// growth linear in ε₃₂ rather than √k·ε₃₂-per-partial.
func f32LayerTol(k int) float64 { return 1e-6 * float64(k+4) }

func maxAbsDiff(a, b *tensor.Tensor) float64 {
	var m float64
	for i := range a.Data {
		if d := math.Abs(a.Data[i] - b.Data[i]); d > m {
			m = d
		}
	}
	return m
}

// cloneLinear builds two identically-initialized Linear layers.
func cloneLinear(seed int64, in, out int, bias bool) (*Linear, *Linear) {
	a := NewLinear("fc", in, out, bias, rand.New(rand.NewSource(seed)))
	b := NewLinear("fc", in, out, bias, rand.New(rand.NewSource(seed)))
	return a, b
}

// TestLinearF32MatchesFloat64 runs the same forward/backward through the
// float64 reference and the float32 compute path and bounds the divergence
// of output, input gradient, and parameter gradients.
func TestLinearF32MatchesFloat64(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, bias := range []bool{true, false} {
		ref, f32 := cloneLinear(7, 6, 5, bias)
		SetComputeF32(f32, true)
		x := tensor.Randn(rng, 1, 8, 6)
		g := tensor.Randn(rng, 1, 8, 5)

		yRef := ref.Forward(x, true)
		yF32 := f32.Forward(x, true)
		if d := maxAbsDiff(yRef, yF32); d > f32LayerTol(6) {
			t.Errorf("bias=%v forward diverges: %.3e", bias, d)
		}
		ZeroGrads(ref)
		ZeroGrads(f32)
		dxRef := ref.Backward(g)
		dxF32 := f32.Backward(g)
		if d := maxAbsDiff(dxRef, dxF32); d > f32LayerTol(5) {
			t.Errorf("bias=%v dx diverges: %.3e", bias, d)
		}
		if d := maxAbsDiff(ref.W.Grad, f32.W.Grad); d > f32LayerTol(8) {
			t.Errorf("bias=%v dW diverges: %.3e", bias, d)
		}
		if bias {
			if d := maxAbsDiff(ref.B.Grad, f32.B.Grad); d > f32LayerTol(8) {
				t.Errorf("dB diverges: %.3e", d)
			}
		}
	}
}

// TestConv2DF32MatchesFloat64 is the conv counterpart, covering the im2col
// lowering, the layout transforms, and the widening col2im scatter.
func TestConv2DF32MatchesFloat64(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	mk := func() (*Conv2D, *Conv2D) {
		a := NewConv2D("conv", 2, 3, 3, 1, 1, true, rand.New(rand.NewSource(3)))
		b := NewConv2D("conv", 2, 3, 3, 1, 1, true, rand.New(rand.NewSource(3)))
		return a, b
	}
	ref, f32 := mk()
	SetComputeF32(f32, true)
	x := tensor.Randn(rng, 1, 2, 5, 5, 2)
	yRef := ref.Forward(x, true)
	yF32 := f32.Forward(x, true)
	k := 2 * 3 * 3
	if d := maxAbsDiff(yRef, yF32); d > f32LayerTol(k) {
		t.Errorf("forward diverges: %.3e", d)
	}
	g := tensor.Randn(rng, 1, 2, 5, 5, 3)
	ZeroGrads(ref)
	ZeroGrads(f32)
	dxRef := ref.Backward(g)
	dxF32 := f32.Backward(g)
	// Backward reductions run over N·oh·ow = 50 samples.
	if d := maxAbsDiff(dxRef, dxF32); d > f32LayerTol(50) {
		t.Errorf("dx diverges: %.3e", d)
	}
	if d := maxAbsDiff(ref.W.Grad, f32.W.Grad); d > f32LayerTol(50) {
		t.Errorf("dW diverges: %.3e", d)
	}
	if d := maxAbsDiff(ref.B.Grad, f32.B.Grad); d > f32LayerTol(50) {
		t.Errorf("dB diverges: %.3e", d)
	}
}

// TestF32CaptureAccessors checks the KFAC capture contract on the float32
// path: the native float32 accessors return the captured matrices, the
// float64 accessors return widened views of the same values, and both
// return nil/nil before capture is enabled.
func TestF32CaptureAccessors(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	l := NewLinear("fc", 4, 3, true, rng)
	SetComputeF32(l, true)
	x := tensor.Randn(rng, 1, 5, 4)
	g := tensor.Randn(rng, 1, 5, 3)

	l.Forward(x, true)
	if l.CapturedActivation32() != nil || l.CapturedActivation() != nil {
		t.Fatal("capture disabled but activation captured")
	}
	l.SetCapture(true)
	l.Forward(x, true)
	ZeroGrads(l)
	l.Backward(g)
	a32, g32 := l.CapturedActivation32(), l.CapturedOutputGrad32()
	if a32 == nil || g32 == nil {
		t.Fatal("float32 captures missing")
	}
	for i := range a32.Data {
		if a32.Data[i] != float32(x.Data[i]) {
			t.Fatalf("activation capture mismatch at %d", i)
		}
	}
	a64, g64 := l.CapturedActivation(), l.CapturedOutputGrad()
	for i := range a32.Data {
		if a64.Data[i] != float64(a32.Data[i]) {
			t.Fatalf("widened activation view mismatch at %d", i)
		}
	}
	for i := range g32.Data {
		if g64.Data[i] != float64(g32.Data[i]) {
			t.Fatalf("widened grad view mismatch at %d", i)
		}
	}
}

// TestSetComputeF32Toggle checks the walker recurses through containers and
// that switching back to float64 restores the reference path exactly.
func TestSetComputeF32Toggle(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	net := NewSequential("net",
		NewConv2D("conv", 1, 2, 3, 1, 1, true, rng),
		NewReLU("relu"),
		NewGlobalAvgPool("gap"),
		NewLinear("fc", 2, 3, true, rng),
	)
	x := tensor.Randn(rng, 1, 2, 4, 4, 1)
	want := net.Forward(x, true).Clone()

	SetComputeF32(net, true)
	for _, l := range CapturableLayers(net) {
		if _, ok := l.(F32Computer); !ok {
			t.Fatalf("layer %s did not expose F32Computer", l.Name())
		}
	}
	got32 := net.Forward(x, true)
	if maxAbsDiff(want, got32) == 0 {
		t.Log("f32 output exactly equals f64 (tiny net; not an error)")
	}

	SetComputeF32(net, false)
	got := net.Forward(x, true)
	if !want.Equal(got, 0) {
		t.Fatal("disabling f32 did not restore the exact float64 path")
	}
}

// TestLinearF32ZeroAllocSteadyState guards the reuse contract of the float32
// buffers: with buffer reuse on, steady-state forward+backward through the
// float32 path must not allocate.
func TestLinearF32ZeroAllocSteadyState(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	l := NewLinear("fc", 16, 8, true, rng)
	SetBufferReuse(l, true)
	SetComputeF32(l, true)
	l.SetCapture(true)
	x := tensor.Randn(rng, 1, 4, 16)
	g := tensor.Randn(rng, 1, 4, 8)
	step := func() {
		l.Forward(x, true)
		l.Backward(g)
	}
	step()
	step()
	if allocs := testing.AllocsPerRun(20, step); allocs != 0 {
		t.Errorf("f32 Linear step allocated %.1f times per run, want 0", allocs)
	}
}
