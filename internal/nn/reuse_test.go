package nn

import (
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/tensor"
)

// reuseTestNet builds a model covering every BufferReuser layer type:
// conv, batchnorm, relu, residual (with conv shortcut), pooling variants,
// flatten, linear.
func reuseTestNet(seed int64) *Sequential {
	rng := rand.New(rand.NewSource(seed))
	body := NewSequential("body",
		NewConv2D("b.conv", 4, 4, 3, 1, 1, false, rng),
		NewBatchNorm2d("b.bn", 4),
	)
	short := NewConv2D("b.short", 4, 4, 1, 1, 0, false, rng)
	return NewSequential("net",
		NewConv2D("stem", 2, 4, 3, 1, 1, true, rng),
		NewBatchNorm2d("bn", 4),
		NewReLU("relu"),
		NewResidual("res", body, short),
		NewMaxPool2d("mp", 2, 2),
		NewGlobalAvgPool("gap"),
		NewLinear("fc", 4, 5, true, rng),
	)
}

// TestBufferReuseBitIdentical: several training steps with workspace
// recycling on must produce exactly the outputs, input gradients, and
// parameter gradients of the allocating path — reuse changes storage
// identity only, never bits.
func TestBufferReuseBitIdentical(t *testing.T) {
	run := func(reuse bool) (outs []*tensor.Tensor, grads []*tensor.Tensor) {
		net := reuseTestNet(11)
		SetBufferReuse(net, reuse)
		ce := CrossEntropy{}
		for step := 0; step < 4; step++ {
			rng := rand.New(rand.NewSource(int64(500 + step)))
			x := tensor.Randn(rng, 1, 3, 8, 8, 2)
			labels := []int{0, 1, 2}
			out := net.Forward(x, true)
			outs = append(outs, out.Clone())
			_, g := ce.Loss(out, labels)
			ZeroGrads(net)
			dx := net.Backward(g)
			grads = append(grads, dx.Clone())
		}
		for _, p := range net.Params() {
			grads = append(grads, p.Grad.Clone())
		}
		return outs, grads
	}
	wantOut, wantGrad := run(false)
	gotOut, gotGrad := run(true)
	for i := range wantOut {
		if !wantOut[i].Equal(gotOut[i], 0) {
			t.Errorf("step %d: forward output differs under buffer reuse (exact comparison)", i)
		}
	}
	for i := range wantGrad {
		if !wantGrad[i].Equal(gotGrad[i], 0) {
			t.Errorf("gradient %d differs under buffer reuse (exact comparison)", i)
		}
	}
}

// TestBufferReuseSteadyStateForwardBackwardAllocs: after warmup at a fixed
// batch shape, the hot layers' forward/backward allocations must collapse
// to near zero. The loss (which is stateless) still allocates its gradient,
// so the guard measures forward+backward only.
func TestBufferReuseSteadyStateForwardBackwardAllocs(t *testing.T) {
	net := reuseTestNet(12)
	SetBufferReuse(net, true)
	rng := rand.New(rand.NewSource(900))
	x := tensor.Randn(rng, 1, 3, 8, 8, 2)
	g := tensor.Randn(rng, 1, 3, 5)
	for i := 0; i < 3; i++ { // settle workspaces
		net.Forward(x, true)
		ZeroGrads(net)
		net.Backward(g)
	}
	// ZeroGrads stays outside the guard: it walks Params(), which builds a
	// fresh slice — bookkeeping, not forward/backward compute. Gradients
	// accumulating across runs does not affect allocation behaviour.
	allocs := testing.AllocsPerRun(50, func() {
		net.Forward(x, true)
		net.Backward(g)
	})
	if allocs != 0 {
		t.Errorf("steady-state forward+backward allocated %.1f times per run, want 0", allocs)
	}
}

// TestConvResidentBytesHoldNoPatchMatrix: a conv layer's steady-state
// buffers are its image-sized ones — the input copy its capture keeps, the
// input gradient — plus the output and the weight gradient, and nothing of
// the [N·outH·outW, kh·kw·C] patch matrix: the products read it through
// the image and the input gradient is folded a block of images at a time.
// The layer's resident heap, measured after a second identical layer has
// warmed the shared GEMM workspaces and fold scratches, must come to those
// buffers, where the patch buffer and the patch-shaped input gradient alone
// would add two patch matrices.
func TestConvResidentBytesHoldNoPatchMatrix(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const n, size, inC, outC, k = 8, 16, 16, 4, 3
	rng := rand.New(rand.NewSource(24))
	x := tensor.Randn(rng, 1, n, size, size, inC)
	g := tensor.Randn(rng, 1, n, size, size, outC)
	step := func(c *Conv2D) {
		c.Forward(x, true)
		c.Backward(g)
	}
	layer := func() *Conv2D {
		c := NewConv2D("c", inC, outC, k, 1, 1, false, rand.New(rand.NewSource(25)))
		c.SetBufferReuse(true)
		c.SetCapture(true)
		return c
	}
	warm := layer()
	step(warm)
	step(warm)

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	c := layer()
	step(c)
	step(c)
	runtime.GC()
	runtime.ReadMemStats(&after)
	resident := int64(after.HeapAlloc) - int64(before.HeapAlloc)
	runtime.KeepAlive(c)
	runtime.KeepAlive(warm)

	img, rows, cols := int64(x.Len()), int64(n*size*size), int64(k*k*inC)
	weights := int64(outC) * cols
	// Input copy and input gradient, output, weight gradient; the layer's
	// weight and its gradient accumulator.
	want := 8 * (2*img + rows*outC + 3*weights)
	patch := 8 * rows * cols
	t.Logf("resident %d B, buffers %d B, one patch matrix %d B", resident, want, patch)
	if resident > want+want/10+16<<10 {
		t.Errorf("conv layer holds %d B, its buffers come to %d B: a patch-sized buffer (%d B) is back", resident, want, patch)
	}
}
