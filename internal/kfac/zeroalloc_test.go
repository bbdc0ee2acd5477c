package kfac

import (
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"repro/internal/comm"
	"repro/internal/nn"
	"repro/internal/tensor"
)

// useReferenceCovKernel swaps the covariance kernels to the general-matmul
// reference path — for a conv layer's A factor, on its patch matrix stored
// by UnfoldInto — and returns a restore func. Tests using it must not run in
// parallel (the hooks are package state).
func useReferenceCovKernel() func() {
	old, oldPatches := covKernel, covPatchesKernel
	covKernel = func(dst, a *tensor.Tensor) { tensor.MatMulT1Into(dst, a, a) }
	covPatchesKernel = func(dst *tensor.Tensor, p tensor.Patches[float64]) {
		k := p.KH * p.KW * p.Image.Shape[3]
		cols := tensor.New(p.Rows(), k)
		tensor.UnfoldInto(cols, p.Image, p.KH, p.KW, p.Stride, p.Pad)
		if p.Ones {
			aug := tensor.New(p.Rows(), k+1)
			for r := 0; r < p.Rows(); r++ {
				copy(aug.Data[r*(k+1):], cols.Data[r*k:(r+1)*k])
				aug.Data[r*(k+1)+k] = 1
			}
			cols = aug
		}
		tensor.MatMulT1Into(dst, cols, cols)
	}
	return func() { covKernel, covPatchesKernel = old, oldPatches }
}

// TestKFACStepSteadyStateZeroAllocs is the allocation guard of the
// acceptance criteria: once the factor and decomposition updates have run
// and the per-layer workspaces have settled, a stale-decomposition Step —
// the common steady-state iteration — must perform zero heap allocations.
func TestKFACStepSteadyStateZeroAllocs(t *testing.T) {
	net := buildTinyNet(77)
	prec := NewFromOptions(net, nil, Options{
		FactorUpdateFreq: 1 << 30, InvUpdateFreq: 1 << 30, Damping: 1e-3,
	})
	runStep(net, 300, 4)
	// First step computes factors + decompositions; two more settle every
	// Ensure workspace at its steady-state size.
	for i := 0; i < 3; i++ {
		if err := prec.Step(0.1); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(100, func() {
		if err := prec.Step(0.1); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("steady-state Step allocated %.1f times per run, want 0", allocs)
	}
}

// TestKFACStepSteadyStateZeroAllocsInverseMode is the same guard for the
// Table I factored-damping ablation, whose Equation 14 pass differs.
func TestKFACStepSteadyStateZeroAllocsInverseMode(t *testing.T) {
	net := buildTinyNet(78)
	prec := NewFromOptions(net, nil, Options{
		Mode: InverseMode, FactorUpdateFreq: 1 << 30, InvUpdateFreq: 1 << 30, Damping: 1e-3,
	})
	runStep(net, 301, 4)
	for i := 0; i < 3; i++ {
		if err := prec.Step(0.1); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(100, func() {
		if err := prec.Step(0.1); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("steady-state inverse-mode Step allocated %.1f times per run, want 0", allocs)
	}
}

// TestKFACStepSteadyStateZeroAllocsPipelined guards the pipelined engine's
// steady-state path: stale steps bypass the update pipeline entirely and
// precondition through the same grouped stages as the sync engine, whose
// pooled ForEach dispatch allocates nothing.
func TestKFACStepSteadyStateZeroAllocsPipelined(t *testing.T) {
	net := buildTinyNet(79)
	prec := NewFromOptions(net, nil, Options{
		Engine: EnginePipelined, FactorUpdateFreq: 1 << 30, InvUpdateFreq: 1 << 30, Damping: 1e-3,
	})
	defer prec.Close()
	runStep(net, 302, 4)
	for i := 0; i < 3; i++ {
		if err := prec.Step(0.1); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(100, func() {
		if err := prec.Step(0.1); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("steady-state pipelined Step allocated %.1f times per run, want 0", allocs)
	}
}

// TestDecomposeFailurePreservesPreviousEigen: decompositions refresh in
// place, so a failing eigensolve must leave the last good decomposition
// for the stale-preconditioning path. Layer 0's factor (n = 10) takes the
// solver's serial fallback.
func TestDecomposeFailurePreservesPreviousEigen(t *testing.T) {
	net := buildTinyNet(80)
	p := NewFromOptions(net, nil, Options{FactorUpdateFreq: 1, InvUpdateFreq: 1})
	runStep(net, 400, 4)
	if err := p.Step(0.1); err != nil {
		t.Fatal(err)
	}
	checkDecomposeFailureKeepsEigen(t, p)
}

// checkDecomposeFailureKeepsEigen poisons layer 0's A factor two ways —
// a NaN, which the solver's validation refuses, and entries at
// math.MaxFloat64, which are finite, pass validation and overflow the
// solver's symmetrized copy so that QL cannot converge — and checks that
// each failed decompose leaves the eigenbasis and eigenvalues bit for bit
// as they were.
func checkDecomposeFailureKeepsEigen(t *testing.T, p *Preconditioner) {
	t.Helper()
	s := p.states[0]
	good := s.A.Clone()
	q0, v0 := s.eigA.Q.Clone(), append([]float64(nil), s.eigA.Values...)
	for _, c := range []struct {
		name   string
		poison func(a []float64)
	}{
		{"NaN", func(a []float64) { a[0] = math.NaN() }},
		{"finite overflow", func(a []float64) {
			for i := range a {
				a[i] = math.MaxFloat64
			}
		}},
	} {
		c.poison(s.A.Data)
		if err := p.decompose(s, false); err == nil {
			t.Fatalf("%s: decompose accepted the factor", c.name)
		}
		s.A.CopyFrom(good)
		if !s.eigA.Q.Equal(q0, 0) || !slices.Equal(s.eigA.Values, v0) {
			t.Errorf("%s: failed decomposition clobbered the previous eigenbasis or eigenvalues", c.name)
		}
	}
}

// worldStepTrace runs stepTrace on every rank of a p-rank in-process world
// and returns the per-rank final combined gradients.
func worldStepTrace(t *testing.T, p int, opts Options, steps int) [][]*tensor.Tensor {
	t.Helper()
	if p == 1 {
		return [][]*tensor.Tensor{stepTrace(t, nil, opts, steps)}
	}
	fab := comm.NewInprocFabric(p)
	out := make([][]*tensor.Tensor, p)
	var wg sync.WaitGroup
	for r := 0; r < p; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			out[r] = stepTrace(t, comm.NewCommunicator(fab.Endpoint(r)), opts, steps)
		}(r)
	}
	wg.Wait()
	return out
}

// TestCovKernelBitIdenticalAcrossWorlds is the acceptance gate for the
// kernel swap: same-seed runs through the blocked symmetric-multiply
// covariance kernel must leave every rank's preconditioned gradients
// bit-identical to runs through the reference general-matmul kernel, for
// every world size 1–8 (exact comparison, both step engines exercised via
// the factor path both engines share).
func TestCovKernelBitIdenticalAcrossWorlds(t *testing.T) {
	opts := Options{FactorUpdateFreq: 1, InvUpdateFreq: 2}
	const steps = 3
	for p := 1; p <= 8; p++ {
		restore := useReferenceCovKernel()
		want := worldStepTrace(t, p, opts, steps)
		restore()
		got := worldStepTrace(t, p, opts, steps)
		for r := range want {
			if len(want[r]) == 0 {
				t.Fatalf("world %d: empty trace", p)
			}
			for i := range want[r] {
				if !want[r][i].Equal(got[r][i], 0) {
					t.Errorf("world %d rank %d layer %d: blocked kernel differs from reference (exact comparison)", p, r, i)
				}
			}
		}
	}
}

// TestConvForwardBackwardGramZeroAllocs: a conv layer's steady-state
// forward, backward and A-factor Gram — each reading the patch matrix
// through the input image, the input gradient folded a block of images at a
// time — allocate nothing, at both element types. The conv sits behind
// another layer, so its float64 capture borrows the image.
func TestConvForwardBackwardGramZeroAllocs(t *testing.T) {
	for _, f32 := range []bool{false, true} {
		rng := rand.New(rand.NewSource(80))
		conv := nn.NewConv2D("conv", 4, 6, 3, 2, 1, true, rng)
		net := nn.NewSequential("net", nn.NewReLU("relu"), conv)
		nn.SetBufferReuse(net, true)
		nn.SetComputeF32(net, f32)
		nn.SetCapture(net, true)
		x := tensor.Randn(rng, 1, 3, 9, 9, 4)
		g := tensor.Randn(rng, 1, 3, 5, 5, 6)
		da, _ := FactorDims(conv)
		cov := tensor.New(da, da)
		var step func()
		if f32 {
			var sample, prod *tensor.T32
			var fold factorFold[float32]
			step = func() {
				net.Forward(x, true)
				net.Backward(g)
				gram, scale := activationGram(cov, grams32(), conv, conv.CapturedActivation32(), &sample, &prod)
				fold.run(cov, gram, scale, true)
			}
		} else {
			var sample, prod *tensor.Tensor
			var fold factorFold[float64]
			step = func() {
				net.Forward(x, true)
				net.Backward(g)
				gram, scale := activationGram(cov, grams64(), conv, conv.CapturedActivation(), &sample, &prod)
				fold.run(cov, gram, scale, true)
			}
		}
		step()
		step()
		if a := testing.AllocsPerRun(20, step); a != 0 {
			t.Errorf("f32=%v: conv forward, backward and A Gram allocate %v times per run", f32, a)
		}
	}
}
