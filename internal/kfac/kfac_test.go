package kfac

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/comm"
	"repro/internal/linalg"
	"repro/internal/nn"
	"repro/internal/tensor"
)

// buildTinyNet returns a small conv+linear network with deterministic
// weights, suitable for K-FAC unit tests.
func buildTinyNet(seed int64) *nn.Sequential {
	rng := rand.New(rand.NewSource(seed))
	return nn.NewSequential("tiny",
		nn.NewConv2D("conv1", 1, 3, 3, 1, 1, true, rng),
		nn.NewReLU("relu1"),
		nn.NewGlobalAvgPool("gap"),
		nn.NewLinear("fc", 3, 4, true, rng),
	)
}

// runStep performs one forward/backward on deterministic data and returns
// the loss gradient path through the net.
// hasNonFinite reports whether any element of t is NaN or ±Inf.
func hasNonFinite(t *tensor.Tensor) bool {
	for _, v := range t.Data {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return true
		}
	}
	return false
}

func runStep(net *nn.Sequential, seed int64, batch int) {
	rng := rand.New(rand.NewSource(seed))
	x := tensor.Randn(rng, 1, batch, 5, 5, 1)
	labels := make([]int, batch)
	for i := range labels {
		labels[i] = rng.Intn(4)
	}
	out := net.Forward(x, true)
	ce := nn.CrossEntropy{}
	_, grad := ce.Loss(out, labels)
	nn.ZeroGrads(net)
	net.Backward(grad)
}

// copyGradConv and copyGradLinear hide a bias-free layer's weight gradient
// from the preconditioner, which then copies it into a workspace as it does
// a biased layer's: the reference the in-place path is held to.
type copyGradConv struct{ *nn.Conv2D }
type copyGradLinear struct{ *nn.Linear }

func (copyGradConv) CombinedGradView() *tensor.Tensor   { return nil }
func (copyGradLinear) CombinedGradView() *tensor.Tensor { return nil }

// buildBiasFreeNet is buildTinyNet without biases, its two K-FAC layers
// optionally behind copyGrad wrappers.
func buildBiasFreeNet(seed int64, copyGrads bool) *nn.Sequential {
	rng := rand.New(rand.NewSource(seed))
	conv := nn.NewConv2D("conv1", 1, 3, 3, 1, 1, false, rng)
	fc := nn.NewLinear("fc", 3, 4, false, rng)
	var cl, fl nn.Layer = conv, fc
	if copyGrads {
		cl, fl = copyGradConv{conv}, copyGradLinear{fc}
	}
	return nn.NewSequential("biasfree", cl, nn.NewReLU("relu1"), nn.NewGlobalAvgPool("gap"), fl)
}

// TestBiasFreeLayersPreconditionWeightGradInPlace: a bias-free layer's
// combined gradient is its weight gradient itself — no workspace, Σ dg·da
// fewer resident floats — and the preconditioned gradients are bit for bit
// those of the copying path, with buffer reuse off and on, and after every
// weight gradient is replaced by a new tensor mid-run (the gradient is
// looked up every step, never kept).
func TestBiasFreeLayersPreconditionWeightGradInPlace(t *testing.T) {
	for _, reuse := range []bool{false, true} {
		run := func(copyGrads bool) ([]*tensor.Tensor, *Preconditioner) {
			net := buildBiasFreeNet(81, copyGrads)
			nn.SetBufferReuse(net, reuse)
			p := NewFromOptions(net, nil, Options{FactorUpdateFreq: 1, InvUpdateFreq: 2})
			var grads []*tensor.Tensor
			for step := 0; step < 5; step++ {
				if step == 3 {
					for _, s := range p.states {
						w := s.layer.Params()[0]
						w.Grad = w.Grad.Clone()
					}
				}
				runStep(net, int64(500+step), 4)
				if err := p.Step(0.1); err != nil {
					t.Fatal(err)
				}
				for _, s := range p.states {
					w := s.layer.Params()[0].Grad
					if g := p.combinedGrad(s); !copyGrads && (s.gradBuf != nil || g != w) {
						t.Fatalf("reuse=%v step %d %s: combined gradient is not the weight gradient itself", reuse, step, s.layer.Name())
					}
					grads = append(grads, w.Clone())
				}
			}
			return grads, p
		}
		want, pCopy := run(true)
		got, pView := run(false)
		for i := range want {
			if !got[i].Equal(want[i], 0) {
				t.Errorf("reuse=%v step %d layer %d: in-place preconditioned gradient differs from the copying path", reuse, i/2, i%2)
			}
		}
		var gradElems int64
		for _, s := range pView.states {
			da, dg := FactorDims(s.layer)
			gradElems += int64(da * dg)
		}
		if saved := pCopy.factorMemBytes() - pView.factorMemBytes(); saved != 8*gradElems {
			t.Errorf("reuse=%v: in-place gradients hold %d B less, want Σ dg·da × 8 = %d", reuse, saved, 8*gradElems)
		}
	}
}

// withKernels attaches kernels of p's precision to a hand-built layer state
// and mirrors the decompositions it was built with.
func withKernels(p *Preconditioner, s *layerState) *layerState {
	s.k = newKernels(p.opts.Precision, p, s)
	for _, isG := range factorSides {
		if *s.side(isG).eig != nil {
			s.k.refresh(isG)
		}
	}
	return s
}

// combinedGradOf returns a fresh copy of l's [dg, da] combined gradient.
func combinedGradOf(l nn.KFACCapturable) *tensor.Tensor {
	da, dg := FactorDims(l)
	g := tensor.New(dg, da)
	l.CombinedGradInto(g)
	return g
}

// preconditionOne runs the stages over s's layer alone on grad and returns
// its pcBuf: (F̂+γI)⁻¹ grad by the step's own code path.
func preconditionOne(s *layerState, grad *tensor.Tensor) *tensor.Tensor {
	switch k := s.k.(type) {
	case *kernels[float32]:
		newStages(k.p, []*kernels[float32]{k}, []int{0}).run([]*tensor.Tensor{grad}, k.p.opts.Damping)
	case *kernels[float64]:
		newStages(k.p, []*kernels[float64]{k}, []int{0}).run([]*tensor.Tensor{grad}, k.p.opts.Damping)
	}
	return s.pcBuf
}

// grams64 and grams32 are the Gram products the covariance stage forms
// factors with at each element type.
func grams64() gramKernels[float64] { return gramKernels[float64]{covKernel, covPatchesKernel} }

func grams32() gramKernels[float32] {
	return gramKernels[float32]{tensor.MatMulT1UpperInto[float32], tensor.MatMulT1UpperPatchesInto[float32]}
}

// patchMatrix stores the patch matrix of a conv layer's captured image, the
// sample matrix its A factor is the Gram of.
func patchMatrix(c *nn.Conv2D) *tensor.Tensor {
	x := c.CapturedActivation()
	p := tensor.Patches[float64]{Image: x, Window: c.Window()}
	cols := tensor.New(p.Rows(), p.Cols())
	tensor.UnfoldInto(cols, x, c.KH, c.KW, c.Stride, c.Pad)
	return cols
}

// covA and covG form a captured layer's float64 factors the way the
// covariance stage does.
func covA(layer nn.KFACCapturable) *tensor.Tensor {
	da, _ := FactorDims(layer)
	cov := tensor.New(da, da)
	var sample, prod *tensor.Tensor
	gram, scale := activationGram(cov, grams64(), layer, layer.CapturedActivation(), &sample, &prod)
	(&factorFold[float64]{}).run(cov, gram, scale, true)
	return cov
}

func covG(layer nn.KFACCapturable) *tensor.Tensor {
	_, dg := FactorDims(layer)
	cov := tensor.New(dg, dg)
	var prod *tensor.Tensor
	gram, scale := gradientGram(cov, grams64(), layer, layer.CapturedOutputGrad(), &prod)
	(&factorFold[float64]{}).run(cov, gram, scale, true)
	return cov
}

func TestComputeCovALinearMatchesDefinition(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	l := nn.NewLinear("fc", 3, 2, true, rng)
	l.SetCapture(true)
	x := tensor.Randn(rng, 1, 5, 3)
	l.Forward(x, true)
	cov := covA(l)
	// Definition: A = (1/N) Σ āᵢāᵢᵀ with ā the bias-augmented activation.
	want := tensor.New(4, 4)
	for i := 0; i < 5; i++ {
		a := make([]float64, 4)
		copy(a, x.Data[i*3:(i+1)*3])
		a[3] = 1
		for r := 0; r < 4; r++ {
			for c := 0; c < 4; c++ {
				want.Data[r*4+c] += a[r] * a[c] / 5
			}
		}
	}
	if !cov.Equal(want, 1e-12) {
		t.Error("linear CovA does not match definition")
	}
	if !linalg.IsSymmetric(cov, 1e-12) {
		t.Error("CovA must be symmetric")
	}
}

func TestComputeCovGLinearMatchesDefinition(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	l := nn.NewLinear("fc", 3, 2, true, rng)
	l.SetCapture(true)
	x := tensor.Randn(rng, 1, 4, 3)
	out := l.Forward(x, true)
	g := tensor.Randn(rng, 1, out.Shape...)
	l.Backward(g)
	cov := covG(l)
	// G = N·gᵀg for batch-averaged gradients.
	want := tensor.MatMulT1(g, g)
	want.Scale(4)
	if !cov.Equal(want, 1e-12) {
		t.Error("linear CovG does not match definition")
	}
}

func TestComputeCovAConvShape(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	c := nn.NewConv2D("cv", 2, 3, 3, 1, 1, true, rng)
	c.SetCapture(true)
	x := tensor.Randn(rng, 1, 2, 4, 4, 2)
	c.Forward(x, true)
	cov := covA(c)
	// A dim = inC·k·k + 1 = 19.
	if cov.Rows() != 19 || cov.Cols() != 19 {
		t.Fatalf("conv CovA shape = %v, want 19x19", cov.Shape)
	}
	if !linalg.IsSymmetric(cov, 1e-10) {
		t.Error("conv CovA must be symmetric")
	}
	// PSD: all eigenvalues ≥ −ε.
	eg, err := linalg.SymEig(cov)
	if err != nil {
		t.Fatal(err)
	}
	if eg.Values[0] < -1e-10 {
		t.Errorf("conv CovA has negative eigenvalue %v", eg.Values[0])
	}
}

// TestComputeCovAConvIsItsDefinition states the conv A factor's arithmetic:
// A = [a, 1]ᵀ[a, 1] / (S²·N) on the patch matrix a of the captured image as
// it is — the reference implementation's 1/S weight on every patch row,
// folded into the product's one scalar. At float64 that is the Gram
// product's bits on the stored patch matrix times the scalar; the Gram reads
// the patch matrix and its bias column through the image, so no sample
// buffer exists for a conv layer at either element type.
func TestComputeCovAConvIsItsDefinition(t *testing.T) {
	const n, size, inC, outC = 3, 4, 2, 3
	for _, bias := range []bool{true, false} {
		rng := rand.New(rand.NewSource(31))
		c := nn.NewConv2D("cv", inC, outC, 3, 1, 1, bias, rng)
		c.SetCapture(true)
		c.Forward(tensor.Randn(rng, 1, n, size, size, inC), true)
		a := patchMatrix(c)
		if bias {
			aug := tensor.New(a.Rows(), a.Cols()+1)
			for i := 0; i < a.Rows(); i++ {
				row := aug.Data[i*(a.Cols()+1) : (i+1)*(a.Cols()+1)]
				copy(row, a.Data[i*a.Cols():(i+1)*a.Cols()])
				row[a.Cols()] = 1
			}
			a = aug
		}
		want := linalg.SymMulT1(a)
		want.Scale(1 / float64(size*size*size*size*n))

		da, _ := FactorDims(c)
		got, got32 := tensor.New(da, da), tensor.New(da, da)
		var sample, prod *tensor.Tensor
		gram, scale := activationGram(got, grams64(), c, c.CapturedActivation(), &sample, &prod)
		(&factorFold[float64]{}).run(got, gram, scale, true)
		wantSameBits(t, fmt.Sprintf("bias=%v float64 A", bias), got, want)
		var sample32, prod32 *tensor.T32
		gram32, scale := activationGram(got32, grams32(), c, c.CapturedActivation32(), &sample32, &prod32)
		(&factorFold[float32]{}).run(got32, gram32, scale, true)
		if !got32.Equal(want, 1e-6) {
			t.Errorf("bias=%v: float32 A departs from the definition by more than 1e-6", bias)
		}
		if sample != nil || sample32 != nil {
			t.Error("a conv capture was copied into a sample buffer")
		}
		// The same factor the reference implementation's row scaling gives.
		scaled := a.Clone()
		scaled.Scale(1 / float64(size*size))
		ref := linalg.SymMulT1(scaled)
		ref.Scale(1 / float64(n))
		if !got.Equal(ref, 1e-14) {
			t.Errorf("bias=%v: A differs from the row-scaled form", bias)
		}
	}
}

func TestFactorDims(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	lin := nn.NewLinear("fc", 7, 5, true, rng)
	da, dg := FactorDims(lin)
	if da != 8 || dg != 5 {
		t.Errorf("linear dims = %d,%d want 8,5", da, dg)
	}
	conv := nn.NewConv2D("cv", 3, 16, 3, 1, 1, false, rng)
	da, dg = FactorDims(conv)
	if da != 27 || dg != 16 {
		t.Errorf("conv dims = %d,%d want 27,16", da, dg)
	}
}

// TestEigenPreconditionMatchesKroneckerInverse verifies Equations 13–15:
// the eigen path computes exactly (G⊗A + γI)⁻¹ applied to vec(∇L) in the
// layer's (out × in) orientation: M[(r,c),(r',c')] = G[r,r']·A[c,c'] + γδ.
func TestEigenPreconditionMatchesKroneckerInverse(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	out, in := 3, 4
	// Random SPD factors.
	ga := tensor.Randn(rng, 1, out, out)
	G := tensor.MatMulT1(ga, ga)
	ab := tensor.Randn(rng, 1, in, in)
	A := tensor.MatMulT1(ab, ab)
	grad := tensor.Randn(rng, 1, out, in)
	gamma := 0.05

	egA, err := linalg.SymEig(A)
	if err != nil {
		t.Fatal(err)
	}
	egG, err := linalg.SymEig(G)
	if err != nil {
		t.Fatal(err)
	}
	p := &Preconditioner{opts: Options{Mode: EigenMode, Damping: gamma}}
	s := withKernels(p, &layerState{eigA: egA, eigG: egG})
	got := preconditionOne(s, grad)

	// Explicit: build the (out·in)×(out·in) matrix G⊗A and solve damped.
	dim := out * in
	big := tensor.New(dim, dim)
	for r := 0; r < out; r++ {
		for c := 0; c < in; c++ {
			for r2 := 0; r2 < out; r2++ {
				for c2 := 0; c2 < in; c2++ {
					big.Set(G.Data[r*out+r2]*A.Data[c*in+c2], r*in+c, r2*in+c2)
				}
			}
		}
	}
	inv, err := linalg.InverseDamped(big, gamma)
	if err != nil {
		t.Fatal(err)
	}
	want := tensor.MatVec(inv, grad.Reshape(dim)).Reshape(out, in)
	if !got.Equal(want, 1e-7) {
		t.Error("eigen preconditioning != (G⊗A + γI)⁻¹ vec(grad)")
	}
}

// TestInversePreconditionMatchesFactoredDamping verifies Equation 11/12:
// InverseMode computes (G+γI)⁻¹ ∇L (A+γI)⁻¹ — the factored damping, which
// differs from the eigen path's exact (G⊗A+γI)⁻¹ — from the same
// eigendecompositions EigenMode uses, held to explicit damped inverses.
func TestInversePreconditionMatchesFactoredDamping(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	out, in := 4, 3
	ga := tensor.Randn(rng, 1, out, out)
	G := tensor.MatMulT1(ga, ga)
	ab := tensor.Randn(rng, 1, in, in)
	A := tensor.MatMulT1(ab, ab)
	grad := tensor.Randn(rng, 1, out, in)
	gamma := 0.1

	egA, err := linalg.SymEig(A)
	if err != nil {
		t.Fatal(err)
	}
	egG, err := linalg.SymEig(G)
	if err != nil {
		t.Fatal(err)
	}
	p := &Preconditioner{opts: Options{Mode: InverseMode, Damping: gamma}}
	s := withKernels(p, &layerState{eigA: egA, eigG: egG})
	got := preconditionOne(s, grad)
	invA, err := linalg.InverseDamped(A, gamma)
	if err != nil {
		t.Fatal(err)
	}
	invG, err := linalg.InverseDamped(G, gamma)
	if err != nil {
		t.Fatal(err)
	}
	want := tensor.MatMul(tensor.MatMul(invG, grad), invA)
	if !got.Equal(want, 1e-10) {
		t.Error("inverse preconditioning != (G+γI)⁻¹∇L(A+γI)⁻¹")
	}
}

// Property: with zero damping and well-conditioned factors, preconditioning
// then multiplying back by the Fisher recovers the gradient (the
// preconditioner really applies the inverse).
func TestPreconditionRoundTripProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		out := 2 + rng.Intn(4)
		in := 2 + rng.Intn(4)
		ga := tensor.Randn(rng, 1, out, out)
		G := tensor.MatMulT1(ga, ga)
		ab := tensor.Randn(rng, 1, in, in)
		A := tensor.MatMulT1(ab, ab)
		// Regularize to keep conditioning sane.
		for i := 0; i < out; i++ {
			G.Data[i*out+i] += 1
		}
		for i := 0; i < in; i++ {
			A.Data[i*in+i] += 1
		}
		grad := tensor.Randn(rng, 1, out, in)
		egA, err := linalg.SymEig(A)
		if err != nil {
			return false
		}
		egG, err := linalg.SymEig(G)
		if err != nil {
			return false
		}
		p := &Preconditioner{opts: Options{Mode: EigenMode, Damping: 0}}
		s := withKernels(p, &layerState{eigA: egA, eigG: egG})
		pc := preconditionOne(s, grad)
		// Fisher · pc = G · pc · A should recover grad.
		back := tensor.MatMul(tensor.MatMul(G, pc), A)
		return back.Equal(grad, 1e-6)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestSingleProcessStepRunsAndChangesGrads(t *testing.T) {
	net := buildTinyNet(7)
	p := NewFromOptions(net, nil, Options{InvUpdateFreq: 2, FactorUpdateFreq: 1})
	runStep(net, 100, 8)
	before := net.Params()[0].Grad.Clone()
	if err := p.Step(0.1); err != nil {
		t.Fatal(err)
	}
	after := net.Params()[0].Grad
	if before.Equal(after, 0) {
		t.Error("preconditioning left gradients unchanged")
	}
	if hasNonFinite(after) {
		t.Error("preconditioned gradient has NaN")
	}
}

func TestStaleDecompositionsBetweenUpdates(t *testing.T) {
	net := buildTinyNet(8)
	p := NewFromOptions(net, nil, Options{InvUpdateFreq: 10, FactorUpdateFreq: 10})
	runStep(net, 101, 4)
	if err := p.Step(0.1); err != nil {
		t.Fatal(err)
	}
	// Capture the decomposition contents after the first (updating) step.
	// (The Eigen object itself is refreshed in place — storage is reused —
	// so identity is compared on the values, not the pointer.)
	q0 := p.states[0].eigA.Q.Clone()
	vals0 := append([]float64(nil), p.states[0].eigA.Values...)
	// Steps 1..9 must reuse the same decompositions (stale information).
	for i := 0; i < 5; i++ {
		runStep(net, int64(200+i), 4)
		if err := p.Step(0.1); err != nil {
			t.Fatal(err)
		}
		if !p.states[0].eigA.Q.Equal(q0, 0) {
			t.Fatal("decomposition recomputed before InvUpdateFreq elapsed")
		}
	}
	// Iteration 10 (the 11th step) triggers a refresh.
	for i := 0; i < 5; i++ {
		runStep(net, int64(300+i), 4)
		if err := p.Step(0.1); err != nil {
			t.Fatal(err)
		}
	}
	same := p.states[0].eigA.Q.Equal(q0, 0)
	for i, v := range vals0 {
		if p.states[0].eigA.Values[i] != v {
			same = false
		}
	}
	if same {
		t.Fatal("decomposition not refreshed at InvUpdateFreq")
	}
}

func TestKLClipBoundsUpdateNorm(t *testing.T) {
	net := buildTinyNet(9)
	// Huge gradients: ν must kick in and shrink the preconditioned grad.
	pClip := NewFromOptions(net, nil, Options{KLClip: 1e-6, FactorUpdateFreq: 1, InvUpdateFreq: 1})
	runStep(net, 102, 8)
	// Inflate gradients.
	for _, pr := range net.Params() {
		pr.Grad.Scale(100)
	}
	if err := pClip.Step(1.0); err != nil {
		t.Fatal(err)
	}
	clipped := net.Params()[0].Grad.Norm2()

	net2 := buildTinyNet(9)
	pNo := NewFromOptions(net2, nil, Options{KLClip: -1, FactorUpdateFreq: 1, InvUpdateFreq: 1})
	runStep(net2, 102, 8)
	for _, pr := range net2.Params() {
		pr.Grad.Scale(100)
	}
	if err := pNo.Step(1.0); err != nil {
		t.Fatal(err)
	}
	unclipped := net2.Params()[0].Grad.Norm2()
	if clipped >= unclipped {
		t.Errorf("kl-clip did not shrink update: clipped=%v unclipped=%v", clipped, unclipped)
	}
}

// TestDistributedMatchesSingleProcess is the core correctness property of
// Algorithm 1: with identical (already averaged) gradients and factors, the
// distributed round-robin scheme must produce the same preconditioned
// gradients as a single process, on every rank.
func TestDistributedMatchesSingleProcess(t *testing.T) {
	for _, strategy := range []Strategy{RoundRobin, SizeGreedy, LayerWise} {
		strategy := strategy
		t.Run(strategy.String(), func(t *testing.T) {
			const p = 3
			const batch = 6

			// Reference: single process over the full batch.
			ref := buildTinyNet(42)
			pref := NewFromOptions(ref, nil, Options{FactorUpdateFreq: 1, InvUpdateFreq: 1})
			runStep(ref, 999, batch)
			if err := pref.Step(0.1); err != nil {
				t.Fatal(err)
			}
			wantGrad := ref.Params()[0].Grad.Clone()

			// Distributed: each rank sees the same data (so local gradients
			// and factors equal the averaged ones).
			fab := comm.NewInprocFabric(p)
			grads := make([]*tensor.Tensor, p)
			var wg sync.WaitGroup
			errs := make([]error, p)
			for r := 0; r < p; r++ {
				wg.Add(1)
				go func(r int) {
					defer wg.Done()
					net := buildTinyNet(42)
					c := comm.NewCommunicator(fab.Endpoint(r))
					prec := NewFromOptions(net, c, Options{
						Strategy: strategy, FactorUpdateFreq: 1, InvUpdateFreq: 1,
					})
					runStep(net, 999, batch)
					if err := prec.Step(0.1); err != nil {
						errs[r] = err
						return
					}
					grads[r] = net.Params()[0].Grad.Clone()
				}(r)
			}
			wg.Wait()
			for r, err := range errs {
				if err != nil {
					t.Fatalf("rank %d: %v", r, err)
				}
			}
			for r := 0; r < p; r++ {
				if !grads[r].Equal(wantGrad, 1e-8) {
					t.Errorf("rank %d preconditioned grad differs from single-process reference", r)
				}
			}
		})
	}
}

func TestDistributedStaleStepsSkipFactorComm(t *testing.T) {
	// With InvUpdateFreq=4 and FactorUpdateFreq=2, steps 1 and 3 must not
	// communicate anything K-FAC-related. We verify the end state stays
	// consistent across ranks (implicitly checking no deadlock from
	// asymmetric collective schedules).
	const p = 2
	fab := comm.NewInprocFabric(p)
	var wg sync.WaitGroup
	errs := make([]error, p)
	grads := make([]*tensor.Tensor, p)
	for r := 0; r < p; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			net := buildTinyNet(50)
			c := comm.NewCommunicator(fab.Endpoint(r))
			prec := NewFromOptions(net, c, Options{FactorUpdateFreq: 2, InvUpdateFreq: 4})
			for i := 0; i < 6; i++ {
				runStep(net, int64(700+i), 4)
				if err := prec.Step(0.1); err != nil {
					errs[r] = err
					return
				}
			}
			grads[r] = net.Params()[0].Grad.Clone()
		}(r)
	}
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", r, err)
		}
	}
	if !grads[0].Equal(grads[1], 1e-9) {
		t.Error("ranks diverged under stale-update schedule")
	}
}

func TestAssignRoundRobinInterleavesFactors(t *testing.T) {
	refs := []FactorRef{
		{0, false, 10}, {0, true, 20},
		{1, false, 30}, {1, true, 40},
		{2, false, 50}, {2, true, 60},
	}
	got := Assign(RoundRobin, refs, 4)
	want := []int{0, 1, 2, 3, 0, 1}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Assign = %v, want %v", got, want)
		}
	}
}

func TestAssignLayerWiseKeepsLayerTogether(t *testing.T) {
	refs := []FactorRef{
		{0, false, 10}, {0, true, 20},
		{1, false, 30}, {1, true, 40},
	}
	got := Assign(LayerWise, refs, 3)
	if got[0] != got[1] || got[2] != got[3] {
		t.Errorf("LayerWise split a layer's factors: %v", got)
	}
	if got[0] == got[2] {
		t.Errorf("LayerWise did not spread layers: %v", got)
	}
}

func TestAssignSizeGreedyBalancesBetterThanRoundRobin(t *testing.T) {
	// Pathological size distribution: one huge factor followed by many tiny
	// ones. Round-robin gives one worker the huge factor plus its share of
	// tiny ones; greedy gives the huge factor a worker to itself.
	refs := []FactorRef{{0, false, 512}}
	for i := 1; i < 16; i++ {
		refs = append(refs, FactorRef{i, false, 64})
	}
	workers := 4
	rr := WorkerLoads(refs, Assign(RoundRobin, refs, workers), workers)
	gr := WorkerLoads(refs, Assign(SizeGreedy, refs, workers), workers)
	_, rrMax, _ := LoadStats(rr)
	_, grMax, _ := LoadStats(gr)
	if grMax > rrMax {
		t.Errorf("greedy max load %v worse than round-robin %v", grMax, rrMax)
	}
}

func TestAssignSingleWorker(t *testing.T) {
	refs := []FactorRef{{0, false, 4}, {0, true, 4}}
	for _, s := range []Strategy{RoundRobin, LayerWise, SizeGreedy} {
		got := Assign(s, refs, 1)
		for _, w := range got {
			if w != 0 {
				t.Errorf("%v: assignment %v with one worker", s, got)
			}
		}
	}
}

func TestWorkerLoadsAndStats(t *testing.T) {
	refs := []FactorRef{{0, false, 2}, {0, true, 2}, {1, false, 2}}
	assign := []int{0, 0, 1}
	loads := WorkerLoads(refs, assign, 2)
	if loads[0] != 2*linalg.EigFLOPs(2) || loads[1] != linalg.EigFLOPs(2) {
		t.Errorf("loads = %v", loads)
	}
	minL, maxL, mean := LoadStats(loads)
	if minL != loads[1] || maxL != loads[0] {
		t.Errorf("stats = %v %v %v", minL, maxL, mean)
	}
	if m, _, _ := LoadStats(nil); m != 0 {
		t.Error("empty LoadStats should be zeros")
	}
}

// TestSerializationRoundTrip: both modes send one record shape,
// [layer, side, n, values…, Q…], and a consumed record reproduces the
// sender's decomposition and mirror bit for bit.
func TestSerializationRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(60))
	for _, mode := range []Mode{EigenMode, InverseMode} {
		src := &Preconditioner{opts: Options{Mode: mode, Damping: 0.1}}
		dst := &Preconditioner{opts: Options{Mode: mode, Damping: 0.1}}
		n := 5
		spd := tensor.MatMulT1(tensor.Randn(rng, 1, n, n), tensor.Randn(rng, 1, n, n))
		// Use the same matrix for A-side of layer 0 (in+bias = n).
		layer := nn.NewLinear("fc", n-1, 3, true, rng)
		eg, err := linalg.SymEig(spd)
		if err != nil {
			t.Fatal(err)
		}
		s := &layerState{layer: layer, eigA: eg}
		src.states = []*layerState{s}
		dst.states = []*layerState{withKernels(dst, &layerState{layer: layer})}
		buf := src.appendRecord(nil, 0, false)
		if want := 3 + n + n*n; len(buf) != want || len(buf) != src.recordLen(0, false) {
			t.Fatalf("mode %v: record of %d values, recordLen %d, want %d", mode, len(buf), src.recordLen(0, false), want)
		}
		if err := dst.consumeRecords(buf); err != nil {
			t.Fatal(err)
		}
		got := dst.states[0]
		if !got.eigA.Q.Equal(s.eigA.Q, 0) {
			t.Errorf("mode %v: eigen Q round trip failed", mode)
		}
		for i := range s.eigA.Values {
			if got.eigA.Values[i] != s.eigA.Values[i] {
				t.Errorf("mode %v: eigen values round trip failed", mode)
			}
		}
		if k := got.k.(*kernels[float64]); k.mirror[0] != got.eigA.Q {
			t.Errorf("mode %v: consumed record not mirrored", mode)
		}
	}
}

// recordFixture returns a never-stepped preconditioner over the tiny net
// (layer 0: A 10×10, G 3×3; layer 1: A 4×4, G 4×4) plus one valid record
// for layer 1's G factor, whose shape does not depend on the mode.
func recordFixture(mode Mode) (*Preconditioner, []float64) {
	p := NewFromOptions(buildTinyNet(61), nil, Options{Mode: mode})
	_, n := FactorDims(p.states[1].layer)
	rec := []float64{1, 1, float64(n)}
	for i := 0; i < n; i++ {
		rec = append(rec, float64(i+1))
	}
	for i := 0; i < n*n; i++ {
		rec = append(rec, float64(i%7))
	}
	return p, rec
}

// checkRecordState asserts every decomposition slot is either empty or
// fully shaped for its factor — what "state fully consistent" means after
// any consumeRecords call, failed or not.
func checkRecordState(t *testing.T, p *Preconditioner) {
	t.Helper()
	for i, s := range p.states {
		for _, isG := range factorSides {
			n, f := p.factorDim(i, isG), s.side(isG)
			if eg := *f.eig; eg != nil && (len(eg.Values) != n || eg.Q.Rows() != n || eg.Q.Cols() != n) {
				t.Fatalf("layer %d %s: eigen slot shaped %d/%v, want %d", i, sideName(isG), len(eg.Values), eg.Q.Shape, n)
			}
		}
	}
}

func TestConsumeRecordsTruncated(t *testing.T) {
	p, valid := recordFixture(EigenMode)
	if err := p.consumeRecords(valid); err != nil {
		t.Fatalf("valid record rejected: %v", err)
	}
	if p.states[1].eigG == nil || p.states[1].eigG.Values[3] != 4 {
		t.Fatal("valid record not stored")
	}
	with := func(field int, v float64) []float64 {
		rec := append([]float64(nil), valid...)
		rec[field] = v
		return rec
	}
	for _, c := range []struct {
		name  string
		block []float64
		want  string // substring the error must carry
	}{
		{"truncated header", []float64{0, 0}, "header"},
		{"truncated payload", valid[:len(valid)-1], "layer 1 G"},
		{"unknown layer", with(0, 9), "layer 9"},
		{"negative dimension", []float64{0, 0, -1}, "layer 0 A"},
		{"NaN layer", with(0, math.NaN()), "layer NaN"},
		{"fractional layer", with(0, 0.5), "layer 0.5"},
		{"infinite layer", with(0, math.Inf(1)), "layer +Inf"},
		{"side flag not 0/1", with(1, 2), "layer 1"},
		{"NaN dimension", with(2, math.NaN()), "layer 1 G"},
		{"fractional dimension", with(2, 4.5), "layer 1 G"},
		{"other side's dimension", append([]float64{0, 1, 10}, make([]float64, 110)...), "layer 0 G"},
		{"bad record after a good one", append(append([]float64(nil), valid...), 1, 1, 5), "layer 1 G"},
	} {
		err := p.consumeRecords(c.block)
		if err == nil {
			t.Errorf("%s: accepted", c.name)
		} else if !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %q does not name %q", c.name, err, c.want)
		}
		checkRecordState(t, p)
	}
}

func TestParamSchedule(t *testing.T) {
	s := ParamSchedule{Initial: 0.003, DecayEpochs: []int{10, 20}, Factor: 0.5}
	if s.At(0) != 0.003 {
		t.Errorf("At(0) = %v", s.At(0))
	}
	if math.Abs(s.At(10)-0.0015) > 1e-15 {
		t.Errorf("At(10) = %v", s.At(10))
	}
	if math.Abs(s.At(25)-0.00075) > 1e-15 {
		t.Errorf("At(25) = %v", s.At(25))
	}
	// Zero factor defaults to 0.5.
	s2 := ParamSchedule{Initial: 1, DecayEpochs: []int{1}}
	if s2.At(2) != 0.5 {
		t.Errorf("default factor At(2) = %v", s2.At(2))
	}
}

func TestSettersAndAccessors(t *testing.T) {
	net := buildTinyNet(11)
	p := NewFromOptions(net, nil, Options{})
	if p.NumLayers() != 2 {
		t.Errorf("NumLayers = %d, want 2", p.NumLayers())
	}
	p.SetDamping(0.01)
	if p.opts.Damping != 0.01 {
		t.Error("SetDamping")
	}
	p.SetInvUpdateFreq(0)
	if p.opts.InvUpdateFreq != 1 {
		t.Error("SetInvUpdateFreq should clamp to 1")
	}
	p.SetFactorUpdateFreq(7)
	if p.opts.FactorUpdateFreq != 7 {
		t.Error("SetFactorUpdateFreq")
	}
	if p.step != 0 {
		t.Error("the step count should start at 0")
	}
	refs := p.FactorRefs()
	if len(refs) != 4 {
		t.Errorf("FactorRefs = %d, want 4", len(refs))
	}
}

func TestInverseModeSingleProcess(t *testing.T) {
	net := buildTinyNet(12)
	p := NewFromOptions(net, nil, Options{Mode: InverseMode, FactorUpdateFreq: 1, InvUpdateFreq: 1, Damping: 0.01})
	runStep(net, 500, 8)
	if err := p.Step(0.1); err != nil {
		t.Fatal(err)
	}
	if hasNonFinite(net.Params()[0].Grad) {
		t.Error("inverse-mode preconditioned grad has NaN")
	}
}

func TestStrategyString(t *testing.T) {
	cases := map[Strategy]string{
		RoundRobin:   "K-FAC-opt",
		LayerWise:    "K-FAC-lw",
		SizeGreedy:   "K-FAC-greedy",
		Strategy(99): "unknown",
	}
	for s, want := range cases {
		if s.String() != want {
			t.Errorf("%d.String() = %q, want %q", s, s.String(), want)
		}
	}
}

func TestModeString(t *testing.T) {
	if EigenMode.String() == InverseMode.String() {
		t.Error("modes should print differently")
	}
}

func TestDistributedFourRanksManyLayers(t *testing.T) {
	// More ranks than layers: exercises idle-worker handling in placement
	// and ensures allgather with empty contributions works.
	const p = 6 // tiny net has 2 layers = 4 factors < 6 ranks
	fab := comm.NewInprocFabric(p)
	var wg sync.WaitGroup
	errs := make([]error, p)
	grads := make([]*tensor.Tensor, p)
	for r := 0; r < p; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			net := buildTinyNet(77)
			c := comm.NewCommunicator(fab.Endpoint(r))
			prec := NewFromOptions(net, c, Options{FactorUpdateFreq: 1, InvUpdateFreq: 1})
			runStep(net, 888, 4)
			if err := prec.Step(0.1); err != nil {
				errs[r] = fmt.Errorf("step: %w", err)
				return
			}
			grads[r] = net.Params()[0].Grad.Clone()
		}(r)
	}
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", r, err)
		}
	}
	for r := 1; r < p; r++ {
		if !grads[r].Equal(grads[0], 1e-9) {
			t.Errorf("rank %d grads diverged", r)
		}
	}
}
