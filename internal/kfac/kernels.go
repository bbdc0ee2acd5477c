package kfac

import (
	"unsafe"

	"repro/internal/linalg"
	"repro/internal/nn"
	"repro/internal/tensor"
)

// The element-typed half of the step: the per-iteration O(n³) work — the
// covariance Gram products and the preconditioning products of Equations
// 13–15 (or 10) — written once over the element type E of its operands and
// products. NewFromOptions picks E per preconditioner from Options.Precision
// (float64, or float32 for the mixed-precision path, whose products run the
// float64 FMA chain on float32 operands and round once; see
// internal/tensor/gemm.go), and nothing below asks which it is.
//
// Everything that carries state across steps or ranks is float64 whatever E
// is: the running-average factors A and G (and their Lerp), the factor
// allreduce, decompositions and their records, checkpoints, Param.Grad and
// the preconditioned-gradient buffers. State at E is strictly derived —
// mirrors of the decompositions, refreshed when one changes, plus
// workspaces — so it is never communicated or persisted. A value crosses
// between the two through tensor.Cast/Like, which hand back the float64
// tensor itself when E is float64 ("convert at the boundary",
// docs/ARCHITECTURE.md).

// layerKernels is one layer's kernels[E], behind the element type.
type layerKernels interface {
	// computeCov recomputes the layer's local covariance factors and folds
	// them into the running averages with coefficient decay.
	computeCov(decay float64)
	// refresh mirrors one side's new decomposition at E. Called wherever
	// the float64 slot is written: local decomposition and record consume.
	refresh(isG bool)
	// preconditionOne computes (F̂ᵢ+γI)⁻¹∇L into the layer's pcBuf.
	preconditionOne(grad *tensor.Tensor) *tensor.Tensor
	// memBytes counts the resident bytes of the buffers held at E.
	memBytes() int64
}

// newKernels picks the element type of a layer's kernels. The float64 Gram
// product reads covKernel at call time, so tests can swap it.
func newKernels(pr Precision, p *Preconditioner, s *layerState) layerKernels {
	if pr == F32 {
		return &kernels[float32]{p: p, s: s, gram: linalg.SymMulT1Into[float32],
			act: nn.KFACCapturable.CapturedActivation32, grad: nn.KFACCapturable.CapturedOutputGrad32}
	}
	return &kernels[float64]{p: p, s: s, gram: func(dst, a *tensor.Tensor) { covKernel(dst, a) },
		act: nn.KFACCapturable.CapturedActivation, grad: nn.KFACCapturable.CapturedOutputGrad}
}

// kernels is one layer's state and stage bodies at element type E.
type kernels[E tensor.Elem] struct {
	p *Preconditioner
	s *layerState

	gram      func(dst, a *tensor.Dense[E])            // dst = aᵀa
	act, grad func(nn.KFACCapturable) *tensor.Dense[E] // the layer's captures at E

	// mirror[side] is the side's decomposition at E — the eigenbasis Q
	// (EigenMode) or the damped inverse (InverseMode); index 0 is A, 1 is G.
	// It is the float64 tensor itself at float64, else mirrorBuf[side]. A
	// layer's two sides are refreshed by concurrent decomposition jobs and
	// record consumers, each touching only its own index.
	mirror, mirrorBuf [2]*tensor.Dense[E]

	// Step workspaces: the gradient at E, the two preconditioning
	// intermediates, and the result where pcBuf itself cannot hold it.
	gradBuf, wA, wB, pcBuf *tensor.Dense[E]
	// Covariance workspaces: bias-augmented activation sample, and the Gram
	// product where the layer's float64 covA/covG cannot hold it.
	sample, cov *tensor.Dense[E]
}

func (k *kernels[E]) computeCov(decay float64) {
	s := k.s
	da, dg := FactorDims(s.layer)
	covA := tensor.Ensure(&s.covA, da, da)
	activationCov(covA, k.gram, s.layer, k.act(s.layer), &k.sample, &k.cov)
	covG := tensor.Ensure(&s.covG, dg, dg)
	gradientCov(covG, k.gram, s.layer, k.grad(s.layer), &k.cov)
	if s.A == nil {
		s.A, s.G = covA.Clone(), covG.Clone()
	} else {
		s.A.Lerp(decay, covA)
		s.G.Lerp(decay, covG)
	}
}

func (k *kernels[E]) refresh(isG bool) {
	f := k.s.side(isG)
	i := 0
	if isG {
		i = 1
	}
	src := *f.inv
	if k.p.opts.Mode != InverseMode {
		src = (*f.eig).Q
	}
	k.mirror[i] = tensor.Cast(&k.mirrorBuf[i], src)
}

// preconditionOne writes into the layer's reused float64 pcBuf (which it
// returns), so the KL clip, the MEM-OPT result broadcast and
// SetCombinedGrad see an ordinary float64 tensor; the products in between
// run at E against the mirrored decompositions. grad must not alias the
// workspace tensors.
func (k *kernels[E]) preconditionOne(grad *tensor.Tensor) *tensor.Tensor {
	p, s := k.p, k.s
	out, in := grad.Rows(), grad.Cols()
	pc := tensor.Ensure(&s.pcBuf, out, in)
	res := tensor.Like(&k.pcBuf, pc)
	g := tensor.Cast(&k.gradBuf, grad)
	mA, mG := k.mirror[0], k.mirror[1]
	t1 := tensor.Ensure(&k.wA, out, in)
	if p.opts.Mode == InverseMode {
		if s.invA == nil || s.invG == nil {
			panic("kfac: precondition before inverse update")
		}
		// Equation 10: G⁻¹ ∇L A⁻¹ (inverses already damped).
		tensor.MatMulInto(t1, mG, g)
		tensor.MatMulInto(res, t1, mA)
		tensor.Convert(pc, res)
		return pc
	}
	if s.eigA == nil || s.eigG == nil {
		panic("kfac: precondition before eigendecomposition update")
	}
	// Equations 13–15:
	//   V₁ = Q_Gᵀ ∇L Q_A
	//   V₂ = V₁ / (υ_G υ_Aᵀ + γ)
	//   out = Q_G V₂ Q_Aᵀ
	tensor.MatMulT1Into(t1, mG, g)
	v1 := tensor.Ensure(&k.wB, out, in)
	tensor.MatMulInto(v1, t1, mA)
	// Equation 14 is one definition at either E: the denominator is formed
	// in float64 from the float64 eigenvalues and the current γ (and π),
	// the element is divided by it in float64, and the quotient is rounded
	// to E once.
	lamA, lamG := s.eigA.Values, s.eigG.Values
	if p.opts.PiDamping {
		// Factored split: denominator (λ_A + π√γ)(λ_G + √γ/π).
		ga, gg := p.dampingSplit(s)
		for r := 0; r < out; r++ {
			vg := lamG[r] + gg
			row := v1.Data[r*in : (r+1)*in]
			for c := range row {
				row[c] = E(float64(row[c]) / (vg * (lamA[c] + ga)))
			}
		}
	} else {
		for r := 0; r < out; r++ {
			vg := lamG[r]
			row := v1.Data[r*in : (r+1)*in]
			for c := range row {
				row[c] = E(float64(row[c]) / (vg*lamA[c] + p.opts.Damping))
			}
		}
	}
	t2 := t1 // wA no longer needed; reuse for Q_G × V₂
	tensor.MatMulInto(t2, mG, v1)
	tensor.MatMulT2Into(res, t2, mA)
	tensor.Convert(pc, res)
	return pc
}

func (k *kernels[E]) memBytes() int64 {
	var elems int64
	for _, t := range []*tensor.Dense[E]{
		k.mirrorBuf[0], k.mirrorBuf[1], k.gradBuf, k.wA, k.wB, k.pcBuf, k.sample, k.cov,
	} {
		if t != nil {
			elems += int64(t.Len())
		}
	}
	var e E
	return elems * int64(unsafe.Sizeof(e))
}
