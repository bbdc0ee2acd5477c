package kfac

import (
	"math"
	"runtime"
	"sort"
	"unsafe"

	"repro/internal/nn"
	"repro/internal/sched"
	"repro/internal/tensor"
)

// The element-typed half of the step: the per-iteration O(n³) work — the
// covariance Gram products and the preconditioning products of Equations
// 13–15 — written once over the element type E of its operands and
// products. NewFromOptions picks E per preconditioner from Options.Precision
// (float64, or float32 for the mixed-precision path, whose products run the
// float64 FMA chain on float32 operands and round once; see
// internal/tensor/gemm.go), and nothing below asks which it is.
//
// Everything that carries state across steps or ranks is float64 whatever E
// is: the running-average factors A and G (and the factor fold, the Gram's
// upper product's other consumer beside linalg.SymMulT1Into, which averages
// the triangle into them), the factor allreduce, decompositions and their
// records, checkpoints, Param.Grad and the preconditioned-gradient buffers.
// State at E is strictly derived — mirrors of the decompositions, refreshed
// when one changes, plus workspaces — so it is never communicated or
// persisted. A value crosses
// between the two through tensor.Cast/Like, which hand back the float64
// tensor itself when E is float64 ("convert at the boundary",
// docs/ARCHITECTURE.md).

// layerKernels is one layer's kernels[E], behind the element type.
type layerKernels interface {
	// computeCov recomputes the layer's local covariance factors and folds
	// them into the running averages with coefficient factorDecay, forming
	// each Gram product's upper triangle in slot, a covariance slot of at
	// least the larger factor's n² floats.
	computeCov(slot *tensor.Tensor)
	// refresh mirrors one side's new eigenbasis at E. Called wherever the
	// float64 slot is written: local decomposition and record consume.
	refresh(isG bool)
	// memBytes counts the resident bytes of the buffers held at E.
	memBytes() int64
	// adopt finishes an early result (earlyRun): when live, the layer's
	// combined gradient now, equals bit for bit the snapshot in pcBuf the
	// result was computed from, it moves the result, kept at E in wB, into
	// pcBuf and reports true. Otherwise it reports false and leaves both
	// buffers to be overwritten by a precondition from live.
	adopt(live *tensor.Tensor) bool
}

// newKernels picks the element type of a layer's kernels. The float64 Gram
// products read covKernel and covPatchesKernel at call time, so tests can
// swap them.
func newKernels(pr Precision, p *Preconditioner, s *layerState) layerKernels {
	if pr == F32 {
		return &kernels[float32]{p: p, s: s,
			gram: gramKernels[float32]{tensor.MatMulT1UpperInto[float32], tensor.MatMulT1UpperPatchesInto[float32]},
			act:  nn.KFACCapturable.CapturedActivation32, grad: nn.KFACCapturable.CapturedOutputGrad32}
	}
	return &kernels[float64]{p: p, s: s, gram: gramKernels[float64]{
		func(dst, a *tensor.Tensor) { covKernel(dst, a) },
		func(dst *tensor.Tensor, p tensor.Patches[float64]) { covPatchesKernel(dst, p) }},
		act: nn.KFACCapturable.CapturedActivation, grad: nn.KFACCapturable.CapturedOutputGrad}
}

// kernels is one layer's state and stage bodies at element type E.
type kernels[E tensor.Elem] struct {
	p *Preconditioner
	s *layerState

	gram      gramKernels[E]                           // the factors' Gram products
	act, grad func(nn.KFACCapturable) *tensor.Dense[E] // the layer's captures at E

	// mirror[side] is the side's eigenbasis Q at E; index 0 is A, 1 is G.
	// It is the float64 tensor itself at float64, else mirrorBuf[side]. A
	// layer's two sides are refreshed by concurrent decomposition jobs and
	// record consumers, each touching only its own index.
	mirror, mirrorBuf [2]*tensor.Dense[E]

	// Step workspaces: the gradient at E, the two preconditioning
	// intermediates, and the result where pcBuf itself cannot hold it.
	gradBuf, wA, wB, pcBuf *tensor.Dense[E]
	// Covariance workspaces: bias-augmented activation sample, and the Gram
	// product where the float64 covariance slot cannot hold it.
	sample, cov *tensor.Dense[E]
	fold        factorFold[E] // the pass that finishes each factor
}

func (k *kernels[E]) computeCov(slot *tensor.Tensor) {
	s := k.s
	da, dg := FactorDims(s.layer)
	// The first update is the average, formed in the factor itself. Later
	// Grams go to slot; A and G are independent, so they can share it.
	first := s.A == nil
	formA, formG := slot, slot
	if first {
		s.A, s.G = tensor.New(da, da), tensor.New(dg, dg)
		formA, formG = s.A, s.G
	}
	cov, scale := activationGram(tensor.Ensure(&formA, da, da), k.gram, s.layer, k.act(s.layer), &k.sample, &k.cov)
	k.fold.run(s.A, cov, scale, first)
	cov, scale = gradientGram(tensor.Ensure(&formG, dg, dg), k.gram, s.layer, k.grad(s.layer), &k.cov)
	k.fold.run(s.G, cov, scale, first)
}

// foldTile is the side of the tiles the factor fold shares out over the
// pool; under foldPoolMinDim columns the pass is too short to hand off.
const foldTile, foldPoolMinDim = 32, 128

// factorFold finishes a factor from the upper triangle of its Gram cov: for
// each i ≤ j, v = float64(cov[i][j])·scale and avg[i][j] = avg[j][i] =
// ξ·avg[i][j] + (1−ξ)·v (Equations 16–17, ξ = factorDecay), or v on the
// first update. A tile reads only upper elements and writes them and their
// mirrors, so tiles share no element and cov may be avg. The averages are
// bitwise symmetric (this pass and the factor allreduce both mirror), so
// the bits are those of mirroring, scaling and folding the whole matrix.
type factorFold[E tensor.Elem] struct {
	cov      []E
	avg      []float64
	n, tiles int
	scale    float64
	first    bool
}

// run finishes the n×n factor avg from cov and scale.
func (f *factorFold[E]) run(avg *tensor.Tensor, cov *tensor.Dense[E], scale float64, first bool) {
	n := avg.Rows()
	tiles := (n + foldTile - 1) / foldTile
	*f = factorFold[E]{cov.Data, avg.Data, n, tiles, scale, first}
	if n < foldPoolMinDim || runtime.GOMAXPROCS(0) == 1 {
		f.RunRange(0, tiles*tiles)
	} else {
		sched.Shared().ForEach(tiles*tiles, tiles*tiles, f)
	}
}

// RunRange implements sched.Ranger over tiles [lo, hi) of the tiles×tiles
// grid, row-major; a tile below the diagonal has no j ≥ i and does nothing.
func (f *factorFold[E]) RunRange(lo, hi int) {
	n, cov, avg, scale := f.n, f.cov, f.avg, f.scale
	// 1 − ξ rounded at float64: the constant 1 − factorDecay is exactly 0.05,
	// which rounds to another float64.
	ξ := float64(factorDecay)
	b := 1 - ξ
	for t := lo; t < hi; t++ {
		i0, j0 := t/f.tiles*foldTile, t%f.tiles*foldTile
		for i := i0; i < min(i0+foldTile, n); i++ {
			for j := max(i, j0); j < min(j0+foldTile, n); j++ {
				v := float64(cov[i*n+j]) * scale
				if !f.first {
					v = ξ*avg[i*n+j] + b*v
				}
				avg[i*n+j], avg[j*n+i] = v, v
			}
		}
	}
}

func (k *kernels[E]) refresh(isG bool) {
	i := 0
	if isG {
		i = 1
	}
	k.mirror[i] = tensor.Cast(&k.mirrorBuf[i], (*k.s.side(isG).eig).Q)
}

func (k *kernels[E]) adopt(live *tensor.Tensor) bool {
	s := k.s
	snap := s.pcBuf.Data[:len(live.Data)]
	for i, v := range live.Data {
		if math.Float64bits(v) != math.Float64bits(snap[i]) {
			return false
		}
	}
	// At float64 the result already is a float64 tensor of pcBuf's shape,
	// so the two buffers trade places. pcBuf is a bucket view only under a
	// partial plan, where nothing starts early.
	if res, ok := any(k.wB).(*tensor.Tensor); ok {
		s.pcBuf, k.wB = res, any(s.pcBuf).(*tensor.Dense[E])
		return true
	}
	tensor.Convert(s.pcBuf, k.wB)
	return true
}

// precondStages preconditions a fixed set of layers (kernels[E]'s stages).
type precondStages interface {
	// run preconditions with damping γ every layer i of the set whose
	// grads[i] is not nil, skipping the others; grads is indexed by layer.
	// It writes (F̂ᵢ+γI)⁻¹ grads[i] into layer i's pcBuf, or with keep set
	// (newPrecondStages) leaves it at E in the layer's wB, and sets the
	// layer's dot to the dot product of that result with grads[i]. A pcBuf is
	// an ordinary float64 tensor, so the KL clip, the MEM-OPT result
	// broadcast and SetCombinedGrad read it as such; the products in
	// between run at E against the mirrored eigenbases. No grads[i] may
	// alias a workspace tensor of E; with keep set it may be the pcBuf.
	run(grads []*tensor.Tensor, γ float64)
}

// newPrecondStages builds the stages over the given layers of p at p's
// element type, largest layer first so that a pooled pass does not end on
// one. keep selects where a result lands: false for Step's stages, whose
// results go to each pcBuf, true for the early runner's, whose gradients
// are the snapshots in the pcBufs.
func newPrecondStages(p *Preconditioner, layers []int, keep bool) precondStages {
	size := func(i int) int {
		da, dg := FactorDims(p.states[i].layer)
		return da * dg
	}
	order := append([]int(nil), layers...)
	sort.SliceStable(order, func(a, b int) bool { return size(order[a]) > size(order[b]) })
	if p.opts.Precision == F32 {
		return stagesOver[float32](p, order, keep)
	}
	return stagesOver[float64](p, order, keep)
}

func stagesOver[E tensor.Elem](p *Preconditioner, layers []int, keep bool) *stages[E] {
	ks := make([]*kernels[E], len(layers))
	for j, i := range layers {
		ks[j] = p.states[i].k.(*kernels[E])
	}
	st := newStages(p, ks, layers)
	st.keep = keep
	return st
}

// stages runs Equations 13–15 for a set of layers as a few steps
// each taken by every layer at once, instead of layer after layer: every
// product of one step is recorded into one tensor.Group, so the step's
// products share one block grid at pool width, and the element-wise steps
// (Equation 14's division; at float32, the gradient's rounding in and the
// result's widening out; the result's dot product with the gradient) run
// as one pooled pass over the layers. Each layer's arithmetic is exactly
// what it would be alone — the products' bits do not depend on their grid,
// and the element-wise passes touch each element once — so the set is
// bit-identical to its layers one at a time, and to any split of them
// into runs.
//
//	t = Q_Gᵀ∇L;  V₁ = t·Q_A;  V₂ = V₁ / D;  t = Q_G·V₂;  out = t·Q_Aᵀ
//
// where Equation 14's denominator D is υ_G υ_Aᵀ + γ in EigenMode and
// (υ_G + γ)(υ_A + γ)ᵀ in InverseMode (see Mode). t lives in the layer's wA,
// V₁ and V₂ in its wB, and out in its pcBuf or, under keep, in wB, which
// V₂'s last reader has freed by then.
type stages[E tensor.Elem] struct {
	p    *Preconditioner
	ks   []*kernels[E]
	idx  []int // ks[j]'s layer index into run's grads
	keep bool  // results stay at E in wB (the early runner's stages)

	// Per-run state: on lists the positions in ks of the layers this run
	// covers; the rest is ks-aligned views: the gradient and the result at
	// E (the float64 gradient and pcBuf themselves at float64, and wB under
	// keep), the gradient, and the pcBuf (nil under keep).
	on     []int
	g, res []*tensor.Dense[E]
	grad   []*tensor.Tensor
	pc     []*tensor.Tensor
	γ      float64

	grp  tensor.Group[E]
	pass stagePass // the element-wise pass RunRange performs
}

// stagePass names an element-wise pass of stages.
type stagePass int

const (
	passCastIn stagePass = iota // g = grad at E
	passDivide                  // Equation 14
	passFinish                  // pc = res as float64 unless keep; the dot
)

// newStages runs over the layers ks, in that order; idx[j] is ks[j]'s index
// into run's grads. It keeps both slices.
func newStages[E tensor.Elem](p *Preconditioner, ks []*kernels[E], idx []int) *stages[E] {
	n := len(ks)
	return &stages[E]{p: p, ks: ks, idx: idx, on: make([]int, 0, n),
		g: make([]*tensor.Dense[E], n), res: make([]*tensor.Dense[E], n),
		grad: make([]*tensor.Tensor, n), pc: make([]*tensor.Tensor, n)}
}

func (st *stages[E]) run(grads []*tensor.Tensor, γ float64) {
	st.on, st.γ = st.on[:0], γ
	for j, k := range st.ks {
		grad := grads[st.idx[j]]
		if grad == nil {
			continue
		}
		s := k.s
		if s.eigA == nil || s.eigG == nil {
			panic("kfac: precondition before eigendecomposition update")
		}
		out, in := grad.Rows(), grad.Cols()
		st.on = append(st.on, j)
		st.grad[j] = grad
		st.g[j] = tensor.Like(&k.gradBuf, grad)
		tensor.Ensure(&k.wA, out, in)
		wB := tensor.Ensure(&k.wB, out, in)
		if st.keep {
			st.res[j] = wB
		} else {
			st.pc[j] = tensor.Ensure(&s.pcBuf, out, in)
			st.res[j] = tensor.Like(&k.pcBuf, st.pc[j])
		}
	}
	if len(st.on) == 0 {
		return
	}
	// At float64 Like handed back the float64 gradient itself, and the
	// gradient has no pass across the precision boundary to take.
	if j := st.on[0]; any(st.g[j]) != any(st.grad[j]) {
		st.each(passCastIn)
	}
	grp := &st.grp
	for _, j := range st.on {
		grp.MatMulT1(st.ks[j].wA, st.ks[j].mirror[1], st.g[j])
	}
	grp.Run()
	for _, j := range st.on {
		k := st.ks[j]
		grp.MatMul(k.wB, k.wA, k.mirror[0])
	}
	grp.Run()
	st.each(passDivide)
	for _, j := range st.on {
		k := st.ks[j]
		grp.MatMul(k.wA, k.mirror[1], k.wB)
	}
	grp.Run()
	for _, j := range st.on {
		k := st.ks[j]
		grp.MatMulT2(st.res[j], k.wA, k.mirror[0])
	}
	grp.Run()
	st.each(passFinish)
	clear(st.grad)
}

// each runs one element-wise pass over the run's layers, one layer per
// chunk.
func (st *stages[E]) each(pass stagePass) {
	st.pass = pass
	if runtime.GOMAXPROCS(0) > 1 {
		sched.Shared().ForEach(len(st.on), len(st.on), st)
	} else {
		st.RunRange(0, len(st.on))
	}
}

// RunRange implements sched.Ranger: the current pass over the run's layers
// [lo, hi).
func (st *stages[E]) RunRange(lo, hi int) {
	p := st.p
	for _, j := range st.on[lo:hi] {
		switch st.pass {
		case passCastIn:
			tensor.Convert(st.g[j], st.grad[j])
		case passFinish:
			// The dot product is the KL clip's term for the layer
			// (applyKLClip), taken here so a layer preconditioned early
			// brings it along. Widening is exact, so it has the bits of
			// pcBuf·grad at either E.
			if !st.keep {
				tensor.Convert(st.pc[j], st.res[j])
			}
			st.ks[j].s.dot = dotWide(st.res[j], st.grad[j])
		case passDivide:
			// Equation 14 is one definition at either E: the denominator is
			// formed in float64 from the float64 eigenvalues and the run's
			// γ, the element is divided by it in float64, and the
			// quotient is rounded to E once. This is the one place the step
			// reads Mode: InverseMode damps each factor, (υ_G+γ)(υ_A+γ),
			// which over the shared eigenbases is Equation 11's
			// (G+γI)⁻¹∇L(A+γI)⁻¹.
			k := st.ks[j]
			s, v1 := k.s, k.wB
			out, in := v1.Rows(), v1.Cols()
			lamA, lamG := s.eigA.Values, s.eigG.Values
			γ := st.γ
			factored := p.opts.Mode == InverseMode
			for r := 0; r < out; r++ {
				vg := lamG[r]
				row := v1.Data[r*in : (r+1)*in]
				if factored {
					vg += γ
					for c := range row {
						row[c] = E(float64(row[c]) / (vg * (lamA[c] + γ)))
					}
					continue
				}
				for c := range row {
					row[c] = E(float64(row[c]) / (vg*lamA[c] + γ))
				}
			}
		}
	}
}

// dotWide is Σᵢ float64(res[i])·grad[i] in index order: tensor's Dot of
// the result widened to float64 with the gradient, without the widened
// copy.
func dotWide[E tensor.Elem](res *tensor.Dense[E], grad *tensor.Tensor) float64 {
	r := res.Data[:len(grad.Data)]
	var s float64
	for i, v := range grad.Data {
		s += float64(r[i]) * v
	}
	return s
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
