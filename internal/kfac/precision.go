package kfac

import (
	"fmt"

	"repro/internal/linalg"
	"repro/internal/nn"
	"repro/internal/tensor"
)

// Mixed-precision K-FAC step (Options.Precision == F32).
//
// The float32 path reroutes the per-step O(n³) work — covariance Gram
// products and the four preconditioning matmuls — through the float32
// kernels with float64 accumulation. Everything that carries state across
// steps or ranks stays float64 and bit-compatible with the F64 path:
// running-average factors A and G (and their Lerp), the factor allreduce,
// decomposition records, checkpoints, Param.Grad, and the preconditioned-
// gradient broadcast buffers. Float32 state is strictly derived — eigenbasis
// mirrors refreshed when a decomposition changes, plus per-layer scratch —
// so it never needs to be communicated or persisted ("convert at the
// boundary", docs/ARCHITECTURE.md).

// Precision selects the arithmetic width of the K-FAC compute kernels.
type Precision int

const (
	// F64 is the default full-precision path; results are bit-identical to
	// the reference implementation.
	F64 Precision = iota
	// F32 stores operands and results in float32; products run the float64
	// FMA chain on them and round once (see internal/tensor/gemm.go). State
	// and communication remain float64.
	F32
)

// String names the precision for logs and the bench JSON schema.
func (p Precision) String() string {
	if p == F32 {
		return "f32"
	}
	return "f64"
}

// ParsePrecision parses a CLI precision flag ("f64"/"float64", default, or
// "f32"/"float32").
func ParsePrecision(s string) (Precision, error) {
	switch s {
	case "", "f64", "float64":
		return F64, nil
	case "f32", "float32":
		return F32, nil
	}
	return F64, fmt.Errorf("kfac: unknown precision %q (want f32 or f64)", s)
}

// WithPrecision selects the compute precision of the K-FAC step kernels
// (default F64).
func WithPrecision(pr Precision) Option { return func(o *Options) { o.Precision = pr } }

// layerF32 carries one layer's float32 mirrors and workspaces, allocated
// only under Precision == F32.
type layerF32 struct {
	// Eigenbasis mirrors (EigenMode) and damped-inverse mirrors
	// (InverseMode), narrowed from the float64 decompositions whenever
	// those change.
	qA, qG     *tensor.T32
	invA, invG *tensor.T32
	// aEpoch/gEpoch count refreshes of the A and G mirrors. They are
	// separate fields because a layer's A and G slots are refreshed from
	// concurrent decomposition-job and record-consumer goroutines; each
	// site touches only its own counter.
	aEpoch, gEpoch uint64

	// recip caches the elementwise reciprocal denominator of Equation 14,
	// 1/(λ_G λ_A + γ) (or the π-split form), so the per-step elementwise
	// stage is a single float32 multiply. Rebuilt lazily when the epochs,
	// γ, or π under it change.
	recip      *tensor.T32
	recipEpoch uint64  // aEpoch+gEpoch at last rebuild (0 = never built)
	recipGamma float64 // γ at last rebuild
	recipPi    float64 // π at last rebuild (1 unless PiDamping)

	// Step workspaces: narrowed gradient, the two preconditioning
	// intermediates, and the float32 result widened into pcBuf.
	grad, wA, wB, pc *tensor.T32
	// Covariance workspaces: bias-augmented activation sample, output-grad
	// mirror, and the Gram product before widening.
	sample, g, cov *tensor.T32
}

// cov32Kernel computes dst = aᵀa in float32. Mirrors covKernel: tests swap
// in a reference kernel to isolate the Gram stage.
var cov32Kernel = linalg.SymMulT1Into32

// ensureF32 returns the layer's float32 state, allocating it on first use.
func (s *layerState) ensureF32() *layerF32 {
	if s.f32 == nil {
		s.f32 = &layerF32{}
	}
	return s.f32
}

// refreshF32 narrows one side's updated decomposition (eigenbasis or
// damped inverse) into its float32 mirror. Called wherever the float64
// slot is written: local decomposition and record consume. No-op under F64.
func (p *Preconditioner) refreshF32(s *layerState, isG bool) {
	if p.opts.Precision != F32 {
		return
	}
	m := s.ensureF32()
	q, inv, epoch := &m.qA, &m.invA, &m.aEpoch
	if isG {
		q, inv, epoch = &m.qG, &m.invG, &m.gEpoch
	}
	f := s.side(isG)
	if p.opts.Mode == InverseMode {
		n := (*f.inv).Rows()
		tensor.Ensure32(inv, n, n).NarrowFrom(*f.inv)
	} else {
		n := (*f.eig).Q.Rows()
		tensor.Ensure32(q, n, n).NarrowFrom((*f.eig).Q)
	}
	*epoch++
}

// recip32 returns the cached reciprocal-denominator matrix for Equation 14,
// rebuilding it when the decompositions, γ, or π changed since the last
// build. Row r, column c holds 1/(λ_G[r]·λ_A[c] + γ) — or the π-split form
// 1/((λ_G[r]+γ_G)(λ_A[c]+γ_A)) — computed in float64 and rounded once.
func (p *Preconditioner) recip32(s *layerState, out, in int) *tensor.T32 {
	f := s.f32
	epoch := f.aEpoch + f.gEpoch
	pi := 1.0
	if p.opts.PiDamping {
		pi = s.pi
	}
	if f.recip != nil && f.recipEpoch == epoch && f.recipGamma == p.opts.Damping &&
		f.recipPi == pi && f.recip.Rows() == out && f.recip.Cols() == in {
		return f.recip
	}
	r := tensor.Ensure32(&f.recip, out, in)
	if p.opts.PiDamping {
		ga, gg := p.dampingSplit(s)
		for row := 0; row < out; row++ {
			vg := s.eigG.Values[row] + gg
			dst := r.Data[row*in : (row+1)*in]
			for c := 0; c < in; c++ {
				dst[c] = float32(1 / (vg * (s.eigA.Values[c] + ga)))
			}
		}
	} else {
		for row := 0; row < out; row++ {
			vg := s.eigG.Values[row]
			dst := r.Data[row*in : (row+1)*in]
			for c := 0; c < in; c++ {
				dst[c] = float32(1 / (vg*s.eigA.Values[c] + p.opts.Damping))
			}
		}
	}
	f.recipEpoch, f.recipGamma, f.recipPi = epoch, p.opts.Damping, pi
	return r
}

// preconditionOne32 is preconditionOne on the float32 kernel path: the
// gradient is narrowed once, the four matmuls of Equations 13–15 (or the
// two of Equation 10) run in float32 with float64 accumulation against the
// mirrored decompositions, and the result widens into the layer's float64
// pcBuf — so the KL clip, the MEM-OPT result broadcast, and SetCombinedGrad
// see an ordinary float64 tensor.
func (p *Preconditioner) preconditionOne32(s *layerState, grad *tensor.Tensor) *tensor.Tensor {
	out, in := grad.Rows(), grad.Cols()
	pc := tensor.Ensure(&s.pcBuf, out, in)
	f := s.ensureF32()
	g32 := tensor.Ensure32(&f.grad, out, in)
	g32.NarrowFrom(grad)
	if p.opts.Mode == InverseMode {
		if f.invA == nil || f.invG == nil {
			panic("kfac: precondition before inverse update")
		}
		t1 := tensor.Ensure32(&f.wA, out, in)
		tensor.MatMulInto32(t1, f.invG, g32)
		pc32 := tensor.Ensure32(&f.pc, out, in)
		tensor.MatMulInto32(pc32, t1, f.invA)
		pc32.WidenInto(pc)
		return pc
	}
	if f.qA == nil || f.qG == nil {
		panic("kfac: precondition before eigendecomposition update")
	}
	t1 := tensor.Ensure32(&f.wA, out, in)
	tensor.MatMulT1Into32(t1, f.qG, g32)
	v1 := tensor.Ensure32(&f.wB, out, in)
	tensor.MatMulInto32(v1, t1, f.qA)
	recip := p.recip32(s, out, in)
	for i, rv := range recip.Data {
		v1.Data[i] *= rv
	}
	t2 := t1 // wA no longer needed; reuse for Q_G × V₂
	tensor.MatMulInto32(t2, f.qG, v1)
	pc32 := tensor.Ensure32(&f.pc, out, in)
	tensor.MatMulT2Into32(pc32, t2, f.qA)
	pc32.WidenInto(pc)
	return pc
}

// computeCovState32 is computeCovState on the float32 kernel path: sample
// matrices are consumed directly from the layers' float32 captures when
// available (KFACCapturable32) or narrowed once from the float64 captures,
// the Gram products run through cov32Kernel, and the covariances widen into
// the float64 workspaces before the running-average Lerp — keeping A and G
// float64 and allreduce-compatible across mixed-precision and full-
// precision ranks.
func (p *Preconditioner) computeCovState32(s *layerState) {
	f := s.ensureF32()
	da, dg := FactorDims(s.layer)
	l32, _ := s.layer.(nn.KFACCapturable32)

	// --- A factor: bias-augmented, spatially scaled activation samples.
	var act32 *tensor.T32
	if l32 != nil {
		act32 = l32.CapturedActivation32()
	}
	if act32 == nil {
		act := s.layer.CapturedActivation()
		if act == nil {
			panic("kfac: ComputeCovA called without captured activation (is capture enabled?)")
		}
		act32 = tensor.Ensure32(&f.sample, act.Rows(), act.Cols())
		act32.NarrowFrom(act)
	}
	rows, cols := act32.Rows(), act32.Cols()
	spatial := s.layer.SpatialSize()
	batch := s.layer.BatchSize()
	scale := float32(1)
	if spatial > 1 {
		scale = float32(1 / float64(spatial))
	}
	d := cols
	if s.layer.HasBias() {
		d++
	}
	a := act32
	if s.layer.HasBias() || scale != 1 {
		// Building the augmented matrix in a second buffer also covers the
		// case where act32 aliases f.sample (the narrow fallback).
		a = tensor.Ensure32(&f.g, rows, d)
		for i := 0; i < rows; i++ {
			src := act32.Data[i*cols : (i+1)*cols]
			dst := a.Data[i*d : (i+1)*d]
			for j, v := range src {
				dst[j] = v * scale
			}
			if s.layer.HasBias() {
				dst[d-1] = scale
			}
		}
	}
	cov32 := tensor.Ensure32(&f.cov, da, da)
	cov32Kernel(cov32, a)
	covA := tensor.Ensure(&s.covA, da, da)
	cov32.WidenInto(covA)
	covA.Scale(1 / float64(batch))

	// --- G factor: output-gradient samples, scaled by N·S.
	var g32 *tensor.T32
	if l32 != nil {
		g32 = l32.CapturedOutputGrad32()
	}
	if g32 == nil {
		g := s.layer.CapturedOutputGrad()
		if g == nil {
			panic("kfac: ComputeCovG called without captured output gradient")
		}
		g32 = tensor.Ensure32(&f.g, g.Rows(), g.Cols())
		g32.NarrowFrom(g)
	}
	cov32G := tensor.Ensure32(&f.cov, dg, dg)
	cov32Kernel(cov32G, g32)
	covG := tensor.Ensure(&s.covG, dg, dg)
	cov32G.WidenInto(covG)
	covG.Scale(float64(batch) * float64(spatial))

	if s.A == nil {
		s.A, s.G = covA.Clone(), covG.Clone()
	} else {
		s.A.Lerp(p.opts.FactorDecay, covA)
		s.G.Lerp(p.opts.FactorDecay, covG)
	}
}

// f32MemElems counts the float32 elements resident in a layer's mixed-
// precision state, for factorMemBytes.
func (s *layerState) f32MemElems() int64 {
	f := s.f32
	if f == nil {
		return 0
	}
	var elems int64
	for _, t := range []*tensor.T32{
		f.qA, f.qG, f.invA, f.invG, f.recip,
		f.grad, f.wA, f.wB, f.pc, f.sample, f.g, f.cov,
	} {
		if t != nil {
			elems += int64(t.Len())
		}
	}
	return elems
}
