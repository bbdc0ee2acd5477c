// Package optim implements the first-order optimizers and learning-rate
// schedules used in the paper's experiments: SGD with heavy-ball momentum and
// decoupled weight decay exclusions, LARS (the large-batch baseline family
// the related-work section compares against), Adam, and the linear-warmup +
// step-decay schedule used for every run in §VI.
//
// Optimizers are constructed with functional options:
//
//	opt := optim.SGD(net.Params(), optim.WithLR(0.1), optim.WithMomentum(0.9))
//
// K-FAC composes with any of these: the preconditioner rewrites parameter
// gradients in place, then the optimizer applies its usual update rule
// (paper Listing 1).
package optim

import (
	"math"

	"repro/internal/nn"
	"repro/internal/tensor"
)

// Optimizer updates parameters from their accumulated gradients. All
// implementations in this package satisfy it.
type Optimizer interface {
	// Step applies one update using the current learning rate.
	Step()
	// ZeroGrad clears the accumulated gradients of every managed parameter.
	ZeroGrad()
	// SetLR sets the learning rate used by subsequent steps.
	SetLR(lr float64)
	// LR returns the current learning rate.
	LR() float64
}

// zeroGrads clears the gradient buffers of params — the shared ZeroGrad
// implementation.
func zeroGrads(params []*nn.Param) {
	for _, p := range params {
		p.Grad.Zero()
	}
}

// SGDOptimizer is stochastic gradient descent with momentum and L2 weight
// decay, matching PyTorch's torch.optim.SGD semantics:
//
//	buf = momentum·buf + grad + wd·w
//	w  -= lr · buf
type SGDOptimizer struct {
	Params      []*nn.Param
	Momentum    float64
	WeightDecay float64

	lr   float64
	bufs []*tensor.Tensor
}

// SGD constructs an SGD optimizer over params. Defaults (overridable by
// options): lr 0.1, zero momentum, zero weight decay.
func SGD(params []*nn.Param, opts ...Option) *SGDOptimizer {
	st := resolve(opts)
	bufs := make([]*tensor.Tensor, len(params))
	for i, p := range params {
		bufs[i] = tensor.New(p.Value.Shape...)
	}
	return &SGDOptimizer{
		Params: params, Momentum: st.momentum, WeightDecay: st.weightDecay,
		lr: st.lr, bufs: bufs,
	}
}

// Step implements Optimizer.
func (s *SGDOptimizer) Step() {
	for i, p := range s.Params {
		g := p.Grad
		buf := s.bufs[i]
		wd := s.WeightDecay
		if p.NoWeightDecay {
			wd = 0
		}
		for j := range g.Data {
			gj := g.Data[j]
			if wd != 0 {
				gj += wd * p.Value.Data[j]
			}
			buf.Data[j] = s.Momentum*buf.Data[j] + gj
			p.Value.Data[j] -= s.lr * buf.Data[j]
		}
	}
}

// ZeroGrad implements Optimizer.
func (s *SGDOptimizer) ZeroGrad() { zeroGrads(s.Params) }

// SetLR implements Optimizer.
func (s *SGDOptimizer) SetLR(lr float64) { s.lr = lr }

// LR implements Optimizer.
func (s *SGDOptimizer) LR() float64 { return s.lr }

// LARSOptimizer is layer-wise adaptive rate scaling (You et al.), the
// optimizer the large-batch SGD line of work (paper §III-A) builds on. Each
// parameter's local learning rate is scaled by η·‖w‖/(‖g‖+wd·‖w‖).
type LARSOptimizer struct {
	Params      []*nn.Param
	Momentum    float64
	WeightDecay float64
	Eta         float64 // trust coefficient

	lr   float64
	bufs []*tensor.Tensor
}

// LARS constructs a LARS optimizer over params. Defaults (overridable by
// options): lr 0.1, zero momentum, zero weight decay, trust coefficient
// η = 0.001.
func LARS(params []*nn.Param, opts ...Option) *LARSOptimizer {
	st := resolve(opts)
	bufs := make([]*tensor.Tensor, len(params))
	for i, p := range params {
		bufs[i] = tensor.New(p.Value.Shape...)
	}
	return &LARSOptimizer{
		Params: params, Momentum: st.momentum, WeightDecay: st.weightDecay,
		Eta: st.eta, lr: st.lr, bufs: bufs,
	}
}

// Step implements Optimizer.
func (l *LARSOptimizer) Step() {
	for i, p := range l.Params {
		wd := l.WeightDecay
		if p.NoWeightDecay {
			wd = 0
		}
		wNorm := p.Value.Norm2()
		gNorm := p.Grad.Norm2()
		trust := 1.0
		if wNorm > 0 && gNorm > 0 {
			trust = l.Eta * wNorm / (gNorm + wd*wNorm)
		}
		buf := l.bufs[i]
		for j := range p.Grad.Data {
			gj := p.Grad.Data[j] + wd*p.Value.Data[j]
			buf.Data[j] = l.Momentum*buf.Data[j] + trust*gj
			p.Value.Data[j] -= l.lr * buf.Data[j]
		}
	}
}

// ZeroGrad implements Optimizer.
func (l *LARSOptimizer) ZeroGrad() { zeroGrads(l.Params) }

// SetLR implements Optimizer.
func (l *LARSOptimizer) SetLR(lr float64) { l.lr = lr }

// LR implements Optimizer.
func (l *LARSOptimizer) LR() float64 { return l.lr }

// AdamOptimizer implements the Adam optimizer (Kingma & Ba) with bias
// correction.
type AdamOptimizer struct {
	Params      []*nn.Param
	Beta1       float64
	Beta2       float64
	Eps         float64
	WeightDecay float64

	lr   float64
	step int
	m, v []*tensor.Tensor
}

// Adam constructs an Adam optimizer over params. Defaults (overridable by
// options): lr 0.1, β₁ 0.9, β₂ 0.999, ε 1e-8, zero weight decay.
func Adam(params []*nn.Param, opts ...Option) *AdamOptimizer {
	st := resolve(opts)
	m := make([]*tensor.Tensor, len(params))
	v := make([]*tensor.Tensor, len(params))
	for i, p := range params {
		m[i] = tensor.New(p.Value.Shape...)
		v[i] = tensor.New(p.Value.Shape...)
	}
	return &AdamOptimizer{
		Params: params, Beta1: st.beta1, Beta2: st.beta2, Eps: st.eps,
		WeightDecay: st.weightDecay, lr: st.lr, m: m, v: v,
	}
}

// Step implements Optimizer.
func (a *AdamOptimizer) Step() {
	a.step++
	bc1 := 1 - math.Pow(a.Beta1, float64(a.step))
	bc2 := 1 - math.Pow(a.Beta2, float64(a.step))
	for i, p := range a.Params {
		wd := a.WeightDecay
		if p.NoWeightDecay {
			wd = 0
		}
		m, v := a.m[i], a.v[i]
		for j := range p.Grad.Data {
			g := p.Grad.Data[j] + wd*p.Value.Data[j]
			m.Data[j] = a.Beta1*m.Data[j] + (1-a.Beta1)*g
			v.Data[j] = a.Beta2*v.Data[j] + (1-a.Beta2)*g*g
			mh := m.Data[j] / bc1
			vh := v.Data[j] / bc2
			p.Value.Data[j] -= a.lr * mh / (math.Sqrt(vh) + a.Eps)
		}
	}
}

// ZeroGrad implements Optimizer.
func (a *AdamOptimizer) ZeroGrad() { zeroGrads(a.Params) }

// SetLR implements Optimizer.
func (a *AdamOptimizer) SetLR(lr float64) { a.lr = lr }

// LR implements Optimizer.
func (a *AdamOptimizer) LR() float64 { return a.lr }

// ClipGradNorm rescales all gradients jointly so their global L2 norm does
// not exceed maxNorm, returning the pre-clip norm. A no-op when the norm is
// already within bounds or maxNorm ≤ 0.
func ClipGradNorm(params []*nn.Param, maxNorm float64) float64 {
	var sq float64
	for _, p := range params {
		for _, g := range p.Grad.Data {
			sq += g * g
		}
	}
	norm := math.Sqrt(sq)
	if maxNorm <= 0 || norm <= maxNorm || norm == 0 {
		return norm
	}
	scale := maxNorm / norm
	for _, p := range params {
		p.Grad.Scale(scale)
	}
	return norm
}

// LRSchedule produces a learning rate for each epoch. The paper's recipe
// (§VI-C): linear warmup over the first WarmupEpochs from BaseLR/N to the
// full scaled rate, then multiplicative decay by Factor at each milestone.
type LRSchedule struct {
	BaseLR       float64
	WarmupEpochs int
	Milestones   []int   // epochs at which to decay
	Factor       float64 // per-milestone multiplier (paper: 0.1)
}

// At returns the learning rate for the given zero-based epoch.
func (s LRSchedule) At(epoch int) float64 {
	lr := s.BaseLR
	if s.WarmupEpochs > 0 && epoch < s.WarmupEpochs {
		// Linear ramp: epoch 0 starts at BaseLR/(warmup+1) ... full at end.
		return s.BaseLR * float64(epoch+1) / float64(s.WarmupEpochs)
	}
	f := s.Factor
	if f == 0 {
		f = 0.1
	}
	for _, m := range s.Milestones {
		if epoch >= m {
			lr *= f
		}
	}
	return lr
}
