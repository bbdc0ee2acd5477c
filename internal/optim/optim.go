// Package optim implements the first-order optimizer and learning-rate
// schedule used in the paper's experiments: SGD with heavy-ball momentum and
// per-parameter weight-decay exclusions, and the linear-warmup + step-decay
// schedule used for every run in §VI.
//
// The optimizer is constructed with functional options:
//
//	opt := optim.SGD(net.Params(), optim.WithLR(0.1), optim.WithMomentum(0.9))
//
// K-FAC composes with it: the preconditioner rewrites parameter gradients in
// place, then the optimizer applies its usual update rule (paper Listing 1).
package optim

import (
	"repro/internal/nn"
	"repro/internal/tensor"
)

// Optimizer updates parameters from their accumulated gradients;
// SGDOptimizer implements it.
type Optimizer interface {
	// Step applies one update using the current learning rate.
	Step()
	// ZeroGrad clears the accumulated gradients of every managed parameter.
	ZeroGrad()
	// SetLR sets the learning rate used by subsequent steps.
	SetLR(lr float64)
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
		wd := s.WeightDecay
		if p.NoWeightDecay {
			wd = 0
		}
		tensor.MomentumStep(p.Value.Data, s.bufs[i].Data, p.Grad.Data, s.lr, s.Momentum, wd)
	}
}

// ZeroGrad implements Optimizer.
func (s *SGDOptimizer) ZeroGrad() {
	for _, p := range s.Params {
		p.Grad.Zero()
	}
}

// SetLR implements Optimizer.
func (s *SGDOptimizer) SetLR(lr float64) { s.lr = lr }

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
		// Linear ramp: epoch 0 runs at BaseLR/WarmupEpochs, and epoch
		// WarmupEpochs−1 at the full BaseLR.
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
