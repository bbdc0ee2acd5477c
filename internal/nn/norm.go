package nn

import (
	"math"

	"repro/internal/tensor"
)

// BatchNorm2d normalizes each channel of an [N, H, W, C] tensor over the
// batch and spatial dimensions, then applies a learned affine transform.
// Training mode uses mini-batch statistics and updates running estimates;
// evaluation mode uses the running estimates. K-FAC ignores BatchNorm
// parameters (the paper: "all unsupported layers ... updated normally using
// the user's choice of optimizer").
type BatchNorm2d struct {
	name     string
	C        int
	Eps      float64
	Momentum float64 // running-stats update rate (PyTorch convention)

	Gamma *Param // scale, [C]
	Beta  *Param // shift, [C]

	RunningMean *tensor.Tensor
	RunningVar  *tensor.Tensor

	// Backward caches.
	xhat  *tensor.Tensor
	stats []float64 // per channel: mean, variance, 1/std of the last forward; Σdy, Σdy·xhat, γ·(1/std)/n of the last backward
	n     int       // N·H·W per channel in last batch
	shape []int

	reuse  bool
	outBuf *tensor.Tensor
	dxBuf  *tensor.Tensor
}

// SetBufferReuse implements BufferReuser.
func (b *BatchNorm2d) SetBufferReuse(on bool) { b.reuse = on }

// NewBatchNorm2d constructs a BatchNorm layer with γ=1, β=0.
func NewBatchNorm2d(name string, c int) *BatchNorm2d {
	g := NewParam(name+".gamma", tensor.Ones(c))
	b := NewParam(name+".beta", tensor.New(c))
	g.NoWeightDecay = true
	b.NoWeightDecay = true
	rv := tensor.Ones(c)
	return &BatchNorm2d{
		name: name, C: c, Eps: 1e-5, Momentum: 0.1,
		Gamma: g, Beta: b,
		RunningMean: tensor.New(c), RunningVar: rv,
	}
}

// Forward implements Layer. Every pass walks the [N·H·W, C] rows once
// (tensor's per-channel passes), so a channel's sums run over its samples in
// row order.
func (b *BatchNorm2d) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	c := x.Shape[3]
	if c != b.C {
		panic("nn: BatchNorm2d channel mismatch")
	}
	b.shape = x.Shape
	cnt := x.Len() / c
	b.n = cnt
	out := ensureBuf(b.reuse, &b.outBuf, x.Shape...)
	b.xhat = ensureBuf(b.reuse, &b.xhat, x.Shape...)
	if len(b.stats) != 6*c {
		b.stats = make([]float64, 6*c)
	}
	mean, variance, inv := b.stats[:c], b.stats[c:2*c], b.stats[2*c:3*c]
	if train {
		tensor.ChannelSums(mean, x.Data)
		for ch := range mean {
			mean[ch] /= float64(cnt)
		}
		tensor.ChannelSqDevs(variance, x.Data, mean)
		for ch := range variance {
			variance[ch] /= float64(cnt)
			// Update running stats with the unbiased variance, as PyTorch does.
			unbiased := variance[ch]
			if cnt > 1 {
				unbiased = variance[ch] * float64(cnt) / float64(cnt-1)
			}
			b.RunningMean.Data[ch] = (1-b.Momentum)*b.RunningMean.Data[ch] + b.Momentum*mean[ch]
			b.RunningVar.Data[ch] = (1-b.Momentum)*b.RunningVar.Data[ch] + b.Momentum*unbiased
		}
	} else {
		copy(mean, b.RunningMean.Data)
		copy(variance, b.RunningVar.Data)
	}
	for ch := range inv {
		inv[ch] = 1 / math.Sqrt(variance[ch]+b.Eps)
	}
	tensor.Normalize(b.xhat.Data, out.Data, x.Data, mean, inv, b.Gamma.Value.Data, b.Beta.Value.Data)
	return out
}

// Backward implements Layer. Standard BatchNorm backward:
// dxhat = dy·γ
// dx = (1/N)·invStd·(N·dxhat − Σdxhat − xhat·Σ(dxhat·xhat))
// evaluated as dx = k·(N·dy − Σdy − xhat·Σ(dy·xhat)) with k = γ·invStd/N.
func (b *BatchNorm2d) Backward(gradOut *tensor.Tensor) *tensor.Tensor {
	c, cnt := b.C, float64(b.n)
	dx := ensureBuf(b.reuse, &b.dxBuf, b.shape...)
	inv, sumDy, sumDyXhat, k := b.stats[2*c:3*c], b.stats[3*c:4*c], b.stats[4*c:5*c], b.stats[5*c:]
	tensor.ChannelSumPair(sumDy, sumDyXhat, gradOut.Data, b.xhat.Data)
	gamma := b.Gamma.Value.Data
	for ch := 0; ch < c; ch++ {
		b.Gamma.Grad.Data[ch] += sumDyXhat[ch]
		b.Beta.Grad.Data[ch] += sumDy[ch]
		k[ch] = gamma[ch] * inv[ch] / cnt
	}
	tensor.NormalizeGrad(dx.Data, gradOut.Data, b.xhat.Data, k, sumDy, sumDyXhat, cnt)
	return dx
}

// Params implements Layer.
func (b *BatchNorm2d) Params() []*Param { return []*Param{b.Gamma, b.Beta} }

// Name implements Layer.
func (b *BatchNorm2d) Name() string { return b.name }

// StateTensors implements Stateful: the running mean and variance used in
// evaluation mode must survive checkpoints.
func (b *BatchNorm2d) StateTensors() []State {
	return []State{
		{Name: b.name + ".running_mean", Value: b.RunningMean},
		{Name: b.name + ".running_var", Value: b.RunningVar},
	}
}

var _ Stateful = (*BatchNorm2d)(nil)
