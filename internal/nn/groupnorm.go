package nn

import (
	"fmt"
	"math"

	"repro/internal/tensor"
)

// GroupNorm normalizes groups of channels within each example of an
// [N, H, W, C] tensor (Wu & He). Unlike BatchNorm it has no batch-size
// dependence and no running statistics, which makes it attractive for the
// very large effective batches the paper's large-batch context concerns —
// included as the standard alternative normalizer.
type GroupNorm struct {
	name   string
	C      int
	Groups int
	Eps    float64

	Gamma *Param
	Beta  *Param

	// Backward caches.
	xhat   *tensor.Tensor
	invStd []float64 // per (image, group)
	shape  []int
}

// NewGroupNorm constructs a group normalization layer; groups must divide c.
func NewGroupNorm(name string, c, groups int) *GroupNorm {
	if groups < 1 || c%groups != 0 {
		panic(fmt.Sprintf("nn: GroupNorm groups %d must divide channels %d", groups, c))
	}
	g := NewParam(name+".gamma", tensor.Ones(c))
	b := NewParam(name+".beta", tensor.New(c))
	g.NoWeightDecay = true
	b.NoWeightDecay = true
	return &GroupNorm{name: name, C: c, Groups: groups, Eps: 1e-5, Gamma: g, Beta: b}
}

// Forward implements Layer. A group is chPerGroup adjacent channels of every
// pixel of one image: a strip of each [H·W, C] row.
func (g *GroupNorm) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	n, spatial, c := x.Shape[0], x.Shape[1]*x.Shape[2], x.Shape[3]
	if c != g.C {
		panic("nn: GroupNorm channel mismatch")
	}
	g.shape = x.Shape
	chPerGroup := c / g.Groups
	cnt := float64(chPerGroup * spatial)
	out := tensor.New(x.Shape...)
	g.xhat = tensor.New(x.Shape...)
	if cap(g.invStd) < n*g.Groups {
		g.invStd = make([]float64, n*g.Groups)
	}
	g.invStd = g.invStd[:n*g.Groups]
	for img := 0; img < n; img++ {
		for grp := 0; grp < g.Groups; grp++ {
			lo := grp * chPerGroup
			strip := func(t *tensor.Tensor, s int) []float64 {
				return t.Data[(img*spatial+s)*c+lo:][:chPerGroup]
			}
			var mean, variance float64
			for s := 0; s < spatial; s++ {
				for _, v := range strip(x, s) {
					mean += v
				}
			}
			mean /= cnt
			for s := 0; s < spatial; s++ {
				for _, v := range strip(x, s) {
					variance += (v - mean) * (v - mean)
				}
			}
			inv := 1 / math.Sqrt(variance/cnt+g.Eps)
			g.invStd[img*g.Groups+grp] = inv
			gamma, beta := g.Gamma.Value.Data[lo:], g.Beta.Value.Data[lo:]
			for s := 0; s < spatial; s++ {
				xh, o := strip(g.xhat, s), strip(out, s)
				for ch, v := range strip(x, s) {
					xh[ch] = (v - mean) * inv
					o[ch] = gamma[ch]*xh[ch] + beta[ch]
				}
			}
		}
	}
	return out
}

// Backward implements Layer. Same derivation as BatchNorm, with statistics
// over each (image, group) slab.
func (g *GroupNorm) Backward(gradOut *tensor.Tensor) *tensor.Tensor {
	n, spatial, c := g.shape[0], g.shape[1]*g.shape[2], g.shape[3]
	chPerGroup := c / g.Groups
	cnt := float64(chPerGroup * spatial)
	dx := tensor.New(g.shape...)
	for img := 0; img < n; img++ {
		for grp := 0; grp < g.Groups; grp++ {
			lo := grp * chPerGroup
			strip := func(t *tensor.Tensor, s int) []float64 {
				return t.Data[(img*spatial+s)*c+lo:][:chPerGroup]
			}
			inv := g.invStd[img*g.Groups+grp]
			gamma := g.Gamma.Value.Data[lo:]
			dGamma, dBeta := g.Gamma.Grad.Data[lo:], g.Beta.Grad.Data[lo:]
			// Accumulate per-channel parameter grads and the two slab sums
			// of dxhat = dy·γ.
			var sumDxhat, sumDxhatXhat float64
			for s := 0; s < spatial; s++ {
				xh := strip(g.xhat, s)
				for ch, dy := range strip(gradOut, s) {
					dGamma[ch] += dy * xh[ch]
					dBeta[ch] += dy
					dxh := dy * gamma[ch]
					sumDxhat += dxh
					sumDxhatXhat += dxh * xh[ch]
				}
			}
			for s := 0; s < spatial; s++ {
				xh, d := strip(g.xhat, s), strip(dx, s)
				for ch, dy := range strip(gradOut, s) {
					d[ch] = inv / cnt * (cnt*(dy*gamma[ch]) - sumDxhat - xh[ch]*sumDxhatXhat)
				}
			}
		}
	}
	return dx
}

// Params implements Layer.
func (g *GroupNorm) Params() []*Param { return []*Param{g.Gamma, g.Beta} }

// Name implements Layer.
func (g *GroupNorm) Name() string { return g.name }
