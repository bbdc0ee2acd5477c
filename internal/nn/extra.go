package nn

import (
	"math/rand"

	"repro/internal/tensor"
)

// AvgPool2d is windowed average pooling over [N, H, W, C] with square
// window k and stride s (no padding). ResNet variants use it in shortcut
// paths; GlobalAvgPool covers the classifier head.
type AvgPool2d struct {
	name    string
	K, S    int
	inShape []int

	reuse  bool
	outBuf *tensor.Tensor
	dxBuf  *tensor.Tensor
}

// NewAvgPool2d constructs an average-pooling layer.
func NewAvgPool2d(name string, k, stride int) *AvgPool2d {
	return &AvgPool2d{name: name, K: k, S: stride}
}

// SetBufferReuse implements BufferReuser.
func (a *AvgPool2d) SetBufferReuse(on bool) { a.reuse = on }

// Forward implements Layer.
func (a *AvgPool2d) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	n, h, w, c := x.Shape[0], x.Shape[1], x.Shape[2], x.Shape[3]
	a.inShape = x.Shape
	oh := (h-a.K)/a.S + 1
	ow := (w-a.K)/a.S + 1
	out := ensureBufZero(a.reuse, &a.outBuf, n, oh, ow, c)
	inv := 1 / float64(a.K*a.K)
	a.eachWindowPixel(oh, ow, func(o, px []float64) {
		for ch, v := range px {
			o[ch] += v
		}
	}, out.Data, x.Data)
	out.Scale(inv)
	return out
}

// Backward implements Layer.
func (a *AvgPool2d) Backward(gradOut *tensor.Tensor) *tensor.Tensor {
	oh, ow := gradOut.Shape[1], gradOut.Shape[2]
	dx := ensureBufZero(a.reuse, &a.dxBuf, a.inShape...)
	inv := 1 / float64(a.K*a.K)
	a.eachWindowPixel(oh, ow, func(o, px []float64) {
		for ch, g := range o {
			px[ch] += g * inv
		}
	}, gradOut.Data, dx.Data)
	return dx
}

// eachWindowPixel calls visit for every (output pixel, input pixel of its
// window) pair of the last forward's geometry, in output order then window
// order, passing each pixel's C channel values.
func (a *AvgPool2d) eachWindowPixel(oh, ow int, visit func(o, px []float64), out, in []float64) {
	n, h, w, c := a.inShape[0], a.inShape[1], a.inShape[2], a.inShape[3]
	for img := 0; img < n; img++ {
		for oy := 0; oy < oh; oy++ {
			for ox := 0; ox < ow; ox++ {
				o := out[((img*oh+oy)*ow+ox)*c:][:c]
				for ky := 0; ky < a.K; ky++ {
					for kx := 0; kx < a.K; kx++ {
						visit(o, in[((img*h+oy*a.S+ky)*w+ox*a.S+kx)*c:][:c])
					}
				}
			}
		}
	}
}

// Params implements Layer.
func (a *AvgPool2d) Params() []*Param { return nil }

// Name implements Layer.
func (a *AvgPool2d) Name() string { return a.name }

// Dropout zeroes each element independently with probability P during
// training and scales survivors by 1/(1−P) (inverted dropout), so
// evaluation is the identity.
type Dropout struct {
	name string
	P    float64
	rng  *rand.Rand
	mask []bool

	reuse  bool
	outBuf *tensor.Tensor
	dxBuf  *tensor.Tensor
}

// NewDropout constructs a dropout layer with drop probability p.
func NewDropout(name string, p float64, rng *rand.Rand) *Dropout {
	return &Dropout{name: name, P: p, rng: rng}
}

// SetBufferReuse implements BufferReuser.
func (d *Dropout) SetBufferReuse(on bool) { d.reuse = on }

// Forward implements Layer.
func (d *Dropout) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	if !train || d.P <= 0 {
		d.mask = nil
		return x
	}
	out := ensureBufZero(d.reuse, &d.outBuf, x.Shape...)
	if cap(d.mask) < x.Len() {
		d.mask = make([]bool, x.Len())
	}
	d.mask = d.mask[:x.Len()]
	scale := 1 / (1 - d.P)
	for i, v := range x.Data {
		if d.rng.Float64() < d.P {
			d.mask[i] = false
		} else {
			d.mask[i] = true
			out.Data[i] = v * scale
		}
	}
	return out
}

// Backward implements Layer.
func (d *Dropout) Backward(gradOut *tensor.Tensor) *tensor.Tensor {
	if d.mask == nil {
		return gradOut
	}
	dx := ensureBufZero(d.reuse, &d.dxBuf, gradOut.Shape...)
	scale := 1 / (1 - d.P)
	for i, v := range gradOut.Data {
		if d.mask[i] {
			dx.Data[i] = v * scale
		}
	}
	return dx
}

// Params implements Layer.
func (d *Dropout) Params() []*Param { return nil }

// Name implements Layer.
func (d *Dropout) Name() string { return d.name }
