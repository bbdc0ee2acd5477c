package nn

import (
	"fmt"

	"repro/internal/tensor"
)

// ReLU is the rectified linear activation, applied elementwise.
type ReLU struct {
	name string
	out  *tensor.Tensor // the last output, which Backward masks by

	reuse bool
	dxBuf *tensor.Tensor
}

// NewReLU constructs a ReLU layer.
func NewReLU(name string) *ReLU { return &ReLU{name: name} }

// SetBufferReuse implements BufferReuser.
func (r *ReLU) SetBufferReuse(on bool) { r.reuse = on }

// Forward implements Layer.
func (r *ReLU) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	r.out = ensureBuf(r.reuse, &r.out, x.Shape...)
	tensor.Rectify(r.out.Data, x.Data)
	return r.out
}

// Backward implements Layer.
func (r *ReLU) Backward(gradOut *tensor.Tensor) *tensor.Tensor {
	dx := ensureBuf(r.reuse, &r.dxBuf, gradOut.Shape...)
	tensor.RectifyGrad(dx.Data, gradOut.Data, r.out.Data)
	return dx
}

// Params implements Layer.
func (r *ReLU) Params() []*Param { return nil }

// Name implements Layer.
func (r *ReLU) Name() string { return r.name }

// MaxPool2d is max pooling over [N, H, W, C] with square window k,
// stride s, and no padding.
type MaxPool2d struct {
	name    string
	K, S    int
	argmax  []int
	inShape []int

	reuse  bool
	outBuf *tensor.Tensor
	dxBuf  *tensor.Tensor
}

// NewMaxPool2d constructs a max-pooling layer.
func NewMaxPool2d(name string, k, stride int) *MaxPool2d {
	return &MaxPool2d{name: name, K: k, S: stride}
}

// SetBufferReuse implements BufferReuser.
func (m *MaxPool2d) SetBufferReuse(on bool) { m.reuse = on }

// Forward implements Layer. Each output pixel starts as the window's first
// pixel and takes, channel by channel, every later one that is larger.
func (m *MaxPool2d) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	n, h, w, c := x.Shape[0], x.Shape[1], x.Shape[2], x.Shape[3]
	oh, ow, err := tensor.Window{KH: m.K, KW: m.K, Stride: m.S}.Out(h, w)
	if err != nil {
		panic(fmt.Sprintf("nn: MaxPool2d %s: %v", m.name, err))
	}
	m.inShape = x.Shape
	out := ensureBuf(m.reuse, &m.outBuf, n, oh, ow, c)
	if cap(m.argmax) < out.Len() {
		m.argmax = make([]int, out.Len())
	}
	m.argmax = m.argmax[:out.Len()]
	for img := 0; img < n; img++ {
		for oy := 0; oy < oh; oy++ {
			for ox := 0; ox < ow; ox++ {
				o := ((img*oh+oy)*ow + ox) * c
				best, arg := out.Data[o:o+c], m.argmax[o:o+c]
				for ky := 0; ky < m.K; ky++ {
					for kx := 0; kx < m.K; kx++ {
						base := ((img*h+oy*m.S+ky)*w + ox*m.S + kx) * c
						for ch, v := range x.Data[base : base+c] {
							if ky+kx == 0 || v > best[ch] {
								best[ch], arg[ch] = v, base+ch
							}
						}
					}
				}
			}
		}
	}
	return out
}

// Backward implements Layer.
func (m *MaxPool2d) Backward(gradOut *tensor.Tensor) *tensor.Tensor {
	dx := ensureBufZero(m.reuse, &m.dxBuf, m.inShape...)
	for i, v := range gradOut.Data {
		dx.Data[m.argmax[i]] += v
	}
	return dx
}

// Params implements Layer.
func (m *MaxPool2d) Params() []*Param { return nil }

// Name implements Layer.
func (m *MaxPool2d) Name() string { return m.name }

// GlobalAvgPool reduces [N, H, W, C] to [N, C] by averaging each channel's
// spatial extent — the head pooling of ResNet before the classifier.
type GlobalAvgPool struct {
	name    string
	inShape []int

	reuse  bool
	outBuf *tensor.Tensor
	dxBuf  *tensor.Tensor
}

// NewGlobalAvgPool constructs a global average pooling layer.
func NewGlobalAvgPool(name string) *GlobalAvgPool { return &GlobalAvgPool{name: name} }

// SetBufferReuse implements BufferReuser.
func (g *GlobalAvgPool) SetBufferReuse(on bool) { g.reuse = on }

// Forward implements Layer.
func (g *GlobalAvgPool) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	n, spatial, c := x.Shape[0], x.Shape[1]*x.Shape[2], x.Shape[3]
	g.inShape = x.Shape
	out := ensureBufZero(g.reuse, &g.outBuf, n, c)
	for img := 0; img < n; img++ {
		mean := out.Data[img*c : (img+1)*c]
		for s := 0; s < spatial; s++ {
			for ch, v := range x.Data[(img*spatial+s)*c:][:c] {
				mean[ch] += v
			}
		}
		for ch := range mean {
			mean[ch] /= float64(spatial)
		}
	}
	return out
}

// Backward implements Layer.
func (g *GlobalAvgPool) Backward(gradOut *tensor.Tensor) *tensor.Tensor {
	n, spatial, c := g.inShape[0], g.inShape[1]*g.inShape[2], g.inShape[3]
	inv := 1 / float64(spatial)
	dx := ensureBuf(g.reuse, &g.dxBuf, g.inShape...)
	for img := 0; img < n; img++ {
		first := dx.Data[img*spatial*c:][:c]
		for ch, v := range gradOut.Data[img*c : (img+1)*c] {
			first[ch] = v * inv
		}
		for s := 1; s < spatial; s++ {
			copy(dx.Data[(img*spatial+s)*c:][:c], first)
		}
	}
	return dx
}

// Params implements Layer.
func (g *GlobalAvgPool) Params() []*Param { return nil }

// Name implements Layer.
func (g *GlobalAvgPool) Name() string { return g.name }

// Flatten reshapes [N, ...] to [N, rest] — an [N, H, W, C] activation to
// features ordered (y, x, c). Needed between conv stacks and linear
// classifiers when global pooling is not used.
type Flatten struct {
	name    string
	inShape []int
}

// NewFlatten constructs a flatten layer.
func NewFlatten(name string) *Flatten { return &Flatten{name: name} }

// Forward implements Layer.
func (f *Flatten) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	f.inShape = x.Shape
	n := x.Shape[0]
	rest := x.Len() / n
	return x.Reshape(n, rest)
}

// Backward implements Layer.
func (f *Flatten) Backward(gradOut *tensor.Tensor) *tensor.Tensor {
	return gradOut.Reshape(f.inShape...)
}

// Params implements Layer.
func (f *Flatten) Params() []*Param { return nil }

// Name implements Layer.
func (f *Flatten) Name() string { return f.name }
