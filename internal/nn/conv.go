package nn

import (
	"math/rand"

	"repro/internal/tensor"
)

// Conv2D is a 2-D convolution over [N, C, H, W] inputs implemented as
// im2col + GEMM, the same lowering the paper's PyTorch substrate uses.
// Weight has shape [outC, inC·kh·kw]; bias (optional) has shape [outC].
//
// As a KFACCapturable, the captured activation is the im2col patch matrix
// [N·outH·outW, inC·kh·kw] — each row is one receptive-field sample, which
// is why the A factor of a conv layer has dimension inC·kh·kw (+1 with
// bias) — and the captured output gradient is [N·outH·outW, outC].
type Conv2D struct {
	name         string
	InC, OutC    int
	KH, KW       int
	Stride, Pad  int
	W            *Param
	B            *Param // nil when bias disabled
	capture      bool
	cols         *tensor.Tensor // cached im2col of last input
	inShape      []int
	outH, outW   int
	batch        int
	gradCap      *tensor.Tensor
	actCapShared bool // capture shares cols (no clone needed: cols is fresh per forward)

	reuse      bool           // recycle the buffers below across steps (BufferReuser)
	outMatBuf  *tensor.Tensor // forward GEMM output [n·oh·ow, outC]
	outBuf     *tensor.Tensor // forward NCHW output
	gradMatBuf *tensor.Tensor // backward layout transform of gradOut
	dwBuf      *tensor.Tensor // weight-gradient scratch
	dColsBuf   *tensor.Tensor // backward column-space gradient
	dxBuf      *tensor.Tensor // input gradient

	f32 *convF32 // non-nil when the float32 compute path is on (F32Computer)
}

// NewConv2D constructs a convolution layer with He initialization
// (fan-in = inC·kh·kw).
func NewConv2D(name string, inC, outC, k, stride, pad int, bias bool, rng *rand.Rand) *Conv2D {
	w := tensor.New(outC, inC*k*k)
	heInit(rng, w, inC*k*k)
	c := &Conv2D{
		name: name, InC: inC, OutC: outC, KH: k, KW: k,
		Stride: stride, Pad: pad,
		W: NewParam(name+".weight", w),
	}
	if bias {
		c.B = NewParam(name+".bias", tensor.New(outC))
		c.B.NoWeightDecay = true
	}
	return c
}

// Forward implements Layer.
func (c *Conv2D) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	n, ch, h, w := x.Shape[0], x.Shape[1], x.Shape[2], x.Shape[3]
	if ch != c.InC {
		panic("nn: Conv2D channel mismatch")
	}
	if cap(c.inShape) >= 4 {
		c.inShape = c.inShape[:4]
		c.inShape[0], c.inShape[1], c.inShape[2], c.inShape[3] = n, ch, h, w
	} else {
		c.inShape = []int{n, ch, h, w}
	}
	c.batch = n
	c.outH = tensor.ConvOutSize(h, c.KH, c.Stride, c.Pad)
	c.outW = tensor.ConvOutSize(w, c.KW, c.Stride, c.Pad)
	if c.f32 != nil {
		return c.forward32(x, n, h, w)
	}
	rows := n * c.outH * c.outW
	if c.reuse {
		tensor.Ensure(&c.cols, rows, c.InC*c.KH*c.KW)
		tensor.Im2ColInto(c.cols, x, c.KH, c.KW, c.Stride, c.Pad)
	} else {
		c.cols = tensor.Im2Col(x, c.KH, c.KW, c.Stride, c.Pad) // [n·oh·ow, ckk]
	}
	// out matrix [n·oh·ow, outC] = cols × Wᵀ
	outMat := ensureBuf(c.reuse, &c.outMatBuf, rows, c.OutC)
	tensor.MatMulT2Into(outMat, c.cols, c.W.Value)
	if c.B != nil {
		rows, oc := outMat.Rows(), outMat.Cols()
		for i := 0; i < rows; i++ {
			row := outMat.Data[i*oc : (i+1)*oc]
			for j := 0; j < oc; j++ {
				row[j] += c.B.Value.Data[j]
			}
		}
	}
	out := ensureBuf(c.reuse, &c.outBuf, n, c.OutC, c.outH, c.outW)
	matToNCHW(out.Data, outMat.Data, n, c.OutC, c.outH, c.outW)
	return out
}

// Backward implements Layer.
func (c *Conv2D) Backward(gradOut *tensor.Tensor) *tensor.Tensor {
	if c.f32 != nil {
		return c.backward32(gradOut)
	}
	n := c.inShape[0]
	gradMat := ensureBuf(c.reuse, &c.gradMatBuf, n*c.outH*c.outW, c.OutC)
	nchwToMat(gradMat.Data, gradOut.Data, n, c.OutC, c.outH, c.outW) // [n·oh·ow, outC]
	if c.capture {
		c.gradCap = gradMat
	}
	// dW = gradMatᵀ × cols ([outC, ckk])
	dW := ensureBuf(c.reuse, &c.dwBuf, c.OutC, c.InC*c.KH*c.KW)
	tensor.MatMulT1Into(dW, gradMat, c.cols)
	c.W.Grad.Add(dW)
	if c.B != nil {
		rows, oc := gradMat.Rows(), gradMat.Cols()
		for i := 0; i < rows; i++ {
			row := gradMat.Data[i*oc : (i+1)*oc]
			for j := 0; j < oc; j++ {
				c.B.Grad.Data[j] += row[j]
			}
		}
	}
	// dCols = gradMat × W ([n·oh·ow, ckk]); dX = col2im(dCols)
	dCols := ensureBuf(c.reuse, &c.dColsBuf, n*c.outH*c.outW, c.InC*c.KH*c.KW)
	tensor.MatMulInto(dCols, gradMat, c.W.Value)
	dx := ensureBuf(c.reuse, &c.dxBuf, n, c.InC, c.inShape[2], c.inShape[3])
	tensor.Col2ImInto(dx, dCols, c.KH, c.KW, c.Stride, c.Pad)
	return dx
}

// SetBufferReuse implements BufferReuser.
func (c *Conv2D) SetBufferReuse(on bool) { c.reuse = on }

// matToNCHW reshapes a [n·oh·ow, outC] matrix (rows ordered image-major,
// then spatial) into the [n, outC, oh, ow] destination, fully overwriting
// it and converting to the destination's element type as it scatters.
func matToNCHW[D, S float32 | float64](out []D, m []S, n, oc, oh, ow int) {
	spatial := oh * ow
	for img := 0; img < n; img++ {
		for s := 0; s < spatial; s++ {
			src := m[(img*spatial+s)*oc:]
			for ch := 0; ch < oc; ch++ {
				out[((img*oc+ch)*spatial + s)] = D(src[ch])
			}
		}
	}
}

// nchwToMat is the inverse layout transform of matToNCHW, writing into the
// [n·oh·ow, oc] destination m.
func nchwToMat[D, S float32 | float64](m []D, t []S, n, oc, oh, ow int) {
	spatial := oh * ow
	for img := 0; img < n; img++ {
		for ch := 0; ch < oc; ch++ {
			base := (img*oc + ch) * spatial
			for s := 0; s < spatial; s++ {
				m[(img*spatial+s)*oc+ch] = D(t[base+s])
			}
		}
	}
}

// Params implements Layer.
func (c *Conv2D) Params() []*Param {
	if c.B != nil {
		return []*Param{c.W, c.B}
	}
	return []*Param{c.W}
}

// Name implements Layer.
func (c *Conv2D) Name() string { return c.name }

// SetCapture implements KFACCapturable.
func (c *Conv2D) SetCapture(on bool) {
	c.capture = on
	if !on {
		c.gradCap = nil
	}
}

// CapturedActivation implements KFACCapturable. The im2col matrix is
// rewritten by each forward pass (freshly allocated, or recycled in place
// under buffer reuse), so sharing it rather than cloning is safe for the
// within-step capture contract: K-FAC consumes it before the next forward.
func (c *Conv2D) CapturedActivation() *tensor.Tensor {
	if !c.capture {
		return nil
	}
	if c.f32 != nil {
		return widenCapture(&c.f32.actWide, c.CapturedActivation32())
	}
	return c.cols
}

// CapturedOutputGrad implements KFACCapturable.
func (c *Conv2D) CapturedOutputGrad() *tensor.Tensor {
	if c.f32 != nil {
		return widenCapture(&c.f32.gradWide, c.CapturedOutputGrad32())
	}
	return c.gradCap
}

// BatchSize implements KFACCapturable.
func (c *Conv2D) BatchSize() int { return c.batch }

// SpatialSize implements KFACCapturable.
func (c *Conv2D) SpatialSize() int { return c.outH * c.outW }

// HasBias implements KFACCapturable.
func (c *Conv2D) HasBias() bool { return c.B != nil }

// InDim implements KFACCapturable.
func (c *Conv2D) InDim() int { return c.InC * c.KH * c.KW }

// OutDim implements KFACCapturable.
func (c *Conv2D) OutDim() int { return c.OutC }

// CombinedGrad implements KFACCapturable.
func (c *Conv2D) CombinedGrad() *tensor.Tensor {
	in := c.InDim()
	var g *tensor.Tensor
	if c.B == nil {
		g = tensor.New(c.OutC, in)
	} else {
		g = tensor.New(c.OutC, in+1)
	}
	c.CombinedGradInto(g)
	return g
}

// CombinedGradInto implements KFACCapturable.
func (c *Conv2D) CombinedGradInto(g *tensor.Tensor) {
	in := c.InDim()
	if c.B == nil {
		g.CopyFrom(c.W.Grad)
		return
	}
	for i := 0; i < c.OutC; i++ {
		copy(g.Data[i*(in+1):i*(in+1)+in], c.W.Grad.Data[i*in:(i+1)*in])
		g.Data[i*(in+1)+in] = c.B.Grad.Data[i]
	}
}

// SetCombinedGrad implements KFACCapturable.
func (c *Conv2D) SetCombinedGrad(g *tensor.Tensor) {
	in := c.InDim()
	if c.B == nil {
		c.W.Grad.CopyFrom(g)
		return
	}
	for i := 0; i < c.OutC; i++ {
		copy(c.W.Grad.Data[i*in:(i+1)*in], g.Data[i*(in+1):i*(in+1)+in])
		c.B.Grad.Data[i] = g.Data[i*(in+1)+in]
	}
}

var _ KFACCapturable = (*Conv2D)(nil)
