package nn

import (
	"math/rand"

	"repro/internal/tensor"
)

// Conv2D is a 2-D convolution over [N, C, H, W] inputs implemented as
// im2col + GEMM, the same lowering the paper's PyTorch substrate uses: the
// affine core applied to the patch matrix (see convCore). Weight has shape
// [outC, inC·kh·kw]; bias (optional) has shape [outC].
//
// As a KFACCapturable, the captured activation is the im2col patch matrix
// [N·outH·outW, inC·kh·kw] — each row is one receptive-field sample, which
// is why the A factor of a conv layer has dimension inC·kh·kw (+1 with
// bias) — and the captured output gradient is [N·outH·outW, outC].
type Conv2D struct {
	affineLayer
	InC, OutC   int
	KH, KW      int
	Stride, Pad int

	inShape    []int // [N, C, H, W] of the last forward
	outH, outW int
}

// NewConv2D constructs a convolution layer with He initialization
// (fan-in = inC·kh·kw).
func NewConv2D(name string, inC, outC, k, stride, pad int, bias bool, rng *rand.Rand) *Conv2D {
	w := tensor.New(outC, inC*k*k)
	heInit(rng, w, inC*k*k)
	c := &Conv2D{InC: inC, OutC: outC, KH: k, KW: k, Stride: stride, Pad: pad}
	c.name, c.W = name, NewParam(name+".weight", w)
	if bias {
		c.B = NewParam(name+".bias", tensor.New(outC))
		c.B.NoWeightDecay = true
	}
	c.SetComputeF32(false)
	return c
}

// Forward implements Layer.
func (c *Conv2D) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	n, ch, h, w := x.Shape[0], x.Shape[1], x.Shape[2], x.Shape[3]
	if ch != c.InC {
		panic("nn: Conv2D channel mismatch")
	}
	c.inShape = append(c.inShape[:0], n, ch, h, w)
	c.batch = n
	c.outH = tensor.ConvOutSize(h, c.KH, c.Stride, c.Pad)
	c.outW = tensor.ConvOutSize(w, c.KW, c.Stride, c.Pad)
	return c.core.forward(x, train)
}

// SetComputeF32 implements F32Computer.
func (c *Conv2D) SetComputeF32(on bool) {
	if on {
		c.core = &convCore[float32]{affine: affine[float32]{l: &c.affineLayer}, c: c}
	} else {
		c.core = &convCore[float64]{affine: affine[float64]{l: &c.affineLayer}, c: c}
	}
}

// matToNCHW reshapes a [n·oh·ow, outC] matrix (rows ordered image-major,
// then spatial) into the [n, outC, oh, ow] destination, fully overwriting
// it and converting to the destination's element type as it scatters.
func matToNCHW[D, S tensor.Elem](out []D, m []S, n, oc, oh, ow int) {
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
func nchwToMat[D, S tensor.Elem](m []D, t []S, n, oc, oh, ow int) {
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

// SpatialSize implements KFACCapturable.
func (c *Conv2D) SpatialSize() int { return c.outH * c.outW }

var (
	_ KFACCapturable = (*Conv2D)(nil)
	_ F32Computer    = (*Conv2D)(nil)
	_ BufferReuser   = (*Conv2D)(nil)
)
