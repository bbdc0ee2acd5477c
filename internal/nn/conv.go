package nn

import (
	"fmt"
	"math/rand"

	"repro/internal/tensor"
)

// Conv2D is a 2-D convolution over channels-last [N, H, W, C] inputs
// computed as a GEMM over the patch matrix, as the paper's PyTorch substrate
// does: the affine core applied to the patch matrix [N·outH·outW,
// kh·kw·inC], which the products read through the input image and no buffer
// holds (see convCore), whose product is the [N, outH, outW, outC] output.
// Weight has shape [outC, kh·kw·inC], its columns in the patch order
// (ky, kx, c); bias (optional) has shape [outC].
//
// As a KFACCapturable, the captured activation is the input image
// [N, H, W, C], whose patch matrix under Window — each row one
// receptive-field sample — is the activation sample matrix: that is why the
// A factor of a conv layer has dimension kh·kw·inC (+1 with bias), its rows
// in the same (ky, kx, c) order. The captured output gradient is
// [N·outH·outW, outC].
type Conv2D struct {
	affineLayer
	InC, OutC   int
	KH, KW      int
	Stride, Pad int
	// SkipInputGrad marks a layer whose input is the network's data, whose
	// gradient nothing reads: Backward forms the parameter gradients (and
	// the K-FAC capture) and returns nil without folding dX. A network's
	// builder sets it on its stem, the first layer, whose nil gradient is
	// the last one Backward hands on.
	SkipInputGrad bool

	inShape    []int // [N, H, W, C] of the last forward
	outH, outW int
	// borrowInput: the input is a layer's output, kept by its owner past
	// this layer's use of it, so a float64 capture borrows it (SetCapture).
	borrowInput bool
}

// NewConv2D constructs a convolution layer with He initialization
// (fan-in = inC·kh·kw). The values are drawn in (outC, c, ky, kx) order —
// the order a channels-first weight is stored in — and each is stored at its
// channels-last column, so a seed names the same filters in either layout.
func NewConv2D(name string, inC, outC, k, stride, pad int, bias bool, rng *rand.Rand) *Conv2D {
	drawn := tensor.New(outC*inC, k*k)
	heInit(rng, drawn, inC*k*k)
	w := tensor.New(outC, inC*k*k)
	for i, v := range drawn.Data {
		oc, c, kk := i/(inC*k*k), i/(k*k)%inC, i%(k*k)
		w.Data[(oc*k*k+kk)*inC+c] = v
	}
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
	n, h, w, ch := x.Shape[0], x.Shape[1], x.Shape[2], x.Shape[3]
	if ch != c.InC {
		panic("nn: Conv2D channel mismatch")
	}
	oh, ow, err := c.Window().Out(h, w)
	if err != nil {
		panic(fmt.Sprintf("nn: Conv2D %s: %v", c.name, err))
	}
	c.inShape = append(c.inShape[:0], n, h, w, ch)
	c.batch = n
	c.outH, c.outW = oh, ow
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

// SetCapture implements KFACCapturable. A capture turned on here copies the
// input image; SetCapture over the layer tree lets it borrow the image where
// the image is another layer's output.
func (c *Conv2D) SetCapture(on bool) {
	c.capture = on
	c.borrowInput = false
}

// Window implements KFACCapturable: the layer's kernel geometry.
func (c *Conv2D) Window() tensor.Window {
	return tensor.Window{KH: c.KH, KW: c.KW, Stride: c.Stride, Pad: c.Pad}
}

// SpatialSize implements KFACCapturable.
func (c *Conv2D) SpatialSize() int { return c.outH * c.outW }

var (
	_ KFACCapturable = (*Conv2D)(nil)
	_ F32Computer    = (*Conv2D)(nil)
	_ BufferReuser   = (*Conv2D)(nil)
)
