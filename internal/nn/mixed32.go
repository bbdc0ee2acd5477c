package nn

import "repro/internal/tensor"

// Mixed-precision compute path for the GEMM-heavy layers (Linear, Conv2D).
//
// With SetComputeF32 enabled a layer narrows its inputs and weights to
// float32 once per pass and runs its matrix products through the float32
// entry points of the GEMM (tensor.MatMul*Into32), which run the float64
// FMA chain on the float32 operands and round the result once — see
// internal/tensor/gemm.go. Everything crossing the layer boundary stays
// float64: Forward still returns a float64 tensor, Backward still consumes
// and produces float64 gradients, and parameter gradients accumulate in
// float64 (via the widening tensor.FoldAcc32), so optimizers, communication,
// and checkpoints are untouched ("convert at the boundary",
// docs/ARCHITECTURE.md). The cheap pointwise layers (ReLU, BatchNorm,
// pooling) stay float64 — they are a vanishing share of step time and
// BatchNorm's running statistics benefit from the extra precision.

// F32Computer is implemented by layers that can route their compute through
// the float32 kernel path. Like buffer reuse, the toggle changes arithmetic
// precision of the internal products only — layer interfaces keep float64
// tensors — but unlike reuse it does change result bits; the trainer
// enables it only when the session's KFAC precision is F32.
type F32Computer interface {
	Layer
	// SetComputeF32 enables or disables the float32 compute path.
	SetComputeF32(on bool)
}

// SetComputeF32 walks a layer tree and toggles the float32 compute path on
// every layer that supports it (see F32Computer).
func SetComputeF32(root Layer, on bool) {
	var walk func(l Layer)
	walk = func(l Layer) {
		switch v := l.(type) {
		case *Sequential:
			for _, c := range v.Layers {
				walk(c)
			}
		case *Residual:
			walk(v.Body)
			if v.Shortcut != nil {
				walk(v.Shortcut)
			}
		default:
			if fc, ok := l.(F32Computer); ok {
				fc.SetComputeF32(on)
			}
		}
	}
	walk(root)
}

// KFACCapturable32 extends KFACCapturable with direct access to the float32
// capture buffers a mixed-precision layer already holds, so the K-FAC
// covariance path can consume them without a float64 round trip. Both
// accessors return nil when the float32 compute path is off (callers fall
// back to narrowing the float64 captures).
type KFACCapturable32 interface {
	KFACCapturable
	// CapturedActivation32 is the float32 twin of CapturedActivation.
	CapturedActivation32() *tensor.T32
	// CapturedOutputGrad32 is the float32 twin of CapturedOutputGrad.
	CapturedOutputGrad32() *tensor.T32
}

// ensureField32 returns a float32 buffer of the given shape stored in *buf:
// under reuse it recycles (*buf)'s storage in place; otherwise it allocates
// fresh storage (still assigned to *buf — unlike the float64 ensureBuf,
// mixed-precision buffers are always fields, because the backward pass and
// the capture accessors need the forward pass's exact buffers).
func ensureField32(reuse bool, buf **tensor.T32, shape ...int) *tensor.T32 {
	if !reuse {
		*buf = nil
	}
	return tensor.Ensure32(buf, shape...)
}

// --- Linear float32 path -------------------------------------------------

// linearF32 carries Linear's mixed-precision buffers, allocated only when
// the path is enabled.
type linearF32 struct {
	x, w, y  *tensor.T32    // narrowed input, narrowed weight, forward product
	g, dw    *tensor.T32    // narrowed output grad, weight-gradient product
	dx       *tensor.T32    // input-gradient product
	actWide  *tensor.Tensor // lazy float64 view for CapturedActivation
	gradWide *tensor.Tensor // lazy float64 view for CapturedOutputGrad
}

// forward32 is Linear.Forward on the float32 kernel path.
func (l *Linear) forward32(x *tensor.Tensor, train bool) *tensor.Tensor {
	f := l.f32
	l.x = x
	l.batch = x.Rows()
	n := x.Rows()
	x32 := ensureField32(l.reuse, &f.x, n, l.In)
	x32.NarrowFrom(x)
	w32 := ensureField32(l.reuse, &f.w, l.Out, l.In)
	w32.NarrowFrom(l.W.Value)
	y32 := ensureField32(l.reuse, &f.y, n, l.Out)
	tensor.MatMulT2Into32(y32, x32, w32)
	if l.B != nil {
		for i := 0; i < n; i++ {
			row := y32.Data[i*l.Out : (i+1)*l.Out]
			for j := 0; j < l.Out; j++ {
				row[j] += float32(l.B.Value.Data[j])
			}
		}
	}
	y := ensureBuf(l.reuse, &l.yBuf, n, l.Out)
	y32.WidenInto(y)
	return y
}

// backward32 is Linear.Backward on the float32 kernel path. Parameter
// gradients accumulate in float64 (FoldAcc32), so repeated micro-batch
// accumulation does not compound float32 round-off.
func (l *Linear) backward32(gradOut *tensor.Tensor) *tensor.Tensor {
	f := l.f32
	n := gradOut.Rows()
	g32 := ensureField32(l.reuse, &f.g, n, l.Out)
	g32.NarrowFrom(gradOut)
	// dW = gradOutᵀ × x ([out, in]), folded into the float64 accumulator.
	dw32 := ensureField32(l.reuse, &f.dw, l.Out, l.In)
	tensor.MatMulT1Into32(dw32, g32, f.x)
	tensor.FoldAcc32(l.W.Grad.Data, dw32.Data)
	if l.B != nil {
		for i := 0; i < n; i++ {
			row := g32.Data[i*l.Out : (i+1)*l.Out]
			for j := 0; j < l.Out; j++ {
				l.B.Grad.Data[j] += float64(row[j])
			}
		}
	}
	// dX = gradOut × W ([N, in]), widened at the boundary.
	dx32 := ensureField32(l.reuse, &f.dx, n, l.In)
	tensor.MatMulInto32(dx32, g32, f.w)
	dx := ensureBuf(l.reuse, &l.dxBuf, n, l.In)
	dx32.WidenInto(dx)
	return dx
}

// SetComputeF32 implements F32Computer.
func (l *Linear) SetComputeF32(on bool) {
	if on && l.f32 == nil {
		l.f32 = &linearF32{}
	}
	if !on {
		l.f32 = nil
	}
}

// CapturedActivation32 implements KFACCapturable32: the narrowed input of
// the last float32 forward pass (valid until the next forward).
func (l *Linear) CapturedActivation32() *tensor.T32 {
	if l.f32 == nil || !l.capture {
		return nil
	}
	return l.f32.x
}

// CapturedOutputGrad32 implements KFACCapturable32.
func (l *Linear) CapturedOutputGrad32() *tensor.T32 {
	if l.f32 == nil || !l.capture {
		return nil
	}
	return l.f32.g
}

var _ F32Computer = (*Linear)(nil)
var _ KFACCapturable32 = (*Linear)(nil)

// --- Conv2D float32 path -------------------------------------------------

// convF32 carries Conv2D's mixed-precision buffers.
type convF32 struct {
	x, cols, w *tensor.T32    // narrowed input, im2col patches, narrowed weight
	outMat     *tensor.T32    // forward GEMM product [n·oh·ow, outC]
	gradMat    *tensor.T32    // narrowed+transposed output grad
	dw, dCols  *tensor.T32    // weight-gradient and column-space products
	actWide    *tensor.Tensor // lazy float64 view for CapturedActivation
	gradWide   *tensor.Tensor // lazy float64 view for CapturedOutputGrad
}

// forward32 is Conv2D.Forward on the float32 kernel path: narrow once,
// im2col and GEMM in float32, widen the NCHW output at the boundary.
func (c *Conv2D) forward32(x *tensor.Tensor, n, h, w int) *tensor.Tensor {
	f := c.f32
	rows := n * c.outH * c.outW
	ckk := c.InC * c.KH * c.KW
	x32 := ensureField32(c.reuse, &f.x, n, c.InC, h, w)
	x32.NarrowFrom(x)
	cols32 := ensureField32(c.reuse, &f.cols, rows, ckk)
	tensor.Im2ColInto32(cols32, x32, c.KH, c.KW, c.Stride, c.Pad)
	w32 := ensureField32(c.reuse, &f.w, c.OutC, ckk)
	w32.NarrowFrom(c.W.Value)
	outMat := ensureField32(c.reuse, &f.outMat, rows, c.OutC)
	tensor.MatMulT2Into32(outMat, cols32, w32)
	if c.B != nil {
		for i := 0; i < rows; i++ {
			row := outMat.Data[i*c.OutC : (i+1)*c.OutC]
			for j := 0; j < c.OutC; j++ {
				row[j] += float32(c.B.Value.Data[j])
			}
		}
	}
	out := ensureBuf(c.reuse, &c.outBuf, n, c.OutC, c.outH, c.outW)
	matToNCHW(out.Data, outMat.Data, n, c.OutC, c.outH, c.outW)
	return out
}

// backward32 is Conv2D.Backward on the float32 kernel path. The weight
// gradient folds into the float64 accumulator; the input gradient widens
// inside the col2im scatter (tensor.Col2ImInto32), where overlapping
// windows sum.
func (c *Conv2D) backward32(gradOut *tensor.Tensor) *tensor.Tensor {
	f := c.f32
	n := c.inShape[0]
	rows := n * c.outH * c.outW
	ckk := c.InC * c.KH * c.KW
	gradMat := ensureField32(c.reuse, &f.gradMat, rows, c.OutC)
	nchwToMat(gradMat.Data, gradOut.Data, n, c.OutC, c.outH, c.outW)
	// dW = gradMatᵀ × cols ([outC, ckk]), folded into float64.
	dw32 := ensureField32(c.reuse, &f.dw, c.OutC, ckk)
	tensor.MatMulT1Into32(dw32, gradMat, f.cols)
	tensor.FoldAcc32(c.W.Grad.Data, dw32.Data)
	if c.B != nil {
		for i := 0; i < rows; i++ {
			row := gradMat.Data[i*c.OutC : (i+1)*c.OutC]
			for j := 0; j < c.OutC; j++ {
				c.B.Grad.Data[j] += float64(row[j])
			}
		}
	}
	// dCols = gradMat × W; dX = col2im(dCols) widened into float64.
	dCols := ensureField32(c.reuse, &f.dCols, rows, ckk)
	tensor.MatMulInto32(dCols, gradMat, f.w)
	dx := ensureBuf(c.reuse, &c.dxBuf, n, c.InC, c.inShape[2], c.inShape[3])
	tensor.Col2ImInto32(dx, dCols, c.KH, c.KW, c.Stride, c.Pad)
	return dx
}

// SetComputeF32 implements F32Computer.
func (c *Conv2D) SetComputeF32(on bool) {
	if on && c.f32 == nil {
		c.f32 = &convF32{}
	}
	if !on {
		c.f32 = nil
	}
}

// CapturedActivation32 implements KFACCapturable32: the float32 im2col
// patch matrix of the last forward pass.
func (c *Conv2D) CapturedActivation32() *tensor.T32 {
	if c.f32 == nil || !c.capture {
		return nil
	}
	return c.f32.cols
}

// CapturedOutputGrad32 implements KFACCapturable32.
func (c *Conv2D) CapturedOutputGrad32() *tensor.T32 {
	if c.f32 == nil || !c.capture {
		return nil
	}
	return c.f32.gradMat
}

var _ F32Computer = (*Conv2D)(nil)
var _ KFACCapturable32 = (*Conv2D)(nil)

// widenCapture lazily materializes a float64 view of a float32 capture
// buffer for KFACCapturable callers that predate the mixed path.
func widenCapture(dst **tensor.Tensor, src *tensor.T32) *tensor.Tensor {
	if src == nil {
		return nil
	}
	d := tensor.Ensure(dst, src.Shape...)
	src.WidenInto(d)
	return d
}
