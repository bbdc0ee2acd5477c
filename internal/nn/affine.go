package nn

import "repro/internal/tensor"

// The affine core: the arithmetic of the two GEMM-heavy layers, written once
// over the element type.
//
// A Linear is the affine map Y = X·Wᵀ + b; a Conv2D is the same map applied
// to the patch matrix of its input image, which the products read through
// the image (tensor.Patches) and no buffer holds. Both delegate forward and
// backward to an affine[E] — Linear directly, Conv2D with the input
// gradient folded onto the image (convCore) — and SetComputeF32 picks E
// once per layer: float64 (the default), or float32 for the mixed-precision
// path, whose products run the float64 FMA chain on float32 operands and
// round once (internal/tensor/gemm.go). Nothing else asks which it is: a
// value crosses the precision boundary through tensor.Cast, which hands back
// the float64 tensor itself at float64 and converts into a reused buffer at
// float32 ("convert at the boundary", docs/ARCHITECTURE.md).
//
// Whatever E is, everything crossing the layer boundary is float64: Forward
// returns a float64 tensor, Backward consumes and produces float64
// gradients, and parameter gradients accumulate in float64, so optimizers,
// communication and checkpoints never see E. The cheap pointwise layers
// (ReLU, BatchNorm, pooling) are float64 only — they are a vanishing share
// of step time and BatchNorm's running statistics benefit from the width.

// affineLayer is what Linear and Conv2D share: the parameters, the K-FAC and
// buffer-reuse switches, and the core that computes at the chosen element
// type. Its methods are most of both layers' KFACCapturable surface.
type affineLayer struct {
	name string
	W    *Param // [out, in]
	B    *Param // [out]; nil when bias is disabled

	capture bool
	reuse   bool // recycle the core's buffers across steps (BufferReuser)
	batch   int
	core    affineCore
	// gradHook, when set, is called once Backward has accumulated the
	// parameter gradients, before the input gradient (SetGradHook).
	gradHook func()
}

// affineCore is a layer's element-typed half: linearCore[E] or convCore[E].
type affineCore interface {
	forward(x *tensor.Tensor, train bool) *tensor.Tensor
	backward(gradOut *tensor.Tensor) *tensor.Tensor
	// captured and captured32 return an operand K-FAC captures — the X of
	// the last forward, or with grad the G of the last backward — at float64
	// and at float32: the core's own buffer at its own element type, a
	// converted copy at the other.
	captured(grad bool) *tensor.Tensor
	captured32(grad bool) *tensor.T32
}

// F32Computer is implemented by layers that can run their products in
// float32. Like buffer reuse, the toggle leaves layer interfaces float64,
// but unlike reuse it changes result bits; the trainer enables it only when
// the session's K-FAC precision is F32.
type F32Computer interface {
	Layer
	// SetComputeF32 selects the float32 (on) or float64 (off) core. Buffers
	// and captures of the previous core are dropped.
	SetComputeF32(on bool)
}

// SetComputeF32 selects the compute element type of every layer under root
// that supports it (see F32Computer).
func SetComputeF32(root Layer, on bool) {
	walk(root, func(l Layer) {
		if fc, ok := l.(F32Computer); ok {
			fc.SetComputeF32(on)
		}
	})
}

// affine is the core proper: Y = X·Wᵀ + b forward; dW = GᵀX and db folded
// into the float64 Param.Grad accumulators backward. X is the operand x
// itself or, under a window (Conv2D), x's patch matrix, which the products
// read through x. Operands and products are E; it keeps the operands of the
// last pass, which are what backward multiplies by and what K-FAC captures.
type affine[E tensor.Elem] struct {
	l   *affineLayer
	win tensor.Window // Conv2D's kernel geometry; zero for Linear, whose X is x

	x, g, w *tensor.Dense[E] // x and W of the last forward, G of the last backward
	wBuf    *tensor.Dense[E] // w's storage where W.Value itself cannot serve
	y, dw   *tensor.Dense[E] // products

	// The captures on the far side of the precision boundary.
	act64, grad64 *tensor.Tensor
	act32, grad32 *tensor.T32
}

// forward returns Y = X·Wᵀ + b. x must stay valid and unmodified until the
// layer's next Forward.
func (a *affine[E]) forward(x *tensor.Dense[E]) *tensor.Dense[E] {
	l := a.l
	a.x = x
	a.w = castBuf(l.reuse, &a.wBuf, l.W.Value)
	var y *tensor.Dense[E]
	if a.win == (tensor.Window{}) {
		y = ensureBuf(l.reuse, &a.y, x.Rows(), a.w.Rows())
		tensor.MatMulT2Into(y, x, a.w)
	} else {
		p := a.patches()
		y = ensureBuf(l.reuse, &a.y, p.Rows(), a.w.Rows())
		tensor.MatMulT2PatchesInto(y, p, a.w)
	}
	if l.B != nil {
		bias, out := l.B.Value.Data, y.Cols()
		for i := 0; i < y.Rows(); i++ {
			row := y.Data[i*out : (i+1)*out]
			for j := range row {
				row[j] += E(bias[j])
			}
		}
	}
	return y
}

// patches is X under a window: the patch matrix of the image x.
func (a *affine[E]) patches() tensor.Patches[E] {
	return tensor.Patches[E]{Image: a.x, Window: a.win}
}

// backward accumulates dW = GᵀX and db = Σᵢ G[i,:] into the parameter
// gradients and then calls the layer's gradient hook; the input gradient is
// the core's, formed after the hook returns. g must stay valid as x must.
func (a *affine[E]) backward(g *tensor.Dense[E]) {
	l := a.l
	a.g = g
	dw := ensureBuf(l.reuse, &a.dw, a.w.Rows(), a.w.Cols())
	if a.win == (tensor.Window{}) {
		tensor.MatMulT1Into(dw, g, a.x)
	} else {
		tensor.MatMulT1PatchesInto(dw, g, a.patches())
	}
	tensor.Accumulate(l.W.Grad, dw)
	if l.B != nil {
		out := g.Cols()
		for i := 0; i < g.Rows(); i++ {
			for j, v := range g.Data[i*out : (i+1)*out] {
				l.B.Grad.Data[j] += float64(v)
			}
		}
	}
	if l.gradHook != nil {
		l.gradHook()
	}
}

// operand brings a caller's float64 tensor in as an operand. For the
// arithmetic alone the core may borrow src, and at float64 Cast does; a
// capture that must outlive the caller's buffer asks, with keep, for a copy
// in the core's own *buf at either element type. Linear keeps every capture
// (its input may be the caller's). A Conv2D keeps its input image only where
// no layer before it owns it (KFACCapturable); its G capture at float64 is
// the incoming gradient itself, which the layer behind it keeps until its own
// next Backward.
func (a *affine[E]) operand(buf **tensor.Dense[E], src *tensor.Tensor, keep bool) *tensor.Dense[E] {
	if !keep {
		return castBuf(a.l.reuse, buf, src)
	}
	own := ensureBuf(a.l.reuse, buf, src.Shape...)
	tensor.Convert(own, src)
	return own
}

func (a *affine[E]) captured(grad bool) *tensor.Tensor {
	if grad {
		return castCapture(a.l, &a.grad64, a.g)
	}
	return castCapture(a.l, &a.act64, a.x)
}

func (a *affine[E]) captured32(grad bool) *tensor.T32 {
	if grad {
		return castCapture(a.l, &a.grad32, a.g)
	}
	return castCapture(a.l, &a.act32, a.x)
}

// castCapture returns the kept operand t at element type D, or nil when
// capture is off or the pass that produces t has not run.
func castCapture[D, S tensor.Elem](l *affineLayer, buf **tensor.Dense[D], t *tensor.Dense[S]) *tensor.Dense[D] {
	if !l.capture || t == nil {
		return nil
	}
	return tensor.Cast(buf, t)
}

// linearCore is Linear's core: the affine map with a cast on either side.
type linearCore[E tensor.Elem] struct {
	affine[E]
	xBuf, gBuf  *tensor.Dense[E] // own copies of x and gradOut (see operand)
	dx          *tensor.Dense[E] // dX = G·W
	yOut, dxOut *tensor.Tensor   // products at float64 where the core's are not
}

func (c *linearCore[E]) forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	y := c.affine.forward(c.operand(&c.xBuf, x, train && c.l.capture))
	return castBuf(c.l.reuse, &c.yOut, y)
}

func (c *linearCore[E]) backward(gradOut *tensor.Tensor) *tensor.Tensor {
	g := c.operand(&c.gBuf, gradOut, c.l.capture)
	c.affine.backward(g)
	dx := ensureBuf(c.l.reuse, &c.dx, g.Rows(), c.w.Cols())
	tensor.MatMulInto(dx, g, c.w)
	return castBuf(c.l.reuse, &c.dxOut, dx)
}

// convCore is Conv2D's core: the affine map over the input image's patch
// matrix, read through the image, and the input gradient folded onto the
// image a block of images at a time (tensor.FoldMatMulInto), so that no
// [n·oh·ow, kh·kw·inC] buffer exists. Activations are channels-last, so the
// map's [n·oh·ow, outC] product is the layer's [n, oh, ow, outC] output and
// the incoming gradient is its G operand — both under another shape, neither
// copied. The input is cast to E once; the fold converts as it adds, so no
// separate pass crosses back to float64.
type convCore[E tensor.Elem] struct {
	affine[E]
	c *Conv2D

	xIn, gIn   *tensor.Dense[E] // input and gradOut at E where they cannot serve themselves
	out, dx    *tensor.Tensor   // the product at float64 where the core's is not; the input gradient
	outV, gInV *tensor.Tensor   // headers: the product as [n, oh, ow, outC], gradOut as a matrix
}

func (k *convCore[E]) forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	c, reuse := k.c, k.l.reuse
	k.win = c.Window()
	img := k.operand(&k.xIn, x, train && k.l.capture && !c.borrowInput)
	y := castBuf(reuse, &k.out, k.affine.forward(img))
	return viewBuf(reuse, &k.outV, y, c.inShape[0], c.outH, c.outW, c.OutC)
}

func (k *convCore[E]) backward(gradOut *tensor.Tensor) *tensor.Tensor {
	c, reuse := k.c, k.l.reuse
	g := castBuf(reuse, &k.gIn, viewBuf(reuse, &k.gInV, gradOut, gradOut.Len()/c.OutC, c.OutC))
	k.affine.backward(g)
	if c.SkipInputGrad {
		return nil
	}
	dx := ensureBuf(reuse, &k.dx, c.inShape...)
	tensor.FoldMatMulInto(dx, g, k.w, k.win)
	return dx
}

// --- what Linear and Conv2D inherit from affineLayer ----------------------

// Backward implements Layer.
func (l *affineLayer) Backward(gradOut *tensor.Tensor) *tensor.Tensor {
	return l.core.backward(gradOut)
}

// Params implements Layer.
func (l *affineLayer) Params() []*Param {
	if l.B != nil {
		return []*Param{l.W, l.B}
	}
	return []*Param{l.W}
}

// Name implements Layer.
func (l *affineLayer) Name() string { return l.name }

// SetBufferReuse implements BufferReuser.
func (l *affineLayer) SetBufferReuse(on bool) { l.reuse = on }

// SetCapture implements KFACCapturable.
func (l *affineLayer) SetCapture(on bool) { l.capture = on }

// SetGradHook implements KFACCapturable.
func (l *affineLayer) SetGradHook(fn func()) { l.gradHook = fn }

// CapturedActivation implements KFACCapturable.
func (l *affineLayer) CapturedActivation() *tensor.Tensor { return l.core.captured(false) }

// CapturedOutputGrad implements KFACCapturable.
func (l *affineLayer) CapturedOutputGrad() *tensor.Tensor { return l.core.captured(true) }

// CapturedActivation32 implements KFACCapturable.
func (l *affineLayer) CapturedActivation32() *tensor.T32 { return l.core.captured32(false) }

// CapturedOutputGrad32 implements KFACCapturable.
func (l *affineLayer) CapturedOutputGrad32() *tensor.T32 { return l.core.captured32(true) }

// Window implements KFACCapturable: the zero Window, for a layer whose
// activation capture is its sample matrix itself. Conv2D overrides it.
func (l *affineLayer) Window() tensor.Window { return tensor.Window{} }

// BatchSize implements KFACCapturable.
func (l *affineLayer) BatchSize() int { return l.batch }

// HasBias implements KFACCapturable.
func (l *affineLayer) HasBias() bool { return l.B != nil }

// InDim implements KFACCapturable.
func (l *affineLayer) InDim() int { return l.W.Value.Cols() }

// OutDim implements KFACCapturable.
func (l *affineLayer) OutDim() int { return l.W.Value.Rows() }

// CombinedGradInto implements KFACCapturable.
func (l *affineLayer) CombinedGradInto(g *tensor.Tensor) {
	if l.B == nil {
		g.CopyFrom(l.W.Grad)
		return
	}
	out, in := l.OutDim(), l.InDim()
	for i := 0; i < out; i++ {
		copy(g.Data[i*(in+1):i*(in+1)+in], l.W.Grad.Data[i*in:(i+1)*in])
		g.Data[i*(in+1)+in] = l.B.Grad.Data[i]
	}
}

// CombinedGradView implements KFACCapturable.
func (l *affineLayer) CombinedGradView() *tensor.Tensor {
	if l.B != nil {
		return nil
	}
	return l.W.Grad
}

// SetCombinedGrad implements KFACCapturable.
func (l *affineLayer) SetCombinedGrad(g *tensor.Tensor) {
	if l.B == nil {
		l.W.Grad.CopyFrom(g)
		return
	}
	out, in := l.OutDim(), l.InDim()
	for i := 0; i < out; i++ {
		copy(l.W.Grad.Data[i*in:(i+1)*in], g.Data[i*(in+1):i*(in+1)+in])
		l.B.Grad.Data[i] = g.Data[i*(in+1)+in]
	}
}
