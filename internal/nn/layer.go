// Package nn implements the neural-network substrate the K-FAC
// preconditioner operates on: parameterized layers with explicit forward and
// backward passes (Linear, Conv2D via patch lowering, BatchNorm2d, ReLU,
// pooling) over channels-last [N, H, W, C] activations,
// residual blocks, sequential composition, and a cross-entropy loss.
//
// The package plays the role PyTorch's nn + autograd play in the paper. In
// particular it provides the capture hooks K-FAC needs (paper §IV-B): layers
// that satisfy KFACCapturable record, when capture is enabled, the layer
// input activations from the forward pass and the gradient with respect to
// the layer output from the backward pass — exactly what the paper's
// registered forward/backward hooks save on each worker.
package nn

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/tensor"
)

// Param is a trainable tensor with its gradient accumulator. Optimizers
// update Value from Grad; K-FAC rewrites Grad in place before the optimizer
// runs (the "preconditioner" contract from the paper's Listing 1).
type Param struct {
	Name  string
	Value *tensor.Tensor
	Grad  *tensor.Tensor
	// NoWeightDecay marks parameters (BatchNorm scales/biases, biases)
	// excluded from L2 regularization, matching common ResNet recipes.
	NoWeightDecay bool
}

// NewParam allocates a parameter with a zeroed gradient of the same shape.
func NewParam(name string, value *tensor.Tensor) *Param {
	return &Param{Name: name, Value: value, Grad: tensor.New(value.Shape...)}
}

// ZeroGrad clears the gradient accumulator.
func (p *Param) ZeroGrad() { p.Grad.Zero() }

// Layer is a differentiable module. Forward consumes the input and caches
// whatever the backward pass needs; Backward consumes dL/d(output) and
// returns dL/d(input), accumulating parameter gradients into Params.
type Layer interface {
	// Forward runs the layer on x. train selects training behaviour
	// (BatchNorm batch statistics, capture hooks).
	Forward(x *tensor.Tensor, train bool) *tensor.Tensor
	// Backward propagates gradOut (dL/d output) and returns dL/d input.
	Backward(gradOut *tensor.Tensor) *tensor.Tensor
	// Params returns the layer's trainable parameters (possibly empty).
	Params() []*Param
	// Name returns a stable human-readable identifier.
	Name() string
}

// KFACCapturable is implemented by layers K-FAC can precondition (Linear and
// Conv2D — the paper's §V "supports K-FAC updates for Linear and Conv2D
// layers"). The capture accessors return the data needed to form the
// Kronecker factors A and G.
//
// Capture validity: a capture is valid from the training Forward
// (activation) or Backward (output gradient) that produced it until the
// layer's next Forward — which is after K-FAC's Step has consumed it. It is
// the layer's own buffer, with two exceptions at float64, where the layer
// borrows what a neighbour owns: a Conv2D's output gradient is the gradient
// the layer behind it handed in, read as a matrix, which its owner keeps
// until its own next Backward; and a Conv2D's activation is its input image
// itself when SetCapture found a layer before it in the tree, whose output it
// is and which keeps it until its own next Forward — which comes before this
// layer's. A conv that reads the network's own input, the caller's tensor, or
// whose capture was turned on by its own SetCapture method, copies the image
// (1/(kh·kw) of its patch matrix). Callers that need a capture longer copy
// it.
type KFACCapturable interface {
	Layer
	// SetCapture enables or disables activation/gradient capture.
	SetCapture(on bool)
	// SetGradHook installs fn, or removes the hook when fn is nil. The layer
	// calls fn on the goroutine running its Backward, as soon as that
	// Backward has accumulated the weight and bias gradients and before it
	// forms the input gradient, so the parameter gradients are final for
	// the pass from the call on. A layer holds one hook; K-FAC installs it
	// at construction to start preconditioning the layer while the rest of
	// the backward runs, and removes it on Close.
	SetGradHook(fn func())
	// CapturedActivation returns the activation from the last forward pass
	// — for a Linear the [samples, inDim] sample matrix; for a Conv2D the
	// input image [N, H, W, C], whose patch matrix under Window,
	// [N·outH·outW, kh·kw·C], is the sample matrix. Nil if capture was off.
	CapturedActivation() *tensor.Tensor
	// CapturedOutputGrad returns dL/d(pre-activation output) from the last
	// backward pass as a [samples, outDim] matrix (conv layers return
	// [N·outH·outW, outC]). Nil if capture was off.
	CapturedOutputGrad() *tensor.Tensor
	// Window returns the window the activation is read through: a Conv2D's
	// kernel geometry, or the zero Window when the activation is the sample
	// matrix itself.
	Window() tensor.Window
	// CapturedActivation32 and CapturedOutputGrad32 are the same captures at
	// float32, so a float32 K-FAC step consumes a float32 layer's own
	// buffers without a float64 round trip. Whichever pair is not at the
	// layer's compute element type is a converted copy.
	CapturedActivation32() *tensor.T32
	CapturedOutputGrad32() *tensor.T32
	// BatchSize returns the mini-batch size N of the last forward pass.
	BatchSize() int
	// SpatialSize returns outH·outW for conv layers and 1 for linear.
	SpatialSize() int
	// HasBias reports whether the layer has a bias parameter (the A factor
	// then gains a homogeneous coordinate).
	HasBias() bool
	// CombinedGradInto writes the combined gradient matrix — weight, and
	// bias in the final column when present — into dst, which must have
	// shape [outDim, inDim(+1)]. The K-FAC step's per-layer workspaces are
	// its dst.
	CombinedGradInto(dst *tensor.Tensor)
	// CombinedGradView returns the combined gradient matrix without a copy
	// when the layer stores it as one tensor — a bias-free layer's weight
	// gradient, already [outDim, inDim] — and nil otherwise. It is the
	// accumulator itself, looked up at each call, so a caller that asks
	// every step never reads a replaced gradient.
	CombinedGradView() *tensor.Tensor
	// SetCombinedGrad writes a preconditioned [outDim, inDim(+1)] gradient
	// back into the layer's weight (and bias) gradient accumulators.
	SetCombinedGrad(g *tensor.Tensor)
	// InDim returns the A-factor dimension excluding the bias column.
	InDim() int
	// OutDim returns the G-factor dimension.
	OutDim() int
}

// Sequential chains layers; the output of layer i feeds layer i+1.
type Sequential struct {
	name   string
	Layers []Layer
}

// NewSequential builds a sequential container.
func NewSequential(name string, layers ...Layer) *Sequential {
	return &Sequential{name: name, Layers: layers}
}

// Add appends a layer.
func (s *Sequential) Add(l Layer) { s.Layers = append(s.Layers, l) }

// Forward implements Layer.
func (s *Sequential) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	for _, l := range s.Layers {
		x = l.Forward(x, train)
	}
	return x
}

// Backward implements Layer.
func (s *Sequential) Backward(gradOut *tensor.Tensor) *tensor.Tensor {
	for i := len(s.Layers) - 1; i >= 0; i-- {
		gradOut = s.Layers[i].Backward(gradOut)
	}
	return gradOut
}

// Params implements Layer, concatenating all child parameters.
func (s *Sequential) Params() []*Param {
	var ps []*Param
	for _, l := range s.Layers {
		ps = append(ps, l.Params()...)
	}
	return ps
}

// Name implements Layer.
func (s *Sequential) Name() string { return s.name }

// State is a named non-trainable buffer (e.g. BatchNorm running statistics)
// that must be checkpointed alongside parameters.
type State struct {
	Name  string
	Value *tensor.Tensor
}

// Stateful is implemented by layers carrying non-trainable state.
type Stateful interface {
	Layer
	// StateTensors returns live views of the layer's buffers; callers may
	// read or overwrite their contents.
	StateTensors() []State
}

// walk visits root and every layer below it in forward order — a container
// before its children, a Residual's body, then its shortcut.
func walk(root Layer, visit func(Layer)) {
	visit(root)
	switch v := root.(type) {
	case *Sequential:
		for _, c := range v.Layers {
			walk(c, visit)
		}
	case *Residual:
		walk(v.Body, visit)
		if v.Shortcut != nil {
			walk(v.Shortcut, visit)
		}
	}
}

// StateTensors walks a layer tree and collects every Stateful layer's
// buffers in deterministic order.
func StateTensors(root Layer) []State {
	var out []State
	walk(root, func(l Layer) {
		if s, ok := l.(Stateful); ok {
			out = append(out, s.StateTensors()...)
		}
	})
	return out
}

// CapturableLayers walks a layer tree and returns every KFACCapturable in
// forward order. This is what the K-FAC preconditioner registers against,
// mirroring the paper's per-layer hook registration.
func CapturableLayers(root Layer) []KFACCapturable {
	var out []KFACCapturable
	walk(root, func(l Layer) {
		if c, ok := l.(KFACCapturable); ok {
			out = append(out, c)
		}
	})
	return out
}

// SetCapture enables or disables K-FAC capture on every KFACCapturable
// under root. It also tells each Conv2D whether its input is another layer's
// output, which the conv's float64 activation capture then borrows, or the
// input root itself was given, the caller's, which it copies
// (KFACCapturable). A Sequential hands its own input to its first layer
// only; a Residual to its body and shortcut both.
func SetCapture(root Layer, on bool) { setCapture(root, on, true) }

// setCapture is SetCapture on the subtree l, which reads root's input when
// fromRoot is set.
func setCapture(l Layer, on, fromRoot bool) {
	switch v := l.(type) {
	case *Sequential:
		for i, c := range v.Layers {
			setCapture(c, on, fromRoot && i == 0)
		}
	case *Residual:
		setCapture(v.Body, on, fromRoot)
		if v.Shortcut != nil {
			setCapture(v.Shortcut, on, fromRoot)
		}
	case KFACCapturable:
		v.SetCapture(on)
		if c, ok := v.(*Conv2D); ok {
			c.borrowInput = !fromRoot
		}
	}
}

// BufferReuser is implemented by layers that can recycle their forward and
// backward workspace tensors across steps instead of allocating fresh ones.
// Reuse changes storage identity only — the arithmetic, and therefore the
// result bits, are untouched — but a layer's outputs become invalid once
// its next Forward/Backward runs, so callers that retain outputs across
// steps (tests comparing two forward passes, plotting code) must leave
// reuse off. The trainer enables it for its session-driven loops, where
// every output is consumed within the step that produced it.
type BufferReuser interface {
	Layer
	// SetBufferReuse enables or disables workspace recycling.
	SetBufferReuse(on bool)
}

// SetBufferReuse walks a layer tree and toggles workspace recycling on
// every layer that supports it (see BufferReuser).
func SetBufferReuse(root Layer, on bool) {
	walk(root, func(l Layer) {
		if br, ok := l.(BufferReuser); ok {
			br.SetBufferReuse(on)
		}
	})
}

// slot is where a layer's workspace tensor lives: buf itself when reuse is
// on — tensor.Ensure, View and Cast then recycle (*buf)'s storage, and since
// the variadic shape never escapes them a steady-state caller allocates
// nothing — else a fresh empty slot, so the call allocates and *buf is left
// alone.
func slot[E tensor.Elem](reuse bool, buf **tensor.Dense[E]) **tensor.Dense[E] {
	if reuse {
		return buf
	}
	return new(*tensor.Dense[E])
}

// ensureBuf returns a tensor of the given shape, contents unspecified.
func ensureBuf[E tensor.Elem](reuse bool, buf **tensor.Dense[E], shape ...int) *tensor.Dense[E] {
	return tensor.Ensure(slot(reuse, buf), shape...)
}

// ensureBufZero is ensureBuf with the returned tensor guaranteed zeroed.
func ensureBufZero(reuse bool, buf **tensor.Tensor, shape ...int) *tensor.Tensor {
	return tensor.EnsureZero(slot(reuse, buf), shape...)
}

// viewBuf returns t's storage under another shape (tensor.View).
func viewBuf[E tensor.Elem](reuse bool, buf **tensor.Dense[E], t *tensor.Dense[E], shape ...int) *tensor.Dense[E] {
	return tensor.View(slot(reuse, buf), t, shape...)
}

// castBuf returns src at element type D (tensor.Cast): src itself when it
// already is, else a converted copy.
func castBuf[D, S tensor.Elem](reuse bool, buf **tensor.Dense[D], src *tensor.Dense[S]) *tensor.Dense[D] {
	return tensor.Cast(slot(reuse, buf), src)
}

// ZeroGrads clears all parameter gradients in a layer tree.
func ZeroGrads(root Layer) {
	for _, p := range root.Params() {
		p.ZeroGrad()
	}
}

// ParamCount returns the total number of scalar parameters in a layer tree.
func ParamCount(root Layer) int {
	n := 0
	for _, p := range root.Params() {
		n += p.Value.Len()
	}
	return n
}

// heInit fills w with Kaiming-He normal initialization for fanIn inputs:
// N(0, sqrt(2/fanIn)) — the standard ResNet initialization.
func heInit(rng *rand.Rand, w *tensor.Tensor, fanIn int) {
	std := 1.0
	if fanIn > 0 {
		std = math.Sqrt(2 / float64(fanIn))
	}
	for i := range w.Data {
		w.Data[i] = rng.NormFloat64() * std
	}
}

// Residual is a residual block: out = ReLU(body(x) + shortcut(x)), matching
// the post-activation ResNet-v1 design the paper trains. Shortcut may be nil
// for an identity skip.
type Residual struct {
	name     string
	Body     Layer
	Shortcut Layer // nil = identity

	reuse bool
	out   *tensor.Tensor // forward: the rectified sum, which Backward masks by
	gBuf  *tensor.Tensor // backward: gradient of the sum
	bwBuf *tensor.Tensor // backward: summed input gradient
}

// SetBufferReuse implements BufferReuser for the block's own buffers; the
// layers inside it are reached by the tree walk.
func (r *Residual) SetBufferReuse(on bool) { r.reuse = on }

// NewResidual constructs a residual block.
func NewResidual(name string, body, shortcut Layer) *Residual {
	return &Residual{name: name, Body: body, Shortcut: shortcut}
}

// Forward implements Layer. Sum and ReLU are one pass over the block's
// output.
func (r *Residual) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	body, sc := r.Body.Forward(x, train), x
	if r.Shortcut != nil {
		sc = r.Shortcut.Forward(x, train)
	}
	if !body.SameShape(sc) {
		panic(fmt.Sprintf("nn: residual %s shape mismatch body=%v shortcut=%v",
			r.name, body.Shape, sc.Shape))
	}
	r.out = ensureBuf(r.reuse, &r.out, body.Shape...)
	tensor.AddRectify(r.out.Data, body.Data, sc.Data)
	return r.out
}

// Backward implements Layer.
func (r *Residual) Backward(gradOut *tensor.Tensor) *tensor.Tensor {
	g := ensureBuf(r.reuse, &r.gBuf, gradOut.Shape...)
	tensor.RectifyGrad(g.Data, gradOut.Data, r.out.Data)
	gBody, gShort := r.Body.Backward(g), g
	if r.Shortcut != nil {
		gShort = r.Shortcut.Backward(g)
	}
	sum := ensureBuf(r.reuse, &r.bwBuf, gBody.Shape...)
	tensor.Add(sum.Data, gBody.Data, gShort.Data)
	return sum
}

// Params implements Layer.
func (r *Residual) Params() []*Param {
	ps := r.Body.Params()
	if r.Shortcut != nil {
		ps = append(ps, r.Shortcut.Params()...)
	}
	return ps
}

// Name implements Layer.
func (r *Residual) Name() string { return r.name }
