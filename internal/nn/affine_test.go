package nn

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/tensor"
)

// The affine core as a definition. At float64 a layer's output and gradients
// are the written-down products below, bit for bit. At float32 they are the
// same products on operands rounded to float32, with one rounding to float32
// after each product and after the bias add — nothing else: the float32 core
// is Narrow(reference on Narrow'ed operands). (The core adds the bias in
// float32; rounding the float64 sum of two float32 values gives the same
// bits, since 53 ≥ 2·24 + 2 makes the double rounding innocuous.)

// affineRef computes Y = X·Wᵀ + b, dW = GᵀX, db = Σᵢ G[i,:] and dX = G·W
// with the float64 products, passing every operand and every product through
// round (the identity for the float64 definition).
func affineRef(x, w, b, g *tensor.Tensor, round func(*tensor.Tensor) *tensor.Tensor) (y, dW, db, dX *tensor.Tensor) {
	x, w, g = round(x), round(w), round(g)
	y = round(tensor.MatMulT2(x, w))
	if b != nil {
		b = round(b)
		for i := 0; i < y.Rows(); i++ {
			for j := range b.Data {
				y.Data[i*y.Cols()+j] += b.Data[j]
			}
		}
		y = round(y)
	}
	dW = round(tensor.MatMulT1(g, x))
	db = tensor.New(g.Cols())
	for i := 0; i < g.Rows(); i++ {
		for j := 0; j < g.Cols(); j++ {
			db.Data[j] += g.Data[i*g.Cols()+j]
		}
	}
	dX = round(tensor.MatMul(g, w))
	return y, dW, db, dX
}

func roundNone(t *tensor.Tensor) *tensor.Tensor { return t }

// roundF32 returns t rounded to float32, as a float64 tensor.
func roundF32(t *tensor.Tensor) *tensor.Tensor {
	n := tensor.NewT32(t.Shape...)
	n.NarrowFrom(t)
	out := tensor.New(t.Shape...)
	tensor.Convert(out, n)
	return out
}

func wantBits(t *testing.T, what string, got, want *tensor.Tensor) {
	t.Helper()
	if !got.SameShape(want) {
		t.Fatalf("%s: shape %v, want %v", what, got.Shape, want.Shape)
	}
	for i := range want.Data {
		if math.Float64bits(got.Data[i]) != math.Float64bits(want.Data[i]) {
			t.Fatalf("%s: element %d = %v, want %v (bit equality)", what, i, got.Data[i], want.Data[i])
		}
	}
}

// precisions pairs each SetComputeF32 setting with its rounding.
var precisions = []struct {
	name  string
	f32   bool
	round func(*tensor.Tensor) *tensor.Tensor
}{{"float64", false, roundNone}, {"float32", true, roundF32}}

func TestLinearCoreIsItsDefinition(t *testing.T) {
	for _, pr := range precisions {
		for _, bias := range []bool{true, false} {
			rng := rand.New(rand.NewSource(31))
			l := NewLinear("fc", 7, 5, bias, rng)
			SetComputeF32(l, pr.f32)
			l.SetCapture(true)
			x := tensor.Randn(rng, 1, 9, 7)
			g := tensor.Randn(rng, 1, 9, 5)
			var b *tensor.Tensor
			if bias {
				l.B.Value = tensor.Randn(rng, 1, 5)
				b = l.B.Value
			}
			y, dW, db, dX := affineRef(x, l.W.Value, b, g, pr.round)

			wantBits(t, pr.name+" y", l.Forward(x, true), y)
			ZeroGrads(l)
			wantBits(t, pr.name+" dX", l.Backward(g), dX)
			wantBits(t, pr.name+" dW", l.W.Grad, dW)
			if bias {
				wantBits(t, pr.name+" db", l.B.Grad, db)
			}
			// The captures are the operands the products saw.
			wantBits(t, pr.name+" captured activation", l.CapturedActivation(), pr.round(x))
			wantBits(t, pr.name+" captured output grad", l.CapturedOutputGrad(), pr.round(g))
		}
	}
}

func TestConv2DCoreIsItsDefinition(t *testing.T) {
	const n, inC, outC, k, stride, pad, h, w = 2, 3, 4, 3, 2, 1, 7, 6
	for _, pr := range precisions {
		rng := rand.New(rand.NewSource(37))
		c := NewConv2D("conv", inC, outC, k, stride, pad, true, rng)
		SetComputeF32(c, pr.f32)
		c.B.Value = tensor.Randn(rng, 1, outC)
		x := tensor.Randn(rng, 1, n, h, w, inC)
		oh, ow := tensor.ConvOutSize(h, k, stride, pad), tensor.ConvOutSize(w, k, stride, pad)
		g := tensor.Randn(rng, 1, n, oh, ow, outC)

		// The lowering and its adjoint only move and add data (tested against
		// the channels-first routines in internal/tensor); the arithmetic in
		// between is the affine definition on the patch matrix, and the
		// product and the incoming gradient are the layer's output and G
		// operand under another shape.
		cols := tensor.New(n*oh*ow, k*k*inC)
		tensor.UnfoldInto(cols, pr.round(x), k, k, stride, pad)
		yMat, dW, db, dCols := affineRef(cols, c.W.Value, c.B.Value, g.Reshape(n*oh*ow, outC), pr.round)
		y := yMat.Reshape(n, oh, ow, outC)
		dX := tensor.New(n, h, w, inC)
		tensor.FoldInto(dX, dCols, k, k, stride, pad)

		wantBits(t, pr.name+" y", c.Forward(x, true), y)
		ZeroGrads(c)
		wantBits(t, pr.name+" dX", c.Backward(g), dX)
		wantBits(t, pr.name+" dW", c.W.Grad, dW)
		wantBits(t, pr.name+" db", c.B.Grad, db)
	}
}
