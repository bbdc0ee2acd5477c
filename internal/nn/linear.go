package nn

import (
	"math/rand"

	"repro/internal/tensor"
)

// Linear is a fully-connected layer computing y = x Wᵀ + b for input
// x [N, in], weight W [out, in] and bias b [out]: the affine core applied
// directly. It implements KFACCapturable: with capture enabled it retains
// the input activation matrix and the output-gradient matrix for Kronecker
// factor computation.
type Linear struct {
	affineLayer
	In, Out int
}

// NewLinear constructs a linear layer with He initialization.
func NewLinear(name string, in, out int, bias bool, rng *rand.Rand) *Linear {
	w := tensor.New(out, in)
	heInit(rng, w, in)
	l := &Linear{In: in, Out: out}
	l.name, l.W = name, NewParam(name+".weight", w)
	if bias {
		l.B = NewParam(name+".bias", tensor.New(out))
		l.B.NoWeightDecay = true
	}
	l.SetComputeF32(false)
	return l
}

// Forward implements Layer.
func (l *Linear) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	l.batch = x.Rows()
	return l.core.forward(x, train)
}

// SetComputeF32 implements F32Computer.
func (l *Linear) SetComputeF32(on bool) {
	if on {
		l.core = &linearCore[float32]{affine: affine[float32]{l: &l.affineLayer}}
	} else {
		l.core = &linearCore[float64]{affine: affine[float64]{l: &l.affineLayer}}
	}
}

// SpatialSize implements KFACCapturable.
func (l *Linear) SpatialSize() int { return 1 }

var (
	_ KFACCapturable = (*Linear)(nil)
	_ F32Computer    = (*Linear)(nil)
	_ BufferReuser   = (*Linear)(nil)
)
