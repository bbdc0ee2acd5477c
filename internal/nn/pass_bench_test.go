package nn

import (
	"math/rand"
	"testing"

	"repro/internal/tensor"
)

// BenchmarkLayerPasses times the layer passes at the benchmark's stale_w1
// stage-1 activation, [8, 12, 12, 12] channels-last (it stays in L2), with
// buffer reuse on: BatchNorm forward and backward, ReLU forward and
// backward, a residual block around a constant body with the identity
// shortcut, and for scale a copy of the same data.
//
//	go test ./internal/nn -run '^$' -bench LayerPasses -cpu 1
func BenchmarkLayerPasses(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	shape := []int{8, 12, 12, 12}
	x, g := tensor.Randn(rng, 1, shape...), tensor.Randn(rng, 1, shape...)
	bn, relu := NewBatchNorm2d("bn", shape[3]), NewReLU("relu")
	res := NewResidual("res", constLayer{x}, nil)
	for _, l := range []BufferReuser{bn, relu, res} {
		l.SetBufferReuse(true)
	}
	dst := tensor.New(shape...)
	for _, pass := range []struct {
		name string
		run  func()
	}{
		{"copy", func() { copy(dst.Data, x.Data) }},
		{"bn_forward", func() { bn.Forward(x, true) }},
		{"bn_backward", func() { bn.Backward(g) }},
		{"relu_forward", func() { relu.Forward(x, true) }},
		{"relu_backward", func() { relu.Backward(g) }},
		{"residual_forward", func() { res.Forward(x, true) }},
		{"residual_backward", func() { res.Backward(g) }},
	} {
		b.Run(pass.name, func(b *testing.B) {
			bn.Forward(x, true)
			relu.Forward(x, true)
			res.Forward(x, true)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				pass.run()
			}
		})
	}
}
