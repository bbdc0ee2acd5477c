package tensor

import (
	"fmt"
	"math/rand"
	"testing"
)

// BenchmarkGEMMShapes runs the float64 product family at the shapes the
// benchmark models issue and reports computed GFLOP/s (2mnk, packing
// included) beside the measured one-core FMA peak, so the fraction of peak
// is read off `go test -bench GEMM`. With -cpu 1 the ratio is per core; at
// higher -cpu the product may use several cores against a one-core peak.
func BenchmarkGEMMShapes(b *testing.B) {
	peak := FMAPeakGFLOPS()
	shapes := []struct {
		variant string // N: a·b, T1: aᵀ·b, T2: a·bᵀ
		m, k, n int
		what    string
	}{
		{"N", 48, 432, 432, "precondition (the benchmark's replay shape)"},
		{"T2", 48, 432, 432, "precondition back-rotation"},
		{"T1", 48, 48, 432, "precondition Q_Gᵀ·grad"},
		{"N", 24, 216, 216, "precondition, stage 2"},
		{"T2", 1152, 108, 12, "conv forward, stage 1"},
		{"T1", 12, 1152, 108, "conv weight gradient, stage 1"},
		{"N", 1152, 12, 108, "conv input gradient, stage 1"},
		{"T2", 72, 432, 48, "conv forward, stage 3"},
		{"T2", 368, 64, 368, "eig trailing update r×64·64×r"},
		{"N", 256, 256, 256, "square"},
	}
	for _, sh := range shapes {
		rng := rand.New(rand.NewSource(1))
		var a, bb *Tensor
		var run func(dst *Tensor)
		switch sh.variant {
		case "N":
			a, bb = Randn(rng, 1, sh.m, sh.k), Randn(rng, 1, sh.k, sh.n)
			run = func(dst *Tensor) { MatMulInto(dst, a, bb) }
		case "T1":
			a, bb = Randn(rng, 1, sh.k, sh.m), Randn(rng, 1, sh.k, sh.n)
			run = func(dst *Tensor) { MatMulT1Into(dst, a, bb) }
		case "T2":
			a, bb = Randn(rng, 1, sh.m, sh.k), Randn(rng, 1, sh.n, sh.k)
			run = func(dst *Tensor) { MatMulT2Into(dst, a, bb) }
		}
		dst := New(sh.m, sh.n)
		b.Run(fmt.Sprintf("%s_%dx%dx%d", sh.variant, sh.m, sh.k, sh.n), func(b *testing.B) {
			run(dst)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				run(dst)
			}
			g := 2 * float64(sh.m) * float64(sh.k) * float64(sh.n) * float64(b.N) / b.Elapsed().Seconds() / 1e9
			b.ReportMetric(g, "GFLOP/s")
			b.ReportMetric(peak, "peak-GFLOP/s")
			b.ReportMetric(g/peak, "of-peak")
		})
	}
}
