package tensor

import (
	"fmt"
	"math/rand"
	"testing"
)

// BenchmarkGEMMShapes runs the product family, at both element types of the
// one kernel, at the shapes the benchmark models issue and reports computed
// GFLOP/s (2mnk, packing and — float32 — the narrowing store included)
// beside the measured one-core float64 FMA peak, so the fraction of peak is
// read off `go test -bench GEMM`. With -cpu 1 the ratio is per core; at
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
		ar, ac, br, bc := sh.m, sh.k, sh.k, sh.n // operand storage shapes
		if sh.variant == "T1" {
			ar, ac = sh.k, sh.m
		}
		if sh.variant == "T2" {
			br, bc = sh.n, sh.k
		}
		name := fmt.Sprintf("%s_%dx%dx%d", sh.variant, sh.m, sh.k, sh.n)
		flops := 2 * float64(sh.m) * float64(sh.k) * float64(sh.n)
		b.Run(name+"/float64", func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			a, bb, dst := Randn(rng, 1, ar, ac), Randn(rng, 1, br, bc), New(sh.m, sh.n)
			run := map[string]func(dst, a, b *Tensor){"N": MatMulInto[float64], "T1": MatMulT1Into[float64], "T2": MatMulT2Into[float64]}[sh.variant]
			benchKernel(b, peak, flops, func() { run(dst, a, bb) })
		})
		b.Run(name+"/float32", func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			a, bb, dst := randT32(rng, ar, ac), randT32(rng, br, bc), NewT32(sh.m, sh.n)
			run := map[string]func(dst, a, b *T32){"N": MatMulInto[float32], "T1": MatMulT1Into[float32], "T2": MatMulT2Into[float32]}[sh.variant]
			benchKernel(b, peak, flops, func() { run(dst, a, bb) })
		})
	}
}

// benchKernel times run and reports its GFLOP/s beside the peak.
func benchKernel(b *testing.B, peak, flops float64, run func()) {
	run()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run()
	}
	g := flops * float64(b.N) / b.Elapsed().Seconds() / 1e9
	b.ReportMetric(g, "GFLOP/s")
	b.ReportMetric(peak, "peak-GFLOP/s")
	b.ReportMetric(g/peak, "of-peak")
}
