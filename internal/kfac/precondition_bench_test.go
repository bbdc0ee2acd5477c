package kfac_test

import (
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/kfac"
	"repro/internal/models"
	"repro/internal/nn"
	"repro/internal/tensor"
)

// BenchmarkPreconditionStale times the precondition stage of a stale step
// (Equations 13–15 plus the κ scaling, no factor or decomposition work) on
// the stale_w1 benchmark model: BuildCIFARResNet(2, 12), 12×12 inputs,
// batch 8. It reports the stage's wall time per step (precond_ms), the
// rate of its rotation products — Σ 4·dg·da·(dg+da) flops per step over all
// layers — in GFLOP/s (precond_gflops), and that rate as a fraction of
// tensor.FMAPeakGFLOPS() × GOMAXPROCS (precond_peak_frac). The raw
// gradients are restored before every step, outside the timed stage, so
// every iteration preconditions the same input.
//
//	go test ./internal/kfac -run '^$' -bench PreconditionStale -benchtime 200x
func BenchmarkPreconditionStale(b *testing.B) {
	rng := rand.New(rand.NewSource(42))
	net := models.BuildCIFARResNet(2, 12, 3, 10, rng)
	prec := kfac.NewFromOptions(net, nil, kfac.Options{FactorUpdateFreq: 1 << 30, InvUpdateFreq: 1 << 30})
	x := tensor.Randn(rng, 1, 8, 12, 12, 3)
	labels := []int{0, 1, 2, 3, 4, 5, 6, 7}
	_, grad := nn.CrossEntropy{}.Loss(net.Forward(x, true), labels)
	nn.ZeroGrads(net)
	net.Backward(grad)
	var raw []*tensor.Tensor
	for _, p := range net.Params() {
		raw = append(raw, p.Grad.Clone())
	}
	restore := func() {
		for i, p := range net.Params() {
			copy(p.Grad.Data, raw[i].Data)
		}
	}
	if err := prec.Step(0.02); err != nil { // factors and decompositions
		b.Fatal(err)
	}
	flops := 0.0
	for _, l := range nn.CapturableLayers(net) {
		da, dg := kfac.FactorDims(l)
		flops += 4 * float64(dg*da*(dg+da))
	}
	peak := tensor.FMAPeakGFLOPS() * float64(runtime.GOMAXPROCS(0))
	before := prec.Stats().Snapshot().Precondition
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		restore()
		if err := prec.Step(0.02); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	perStep := (prec.Stats().Snapshot().Precondition - before).Seconds() / float64(b.N)
	gflops := flops / perStep / 1e9
	b.ReportMetric(perStep*1e3, "precond_ms")
	b.ReportMetric(gflops, "precond_gflops")
	b.ReportMetric(gflops/peak, "precond_peak_frac")
}
