// Top-level benchmark harness: one benchmark per paper table/figure (each
// delegates to internal/experiments at smoke scale and reports wall time),
// plus micro-benchmarks of the kernels whose costs the performance model is
// built from (matmul, eigendecomposition, ring allreduce, conv forward,
// K-FAC preconditioner step).
//
// Regenerate everything with:
//
//	go test -bench=. -benchmem
//
// or run individual artifacts at full scale with cmd/kfac-bench.
package repro_test

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/comm"
	"repro/internal/data"
	"repro/internal/experiments"
	"repro/internal/kfac"
	"repro/internal/linalg"
	"repro/internal/models"
	"repro/internal/nn"
	"repro/internal/tensor"
)

// benchExperiment runs a registered experiment at smoke scale once per
// benchmark iteration.
func benchExperiment(b *testing.B, id string) {
	b.Helper()
	e, ok := experiments.ByID(id)
	if !ok {
		b.Fatalf("unknown experiment %q", id)
	}
	cfg := experiments.Config{Quick: true, Seed: 42}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := e.Run(context.Background(), io.Discard, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// Paper artifacts — Tables I–VI and Figures 4–10.

func BenchmarkTable1InverseVsEigen(b *testing.B)     { benchExperiment(b, "table1") }
func BenchmarkTable2AccuracyVsGPUs(b *testing.B)     { benchExperiment(b, "table2") }
func BenchmarkTable3UpdateFreq(b *testing.B)         { benchExperiment(b, "table3") }
func BenchmarkTable4ImprovementSummary(b *testing.B) { benchExperiment(b, "table4") }
func BenchmarkTable5StageProfile(b *testing.B)       { benchExperiment(b, "table5") }
func BenchmarkTable6WorkerSpeedup(b *testing.B)      { benchExperiment(b, "table6") }
func BenchmarkFig4CIFARCurves(b *testing.B)          { benchExperiment(b, "fig4") }
func BenchmarkFig5ImageNetCurves(b *testing.B)       { benchExperiment(b, "fig5") }
func BenchmarkFig6LastEpochs(b *testing.B)           { benchExperiment(b, "fig6") }
func BenchmarkFig7ResNet50Scaling(b *testing.B)      { benchExperiment(b, "fig7") }
func BenchmarkFig8ResNet101Scaling(b *testing.B)     { benchExperiment(b, "fig8") }
func BenchmarkFig9ResNet152Scaling(b *testing.B)     { benchExperiment(b, "fig9") }
func BenchmarkFig10FactorTime(b *testing.B)          { benchExperiment(b, "fig10") }

// Ablations beyond the paper's tables.

func BenchmarkAblationPlacement(b *testing.B) { benchExperiment(b, "ablation-placement") }
func BenchmarkAblationFusion(b *testing.B)    { benchExperiment(b, "ablation-fusion") }
func BenchmarkPipelineProfile(b *testing.B)   { benchExperiment(b, "pipeline") }

// Kernel micro-benchmarks.

func BenchmarkMatMul(b *testing.B) {
	for _, n := range []int{64, 128, 256} {
		b.Run(fmt.Sprintf("n%d", n), func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			x := tensor.Randn(rng, 1, n, n)
			y := tensor.Randn(rng, 1, n, n)
			dst := tensor.New(n, n)
			b.SetBytes(int64(8 * n * n))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				tensor.MatMulInto(dst, x, y)
			}
		})
	}
}

func BenchmarkSymEig(b *testing.B) {
	for _, n := range []int{32, 64, 128, 256} {
		b.Run(fmt.Sprintf("n%d", n), func(b *testing.B) {
			rng := rand.New(rand.NewSource(2))
			m := tensor.Randn(rng, 1, n, n)
			spd := tensor.MatMulT1(m, m)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := linalg.SymEig(spd); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkExplicitInverse(b *testing.B) {
	for _, n := range []int{32, 64, 128} {
		b.Run(fmt.Sprintf("n%d", n), func(b *testing.B) {
			rng := rand.New(rand.NewSource(3))
			m := tensor.Randn(rng, 1, n, n)
			spd := tensor.MatMulT1(m, m)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := linalg.InverseDamped(spd, 1e-3); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkRingAllreduce(b *testing.B) {
	for _, p := range []int{2, 4, 8} {
		for _, n := range []int{1 << 10, 1 << 16} {
			b.Run(fmt.Sprintf("p%d_n%d", p, n), func(b *testing.B) {
				fab := comm.NewInprocFabric(p)
				comms := make([]*comm.Communicator, p)
				for r := 0; r < p; r++ {
					comms[r] = comm.NewCommunicator(fab.Endpoint(r))
				}
				bufs := make([][]float64, p)
				for r := range bufs {
					bufs[r] = make([]float64, n)
				}
				b.SetBytes(int64(8 * n))
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					var wg sync.WaitGroup
					for r := 0; r < p; r++ {
						wg.Add(1)
						go func(r int) {
							defer wg.Done()
							if err := comms[r].AllreduceSum(bufs[r]); err != nil {
								b.Error(err)
							}
						}(r)
					}
					wg.Wait()
				}
			})
		}
	}
}

func BenchmarkConv2DForward(b *testing.B) {
	rng := rand.New(rand.NewSource(4))
	conv := nn.NewConv2D("c", 16, 32, 3, 1, 1, false, rng)
	x := tensor.Randn(rng, 1, 8, 16, 16, 16)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		conv.Forward(x, true)
	}
}

func BenchmarkResNetForwardBackward(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	net := models.BuildCIFARResNet(1, 8, 3, 10, rng)
	x := tensor.Randn(rng, 1, 8, 32, 32, 3)
	labels := []int{0, 1, 2, 3, 4, 5, 6, 7}
	ce := nn.CrossEntropy{}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out := net.Forward(x, true)
		_, grad := ce.Loss(out, labels)
		nn.ZeroGrads(net)
		net.Backward(grad)
	}
}

func BenchmarkKFACStep(b *testing.B) {
	for _, mode := range []kfac.Mode{kfac.EigenMode, kfac.InverseMode} {
		b.Run(mode.String(), func(b *testing.B) {
			rng := rand.New(rand.NewSource(6))
			net := models.BuildCIFARResNet(1, 8, 3, 10, rng)
			prec := kfac.NewFromOptions(net, nil, kfac.Options{
				Mode: mode, FactorUpdateFreq: 1, InvUpdateFreq: 1, Damping: 1e-3,
			})
			x := tensor.Randn(rng, 1, 8, 16, 16, 3)
			labels := []int{0, 1, 2, 3, 4, 5, 6, 7}
			ce := nn.CrossEntropy{}
			out := net.Forward(x, true)
			_, grad := ce.Loss(out, labels)
			nn.ZeroGrads(net)
			net.Backward(grad)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := prec.Step(0.1); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkKFACStepEngines compares the synchronous and pipelined step
// engines on a full factor + eigendecomposition update of a ResNet-scale
// layer list (a deep CIFAR ResNet with dozens of preconditioned conv and
// linear layers). Both engines decompose through the same eig scheduler and
// precondition through the same grouped stages; they differ only in whether
// covariance runs on a pool and stage events are per layer or barriers, so
// in one process, with no wire time to hide, neither is expected to win.
// Both produce bit-identical preconditioned gradients
// (TestPipelinedEngineMatchesSyncSameSeed).
func BenchmarkKFACStepEngines(b *testing.B) {
	for _, engine := range []kfac.Engine{kfac.EngineSync, kfac.EnginePipelined} {
		b.Run(engine.String(), func(b *testing.B) {
			rng := rand.New(rand.NewSource(6))
			net := models.BuildCIFARResNet(2, 16, 3, 10, rng)
			prec := kfac.NewFromOptions(net, nil, kfac.Options{
				FactorUpdateFreq: 1, InvUpdateFreq: 1, Damping: 1e-3, Engine: engine,
			})
			defer prec.Close()
			x := tensor.Randn(rng, 1, 8, 16, 16, 3)
			labels := []int{0, 1, 2, 3, 4, 5, 6, 7}
			ce := nn.CrossEntropy{}
			out := net.Forward(x, true)
			_, grad := ce.Loss(out, labels)
			nn.ZeroGrads(net)
			net.Backward(grad)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := prec.Step(0.1); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestPipelinedEngineMatchesSyncSameSeed is the cross-engine equality gate:
// from identical seeds, several full steps under EngineSync and
// EnginePipelined must leave exactly the same preconditioned gradients on
// every layer (tolerance zero — the engines share chunk boundaries,
// collective payloads, and reduction order).
func TestPipelinedEngineMatchesSyncSameSeed(t *testing.T) {
	run := func(engine kfac.Engine) []*tensor.Tensor {
		rng := rand.New(rand.NewSource(6))
		net := models.BuildCIFARResNet(1, 8, 3, 10, rng)
		prec := kfac.NewFromOptions(net, nil, kfac.Options{
			FactorUpdateFreq: 1, InvUpdateFreq: 2, Damping: 1e-3, Engine: engine,
		})
		defer prec.Close()
		ce := nn.CrossEntropy{}
		for step := 0; step < 3; step++ {
			srng := rand.New(rand.NewSource(int64(100 + step)))
			x := tensor.Randn(srng, 1, 8, 16, 16, 3)
			labels := []int{0, 1, 2, 3, 4, 5, 6, 7}
			out := net.Forward(x, true)
			_, grad := ce.Loss(out, labels)
			nn.ZeroGrads(net)
			net.Backward(grad)
			if err := prec.Step(0.1); err != nil {
				t.Fatal(err)
			}
		}
		var grads []*tensor.Tensor
		for _, p := range net.Params() {
			grads = append(grads, p.Grad.Clone())
		}
		return grads
	}
	want := run(kfac.EngineSync)
	got := run(kfac.EnginePipelined)
	if len(want) != len(got) {
		t.Fatalf("param count mismatch: %d vs %d", len(want), len(got))
	}
	for i := range want {
		if !want[i].Equal(got[i], 0) {
			t.Errorf("param %d: pipelined gradient differs from sync", i)
		}
	}
}

func BenchmarkKFACStepStale(b *testing.B) {
	// Steady-state step with stale decompositions (the common case): only
	// local preconditioning, no factor or eigendecomposition work.
	rng := rand.New(rand.NewSource(7))
	net := models.BuildCIFARResNet(1, 8, 3, 10, rng)
	prec := kfac.NewFromOptions(net, nil, kfac.Options{
		FactorUpdateFreq: 1 << 30, InvUpdateFreq: 1 << 30, Damping: 1e-3,
	})
	x := tensor.Randn(rng, 1, 8, 16, 16, 3)
	labels := []int{0, 1, 2, 3, 4, 5, 6, 7}
	ce := nn.CrossEntropy{}
	out := net.Forward(x, true)
	_, grad := ce.Loss(out, labels)
	nn.ZeroGrads(net)
	net.Backward(grad)
	if err := prec.Step(0.1); err != nil { // first step computes everything
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := prec.Step(0.1); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDistributedKFACIteration(b *testing.B) {
	// Full distributed iteration over 4 in-process ranks: forward,
	// backward, gradient allreduce, K-FAC step.
	const p = 4
	fab := comm.NewInprocFabric(p)
	nets := make([]*nn.Sequential, p)
	precs := make([]*kfac.Preconditioner, p)
	comms := make([]*comm.Communicator, p)
	for r := 0; r < p; r++ {
		nets[r] = models.BuildCIFARResNet(1, 4, 3, 10, rand.New(rand.NewSource(8)))
		comms[r] = comm.NewCommunicator(fab.Endpoint(r))
		precs[r] = kfac.NewFromOptions(nets[r], comms[r], kfac.Options{
			FactorUpdateFreq: 10, InvUpdateFreq: 100, Damping: 1e-3,
		})
	}
	cfgData := data.SyntheticConfig{Train: 64, Test: 8, Classes: 10, Channels: 3, Size: 16, Seed: 8}
	train, _ := data.GenerateSynthetic(cfgData)
	batches := data.Batches(train, data.ShardSampler{N: train.Len(), World: 1, Seed: 1}.EpochIndices(0), 8)
	ce := nn.CrossEntropy{}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var wg sync.WaitGroup
		for r := 0; r < p; r++ {
			wg.Add(1)
			go func(r int) {
				defer wg.Done()
				bt := batches[i%len(batches)]
				out := nets[r].Forward(bt.X, true)
				_, grad := ce.Loss(out, bt.Labels)
				nn.ZeroGrads(nets[r])
				nets[r].Backward(grad)
				fu := comm.NewFuser(comms[r], 0)
				for _, pr := range nets[r].Params() {
					fu.Add(pr.Grad)
				}
				if err := fu.Flush(); err != nil {
					b.Error(err)
					return
				}
				if err := precs[r].Step(0.1); err != nil {
					b.Error(err)
				}
			}(r)
		}
		wg.Wait()
	}
}
