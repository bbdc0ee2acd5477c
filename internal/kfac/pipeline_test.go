package kfac

import (
	"sync"
	"testing"

	"repro/internal/comm"
	"repro/internal/nn"
	"repro/internal/tensor"
)

// stepTrace runs several preconditioned steps on a fresh tiny net and
// returns every layer's final gradient.
func stepTrace(t *testing.T, c *comm.Communicator, opts Options, steps int) []*tensor.Tensor {
	t.Helper()
	net := buildTinyNet(42)
	prec := NewFromOptions(net, c, opts)
	return runTrace(t, net, prec, steps)
}

// runTrace runs stepTrace's steps on a built net and preconditioner and
// closes the preconditioner.
func runTrace(t *testing.T, net *nn.Sequential, prec *Preconditioner, steps int) []*tensor.Tensor {
	t.Helper()
	defer prec.Close()
	for i := 0; i < steps; i++ {
		runStep(net, int64(1000+i), 4)
		if err := prec.Step(0.1); err != nil {
			t.Fatal(err)
		}
	}
	var out []*tensor.Tensor
	for _, l := range nn.CapturableLayers(net) {
		out = append(out, combinedGradOf(l))
	}
	return out
}

func TestPipelinedMatchesSyncSingleProcess(t *testing.T) {
	for _, mode := range []Mode{EigenMode, InverseMode} {
		t.Run(mode.String(), func(t *testing.T) {
			base := Options{Mode: mode, FactorUpdateFreq: 1, InvUpdateFreq: 2}
			syncGrads := stepTrace(t, nil, base, 5)
			pipeOpts := base
			pipeOpts.Engine = EnginePipelined
			pipeGrads := stepTrace(t, nil, pipeOpts, 5)
			for i := range syncGrads {
				if !syncGrads[i].Equal(pipeGrads[i], 0) {
					t.Errorf("layer %d: pipelined gradient differs from sync (exact comparison)", i)
				}
			}
		})
	}
}

func TestPipelinedMatchesSyncDistributed(t *testing.T) {
	for _, strategy := range []Strategy{RoundRobin, SizeGreedy, LayerWise} {
		strategy := strategy
		t.Run(strategy.String(), func(t *testing.T) {
			const p = 3
			run := func(engine Engine) [][]*tensor.Tensor {
				fab := comm.NewInprocFabric(p)
				out := make([][]*tensor.Tensor, p)
				var wg sync.WaitGroup
				for r := 0; r < p; r++ {
					wg.Add(1)
					go func(r int) {
						defer wg.Done()
						out[r] = stepTrace(t, comm.NewCommunicator(fab.Endpoint(r)), Options{
							Strategy: strategy, Engine: engine,
							FactorUpdateFreq: 2, InvUpdateFreq: 4,
						}, 6)
					}(r)
				}
				wg.Wait()
				return out
			}
			want := run(EngineSync)
			got := run(EnginePipelined)
			for r := 0; r < p; r++ {
				for i := range want[r] {
					if !want[r][i].Equal(got[r][i], 0) {
						t.Errorf("rank %d layer %d: pipelined differs from sync", r, i)
					}
				}
			}
		})
	}
}

func TestPipelinedTinyFusionBudget(t *testing.T) {
	// A fusion budget smaller than any factor forces chunks to launch
	// mid-Add-sequence, so chunk waiters run while the issuer is still
	// registering later layers — the regression case for the tensor→layer
	// map race (resolved on the issuer goroutine; run with -race). Results
	// must still match the sync engine exactly.
	const p = 2
	run := func(engine Engine) [][]*tensor.Tensor {
		fab := comm.NewInprocFabric(p)
		out := make([][]*tensor.Tensor, p)
		var wg sync.WaitGroup
		for r := 0; r < p; r++ {
			wg.Add(1)
			go func(r int) {
				defer wg.Done()
				net := buildTinyNet(42)
				prec := NewFromOptions(net, comm.NewCommunicator(fab.Endpoint(r)), Options{
					Engine: engine, FactorUpdateFreq: 1, InvUpdateFreq: 1,
				})
				prec.dec.FusionBytes = 1 // every tensor becomes its own chunk
				out[r] = runTrace(t, net, prec, 3)
			}(r)
		}
		wg.Wait()
		return out
	}
	want := run(EngineSync)
	got := run(EnginePipelined)
	for r := 0; r < p; r++ {
		for i := range want[r] {
			if !want[r][i].Equal(got[r][i], 0) {
				t.Errorf("rank %d layer %d: pipelined differs from sync under tiny fusion budget", r, i)
			}
		}
	}
}

func TestPipelinedDecompOnlyIteration(t *testing.T) {
	// InvUpdateFreq=1 with FactorUpdateFreq=2 produces iterations where the
	// decomposition refreshes without a factor update — the pipeline must
	// not wait on factor events that never fire.
	opts := Options{FactorUpdateFreq: 2, InvUpdateFreq: 1, Engine: EnginePipelined}
	grads := stepTrace(t, nil, opts, 4)
	for i, g := range grads {
		if hasNonFinite(g) {
			t.Errorf("layer %d gradient has NaN", i)
		}
	}
}

func TestPipelinedStatsRecordOverlap(t *testing.T) {
	net := buildTinyNet(42)
	prec := NewFromOptions(net, nil, Options{FactorUpdateFreq: 1, InvUpdateFreq: 1, Engine: EnginePipelined})
	defer prec.Close()
	runStep(net, 1, 8)
	if err := prec.Step(0.1); err != nil {
		t.Fatal(err)
	}
	snap := prec.Stats().Snapshot()
	if snap.PipelineUpdates != 1 {
		t.Errorf("PipelineUpdates = %d, want 1", snap.PipelineUpdates)
	}
	if snap.PipelineWall <= 0 || snap.PipelineWork <= 0 {
		t.Errorf("pipeline timings not recorded: wall=%v work=%v", snap.PipelineWall, snap.PipelineWork)
	}
	if snap.FactorUpdates != 1 || snap.EigUpdates != 1 {
		t.Errorf("update counters = %d/%d, want 1/1", snap.FactorUpdates, snap.EigUpdates)
	}
	if s := prec.Stats().String(); s == "" {
		t.Error("empty stats string")
	}
}

func TestPipelinedCloseAndReuse(t *testing.T) {
	net := buildTinyNet(42)
	prec := NewFromOptions(net, nil, Options{FactorUpdateFreq: 1, InvUpdateFreq: 1, Engine: EnginePipelined})
	runStep(net, 2, 4)
	if err := prec.Step(0.1); err != nil {
		t.Fatal(err)
	}
	prec.Close()
	// Stepping after Close recreates the pool.
	runStep(net, 3, 4)
	if err := prec.Step(0.1); err != nil {
		t.Fatal(err)
	}
	prec.Close()
	prec.Close() // idempotent
}

func TestEngineString(t *testing.T) {
	if EngineSync.String() == EnginePipelined.String() {
		t.Error("engines should print differently")
	}
}
