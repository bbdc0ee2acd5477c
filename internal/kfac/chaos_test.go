package kfac

import (
	"sync"
	"testing"
	"time"

	"repro/internal/comm"
	"repro/internal/tensor"
)

// chaosStepTrace is stepTrace over a chaos-wrapped in-process world.
func chaosStepTrace(t *testing.T, p int, cfg comm.ChaosConfig, opts Options, steps int) [][]*tensor.Tensor {
	t.Helper()
	fab := comm.NewChaosFabric(comm.NewInprocFabric(p), p, cfg)
	out := make([][]*tensor.Tensor, p)
	var wg sync.WaitGroup
	for r := 0; r < p; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			out[r] = stepTrace(t, comm.NewCommunicator(fab.Endpoint(r)), opts, steps)
		}(r)
	}
	wg.Wait()
	return out
}

// TestEnginesBitIdenticalUnderLatencyChaos is the acceptance property for
// the chaos layer: an injected-latency-only schedule perturbs timing —
// reordering completions of the pipelined engine's overlapped collectives
// — but both engines must still produce parameters bit-identical to a
// chaos-free synchronous run.
func TestEnginesBitIdenticalUnderLatencyChaos(t *testing.T) {
	const p = 3
	const steps = 6
	base := Options{FactorUpdateFreq: 2, InvUpdateFreq: 4}
	chaosCfg := comm.ChaosConfig{
		Seed:       17,
		MinLatency: 5 * time.Microsecond,
		MaxLatency: 200 * time.Microsecond,
	}

	want := chaosStepTrace(t, p, comm.ChaosConfig{}, base, steps) // clean sync reference

	pipeOpts := base
	pipeOpts.Engine = EnginePipelined
	for name, got := range map[string][][]*tensor.Tensor{
		"sync under latency chaos":      chaosStepTrace(t, p, chaosCfg, base, steps),
		"pipelined under latency chaos": chaosStepTrace(t, p, chaosCfg, pipeOpts, steps),
		"pipelined, different seed": chaosStepTrace(t, p,
			comm.ChaosConfig{Seed: 99, MinLatency: time.Microsecond, MaxLatency: 500 * time.Microsecond},
			pipeOpts, steps),
	} {
		for r := 0; r < p; r++ {
			for i := range want[r] {
				if !want[r][i].Equal(got[r][i], 0) {
					t.Errorf("%s: rank %d layer %d differs from clean sync run (exact comparison)", name, r, i)
				}
			}
		}
	}
}
