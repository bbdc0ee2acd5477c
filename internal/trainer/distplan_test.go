package trainer

import (
	"testing"

	"repro/internal/kfac"
)

// TestDistModesTrainBitIdentically drives the distribution-plan conformance
// through the full session loop (sharded data, fused gradient exchange,
// K-FAC step, optimizer update): MEM-OPT, COMM-OPT and HYBRID must follow
// the default run's trajectory bit for bit at the same world size.
func TestDistModesTrainBitIdentically(t *testing.T) {
	train, test := tinyDataset(t)
	const world = 4
	run := func(mode kfac.DistMode, frac float64, engine kfac.Engine) []*Result {
		return trainWorld(t, world, train, test, WithEpochs(2), WithBatchPerRank(8),
			WithKFACOptions(kfac.Options{
				FactorUpdateFreq: 2, InvUpdateFreq: 4, Damping: 0.01,
				DistMode: mode, GradWorkerFrac: frac, Engine: engine,
			}))
	}
	ref := run(kfac.DistAuto, 0, kfac.EngineSync)
	for _, tc := range []struct {
		name   string
		mode   kfac.DistMode
		frac   float64
		engine kfac.Engine
	}{
		{"commopt", kfac.CommOpt, 0, kfac.EngineSync},
		{"memopt", kfac.MemOpt, 0, kfac.EngineSync},
		{"hybrid50", kfac.Hybrid, 0.5, kfac.EngineSync},
		{"memopt_pipelined", kfac.MemOpt, 0, kfac.EnginePipelined},
	} {
		got := run(tc.mode, tc.frac, tc.engine)
		for r := range got {
			for e := range got[r].History {
				w, g := ref[r].History[e], got[r].History[e]
				if w.TrainLoss != g.TrainLoss || w.ValAcc != g.ValAcc {
					t.Errorf("%s rank %d epoch %d: trajectory differs (loss %v vs %v, acc %v vs %v)",
						tc.name, r, e, w.TrainLoss, g.TrainLoss, w.ValAcc, g.ValAcc)
				}
			}
		}
	}
}

// TestGroupedGradientExchangeTrains: kfac.Options.GroupSize routes both the
// gradient exchange and the factor averaging through the hierarchical
// allreduce; the run must train and every rank must land on the identical
// (leader-broadcast) trajectory.
func TestGroupedGradientExchangeTrains(t *testing.T) {
	train, test := tinyDataset(t)
	results := trainWorld(t, 4, train, test, WithEpochs(2), WithBatchPerRank(8),
		WithKFACOptions(kfac.Options{
			FactorUpdateFreq: 2, InvUpdateFreq: 4, Damping: 0.01, GroupSize: 2,
		}))
	for r := 1; r < len(results); r++ {
		if results[r].FinalValAcc != results[0].FinalValAcc {
			t.Errorf("rank %d disagrees under grouped allreduce: %v vs %v",
				r, results[r].FinalValAcc, results[0].FinalValAcc)
		}
	}
	if results[0].FinalValAcc <= 0.3 {
		t.Errorf("grouped-allreduce val acc = %v, want > 0.3", results[0].FinalValAcc)
	}
}
