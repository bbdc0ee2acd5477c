package trainer

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/kfac"
)

// TestKFACF32TrainsWithinLossTolerance is the trainer-level acceptance check
// for the mixed-precision path: a same-seed run with Precision == F32 (which
// switches both the layers' forward/backward and the K-FAC kernels to
// float32-with-float64-accumulation) must track the float64 run's per-epoch
// training loss within a small tolerance and reach comparable validation
// accuracy — the "same convergence, faster arithmetic" contract of the
// paper's mixed-precision discussion.
func TestKFACF32TrainsWithinLossTolerance(t *testing.T) {
	train, test := tinyDataset(t)
	run := func(pr kfac.Precision) *Result {
		net := buildTestNet(rand.New(rand.NewSource(1)))
		return trainOne(t, net, train, test, WithKFACOptions(kfac.Options{
			FactorUpdateFreq: 2, InvUpdateFreq: 4, Damping: 0.01, Precision: pr,
		}))
	}
	ref := run(kfac.F64)
	f32 := run(kfac.F32)
	for e := range ref.History {
		d := math.Abs(ref.History[e].TrainLoss - f32.History[e].TrainLoss)
		// Same-seed trajectories diverge slowly: float32 round-off perturbs
		// each step by ~1e-6 relative, compounding over ~48 steps to well
		// under 5% of the loss scale on this task.
		if d > 0.05*(1+math.Abs(ref.History[e].TrainLoss)) {
			t.Errorf("epoch %d: f64 loss %.4f vs f32 loss %.4f",
				e, ref.History[e].TrainLoss, f32.History[e].TrainLoss)
		}
	}
	if f32.FinalValAcc < ref.FinalValAcc-0.1 {
		t.Errorf("f32 val acc %.3f much worse than f64 %.3f", f32.FinalValAcc, ref.FinalValAcc)
	}
}

// TestKFACF32DistributedConsistentAcrossRanks checks the mixed-precision
// path under a real multi-rank run: float64 comm payloads keep the ranks in
// exact agreement even though each rank computes in float32.
func TestKFACF32DistributedConsistentAcrossRanks(t *testing.T) {
	train, test := tinyDataset(t)
	results := trainWorld(t, 2, train, test, WithEpochs(2), WithBatchPerRank(8),
		WithKFACOptions(kfac.Options{
			FactorUpdateFreq: 2, InvUpdateFreq: 4, Damping: 0.01, Precision: kfac.F32,
		}))
	if results[0].FinalValAcc != results[1].FinalValAcc {
		t.Errorf("f32 ranks disagree: %v vs %v",
			results[0].FinalValAcc, results[1].FinalValAcc)
	}
	if results[0].FinalValAcc <= 0.3 {
		t.Errorf("f32 distributed val acc = %v, want > 0.3", results[0].FinalValAcc)
	}
}
