package trainer

import (
	"slices"
	"testing"

	"repro/internal/data"
	"repro/internal/kfac"
	"repro/internal/testenv"
)

// finalEpoch is one run's final-epoch training loss and validation
// accuracy, both rank-averaged.
type finalEpoch struct {
	Loss, ValAcc float64
}

// exactArm is the session option of the exact arm: every decomposition
// update after step 0's, which is a full solve in any case, runs the full
// eigensolve (kfac.ExactRefresh). The run is then the math the power tier
// approximates.
func exactArm() SessionOption {
	return OnStep(func(s *Session, info StepInfo) error {
		if info.Iteration == 1 {
			kfac.ExactRefresh(s.prec)
		}
		return nil
	})
}

// trainWorld2 trains on two ranks under K-FAC options o for the given epochs
// at seed (initialisation and data order; the remaining settings are
// sessionOpts'), under the exact arm when exact is set, and returns the
// final epoch. Runs with equal arguments are bit-identical.
func trainWorld2(t *testing.T, train, test *data.Dataset, o kfac.Options, seed int64, epochs int, exact bool) finalEpoch {
	t.Helper()
	opts := []SessionOption{WithEpochs(epochs), WithSeed(seed), WithKFACOptions(o)}
	if exact {
		opts = append(opts, exactArm())
	}
	results := trainWorld(t, 2, train, test, opts...)
	e0, e1 := results[0].History[epochs-1], results[1].History[epochs-1]
	if e0.TrainLoss != e1.TrainLoss {
		t.Fatalf("ranks disagree on final loss: %v vs %v", e0.TrainLoss, e1.TrainLoss)
	}
	return finalEpoch{Loss: e0.TrainLoss, ValAcc: e0.ValAcc}
}

// convergenceBand is the convergence gate for a change that moves the math.
// At seeds 1..testenv.Scale(5, 3) it trains o as the product runs it (the
// candidate) and under the exact arm, and checks three bounds the caller
// fixed before the candidate ran:
//   - the median over seeds of the loss ratio candidate/exact is at most
//     maxMedianRatio;
//   - the candidate's highest loss over the seeds is inside the exact arm's
//     own seed spread, at most the exact arm's highest loss;
//   - the median over seeds of the validation-accuracy drop, exact minus
//     candidate, is at most maxMedianAccDrop.
func convergenceBand(t *testing.T, train, test *data.Dataset, o kfac.Options, epochs int, maxMedianRatio, maxMedianAccDrop float64) {
	t.Helper()
	seeds := testenv.Scale(5, 3)
	ratios, drops := make([]float64, seeds), make([]float64, seeds)
	var candMax, exactMax float64
	for i := range seeds {
		seed := int64(i + 1)
		exact := trainWorld2(t, train, test, o, seed, epochs, true)
		cand := trainWorld2(t, train, test, o, seed, epochs, false)
		ratios[i], drops[i] = cand.Loss/exact.Loss, exact.ValAcc-cand.ValAcc
		candMax, exactMax = max(candMax, cand.Loss), max(exactMax, exact.Loss)
		t.Logf("seed %d: loss %.4f (exact %.4f, ratio %.3f), val acc %.4f (exact %.4f)",
			seed, cand.Loss, exact.Loss, ratios[i], cand.ValAcc, exact.ValAcc)
	}
	if !(candMax <= exactMax) {
		t.Errorf("highest loss %.4f is outside the exact arm's seed spread (highest %.4f)", candMax, exactMax)
	}
	slices.Sort(ratios)
	if med := ratios[seeds/2]; !(med <= maxMedianRatio) {
		t.Errorf("median loss ratio to the exact arm %.3f, want ≤ %.3f", med, maxMedianRatio)
	}
	slices.Sort(drops)
	if med := drops[seeds/2]; !(med <= maxMedianAccDrop) {
		t.Errorf("median validation-accuracy drop from the exact arm %.4f, want ≤ %.4f", med, maxMedianAccDrop)
	}
}

// TestPowerRefreshConvergenceBand holds the refresh tier to the exact
// arm. Factors update every step and decompositions every second (paper
// damping and KL clip), so nine in ten refreshes take the cheap tier. The
// task is tinyDataset's with noise 1.0, so four epochs end well above zero
// loss, inside the first 32 steps where the factors move fastest.
//
// The bounds come from the exact arm and a deliberately broken tier alone:
// with every cheap refresh leaving the decomposition as it was (each basis
// and its values kept until the next full solve), seeds 1–5 trained to
// loss ratios 1.197/1.231/1.286/1.280/1.179 (median 1.231) and lost
// −1/3/22/6/12 of the 96 test images (median 6). The loss bound sits below
// halfway from the exact arm's 1 to that median, the accuracy bound at half
// the broken tier's median drop, three images (passed as 3.5/96: accuracies
// are k/96 in floating point, and the half image absorbs their rounding).
func TestPowerRefreshConvergenceBand(t *testing.T) {
	train, test := data.GenerateSynthetic(data.SyntheticConfig{
		Train: 256, Test: 96, Classes: 4,
		Channels: 1, Size: 8, Noise: 1.0, Shift: 1, Seed: 11,
	})
	convergenceBand(t, train, test, kfac.Options{FactorUpdateFreq: 1, InvUpdateFreq: 2}, 4, 1.10, 3.5/96)
}
