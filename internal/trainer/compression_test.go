package trainer

import (
	"context"
	"math"
	"testing"

	"repro/internal/comm"
	"repro/internal/kfac"
	"repro/internal/testenv"
)

// runCompressedWorld2 trains the standard tiny task on two ranks with the
// given codec configuration and returns rank 0's final-epoch training loss.
// All runs share seeds, so any loss difference is purely the codec's doing.
func runCompressedWorld2(t *testing.T, eng kfac.Engine, codec comm.Codec, bare bool, epochs int) float64 {
	t.Helper()
	train, test := tinyDataset(t)
	results := trainWorld(t, 2, train, test, WithEpochs(epochs),
		WithKFACOptions(kfac.Options{
			FactorUpdateFreq: 2, InvUpdateFreq: 4, Damping: 0.01, Engine: eng,
			Compression: codec, NoErrorFeedback: bare,
		}))
	if l0, l1 := results[0].History[epochs-1].TrainLoss, results[1].History[epochs-1].TrainLoss; l0 != l1 {
		t.Fatalf("ranks disagree on final loss: %v vs %v", l0, l1)
	}
	return results[0].History[epochs-1].TrainLoss
}

// TestTopKErrorFeedbackConvergenceSafety is the convergence contract of the
// error-feedback wrapper: at sparsity levels where the bare (biased) Top-K
// estimator demonstrably stalls, the compensated stream must track the
// uncompressed run within a small loss tolerance. The compensated residual
// telescopes (comm.TestErrorFeedbackTelescopes proves the arithmetic
// identity); this test shows the identity buys actual training convergence.
// Table-driven over the sparsity fraction and both step engines; the runs
// are deterministic, so the tolerances guard future algorithm changes, not
// noise.
func TestTopKErrorFeedbackConvergenceSafety(t *testing.T) {
	if testenv.Short() {
		t.Skip("multi-run convergence suite skipped in short mode")
	}
	const epochs = 24
	cases := []struct {
		name string
		k    float64
		// efTol bounds |EF loss − exact loss|.
		efTol float64
		// bareMinExcess, when > 0, is the amount by which the bare run's
		// loss must EXCEED exact+efTol — the "demonstrably diverges" side.
		bareMinExcess float64
	}{
		// FractionK is a fraction of the transmitted payload, and factors
		// travel as packed upper triangles (comm.Fuser.AddSymmetric): the
		// same k keeps about half as many distinct factor values as it did
		// over the dense n² payload, so the cliff sits between 3% and 4%
		// (dense: between 2% and 3%). Measured final-epoch losses, identical
		// on both schedules, exact ~0.0046:
		//   2%: EF ~0.0353, bare ~0.1620    3%: EF ~0.0374, bare ~0.0887
		//   4%: EF ~0.0109, bare ~0.1268
		//
		// 2% density is past the cliff: bare Top-K plateaus 35× above the
		// exact loss (excess ~0.157) while EF recovers the dropped mass.
		{name: "topk2pct", k: 0.02, efTol: 0.08, bareMinExcess: 0.06},
		// 4% density: EF is within noise of exact (drift ~0.006); bare is
		// ~27× worse but not on the plateau, so only the EF side is
		// asserted.
		{name: "topk4pct", k: 0.04, efTol: 0.03},
	}
	for _, eng := range []kfac.Engine{kfac.EngineSync, kfac.EnginePipelined} {
		exact := runCompressedWorld2(t, eng, nil, false, epochs)
		for _, tc := range cases {
			codec := comm.TopKCodec{FractionK: tc.k}
			ef := runCompressedWorld2(t, eng, codec, false, epochs)
			if d := math.Abs(ef - exact); d > tc.efTol {
				t.Errorf("engine=%v %s: EF loss %.4f drifted %.4f from exact %.4f (tol %.3f)",
					eng, tc.name, ef, d, exact, tc.efTol)
			}
			bare := runCompressedWorld2(t, eng, codec, true, epochs)
			if bare <= ef {
				t.Errorf("engine=%v %s: bare loss %.4f not worse than EF %.4f — sparsity not biting",
					eng, tc.name, bare, ef)
			}
			if tc.bareMinExcess > 0 && bare-exact < tc.efTol+tc.bareMinExcess {
				t.Errorf("engine=%v %s: bare loss %.4f did not diverge from exact %.4f (want excess > %.3f)",
					eng, tc.name, bare, exact, tc.efTol+tc.bareMinExcess)
			}
		}
	}
}

// TestFloat16CompressionTracksExact: the value-quantizing codec (no
// sparsification) needs no divergence foil — half-precision payloads plus
// error feedback must track the exact run tightly on both engines.
func TestFloat16CompressionTracksExact(t *testing.T) {
	epochs := testenv.Scale(6, 3)
	for _, eng := range []kfac.Engine{kfac.EngineSync, kfac.EnginePipelined} {
		exact := runCompressedWorld2(t, eng, nil, false, epochs)
		f16 := runCompressedWorld2(t, eng, comm.Float16Codec{}, false, epochs)
		if d := math.Abs(f16 - exact); d > 0.05*(1+math.Abs(exact)) {
			t.Errorf("engine=%v: float16 loss %.4f vs exact %.4f (Δ %.4f)", eng, f16, exact, d)
		}
	}
}

// TestAutotuneReconfiguresGradientExchange: under kfac.Options.Autotune the
// gradient exchange follows the preconditioner's Decision, not just the
// factor allreduce. On a 1 MB/s link the consensus soon selects a
// compressed level; the step after that decision is the first whose
// gradient exchange puts a different number of bytes on the wire — on both
// ranks at the same step, because the decision is a consensus output.
// Factor updates run every second step and decompositions only at step 0,
// so odd steps carry the gradient exchange alone.
func TestAutotuneReconfiguresGradientExchange(t *testing.T) {
	const world = 2
	train, test := tinyDataset(t)
	fab := comm.NewChaosFabric(comm.NewInprocFabric(world), world,
		comm.ChaosConfig{Seed: 7, BandwidthBps: 1 << 20})
	// sent[r][i] is rank r's cumulative wire bytes after step i.
	sent := make([][]int64, world)
	results, err := RunSessionsOn(context.Background(), fab, world, buildTestNet, train, test,
		append(sessionOpts(), WithEpochs(1),
			WithKFACOptions(kfac.Options{FactorUpdateFreq: 2, InvUpdateFreq: 1000,
				Damping: 0.01, Autotune: &kfac.AutotuneConfig{}}),
			OnStep(func(s *Session, info StepInfo) error {
				sent[s.Rank()] = append(sent[s.Rank()], fab.Metrics(s.Rank()).Bytes)
				return nil
			}))...)
	if err != nil {
		t.Fatal(err)
	}
	first := -1
	for _, d := range results[0].KFACStats.Snapshot().TuneDecisions {
		if d.Codec != nil {
			first = d.Step
			break
		}
	}
	if first < 0 || first+1 >= len(sent[0]) {
		t.Fatalf("no compressed decision with a step after it on a 1 MB/s link (%d steps)", len(sent[0]))
	}
	for r := 0; r < world; r++ {
		exchange := func(step int) int64 { return sent[r][step] - sent[r][step-1] }
		for step := 3; step < first; step += 2 {
			if exchange(step) != exchange(1) {
				t.Errorf("rank %d: step %d exchanged %d B before any compressed decision, step 1 %d B",
					r, step, exchange(step), exchange(1))
			}
		}
		if exchange(first+1) == exchange(1) {
			t.Errorf("rank %d: step %d after the compressed decision at step %d still exchanged %d B",
				r, first+1, first, exchange(1))
		}
	}
}
