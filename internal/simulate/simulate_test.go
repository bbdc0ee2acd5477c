package simulate

import (
	"math"
	"testing"

	"repro/internal/kfac"
	"repro/internal/models"
)

func r50Model() *Model {
	return NewModel(DefaultV100Cluster(), ImageNetWorkload(models.ResNet50Catalog()))
}

func r152Model() *Model {
	return NewModel(DefaultV100Cluster(), ImageNetWorkload(models.ResNet152Catalog()))
}

func TestIterationsPerEpoch(t *testing.T) {
	m := r50Model()
	if got := m.IterationsPerEpoch(16); got != 2503 { // ceil(1281167/512)
		t.Errorf("iters/epoch @16 = %d, want 2503", got)
	}
	if got := m.IterationsPerEpoch(256); got != 157 {
		t.Errorf("iters/epoch @256 = %d, want 157", got)
	}
}

func TestSGDIterTimeMatchesPaperTable3(t *testing.T) {
	// Paper Table III: ResNet-50 SGD on 64 GPUs = 178 min for 90 epochs.
	m := r50Model()
	got := m.TimeToSolutionMin(RunSpec{GPUs: 64, Epochs: 90})
	if got < 150 || got > 210 {
		t.Errorf("SGD R50@64 = %.0f min, want ≈ 178 (±20%%)", got)
	}
	// ResNet-152 SGD on 64 GPUs = 345 min.
	m152 := r152Model()
	got152 := m152.TimeToSolutionMin(RunSpec{GPUs: 64, Epochs: 90})
	if got152 < 300 || got152 > 400 {
		t.Errorf("SGD R152@64 = %.0f min, want ≈ 345 (±15%%)", got152)
	}
}

func TestKFACTimeMatchesPaperTable3(t *testing.T) {
	// Paper Table III @64 GPUs, K-FAC 55 epochs:
	// R50 freq500 = 128 min; R152 freq500 = 310 min.
	m := r50Model()
	got := m.TimeToSolutionMin(RunSpec{GPUs: 64, Epochs: 55, KFAC: true, InvFreq: 500})
	if got < 110 || got > 160 {
		t.Errorf("K-FAC R50@64 freq500 = %.0f min, want ≈ 128 (±25%%)", got)
	}
	got152 := r152Model().TimeToSolutionMin(RunSpec{GPUs: 64, Epochs: 55, KFAC: true, InvFreq: 500})
	if got152 < 270 || got152 > 360 {
		t.Errorf("K-FAC R152@64 freq500 = %.0f min, want ≈ 310 (±15%%)", got152)
	}
}

func TestUpdateFreqMonotone(t *testing.T) {
	// Larger decomposition intervals must never be slower (Table III rows).
	m := r50Model()
	prev := math.Inf(1)
	for _, f := range []int{100, 500, 1000} {
		v := m.TimeToSolutionMin(RunSpec{GPUs: 64, Epochs: 55, KFAC: true, InvFreq: f})
		if v > prev {
			t.Errorf("time increased with update freq %d: %v > %v", f, v, prev)
		}
		prev = v
	}
}

func TestOptBeatsLwAcrossScales(t *testing.T) {
	// Figure 7: K-FAC-opt ≥ K-FAC-lw (lower time) at every scale.
	m := r50Model()
	for _, p := range []int{16, 32, 64, 128, 256} {
		opt := m.TimeToSolutionMin(RunSpec{GPUs: p, Epochs: 55, KFAC: true, Strategy: kfac.RoundRobin})
		lw := m.TimeToSolutionMin(RunSpec{GPUs: p, Epochs: 55, KFAC: true, Strategy: kfac.LayerWise})
		if opt > lw {
			t.Errorf("p=%d: opt %.0f min slower than lw %.0f min", p, opt, lw)
		}
	}
}

func TestKFACOptBeatsSGDOnResNet50(t *testing.T) {
	// Headline result: K-FAC-opt reaches its 55-epoch budget faster than
	// SGD's 90 at every scale in Figure 7.
	m := r50Model()
	for _, p := range []int{16, 32, 64, 128, 256} {
		sgd := m.TimeToSolutionMin(RunSpec{GPUs: p, Epochs: 90})
		opt := m.TimeToSolutionMin(RunSpec{GPUs: p, Epochs: 55, KFAC: true})
		improvement := (sgd - opt) / sgd
		if improvement <= 0 {
			t.Errorf("p=%d: K-FAC-opt not faster than SGD (%.1f%%)", p, improvement*100)
		}
		if p == 64 && (improvement < 0.10 || improvement > 0.35) {
			t.Errorf("p=64 improvement %.1f%%, paper reports 25.2%%", improvement*100)
		}
	}
}

func TestResNet152CrossoverAt256(t *testing.T) {
	// Figure 9 / Table IV: K-FAC-opt is slower than SGD for ResNet-152 at
	// 256 GPUs (paper: −11.1%), while still faster at ≤128.
	m := r152Model()
	sgd256 := m.TimeToSolutionMin(RunSpec{GPUs: 256, Epochs: 90})
	opt256 := m.TimeToSolutionMin(RunSpec{GPUs: 256, Epochs: 55, KFAC: true})
	if opt256 <= sgd256 {
		t.Errorf("expected crossover at 256 GPUs: opt %.0f vs SGD %.0f", opt256, sgd256)
	}
	sgd64 := m.TimeToSolutionMin(RunSpec{GPUs: 64, Epochs: 90})
	opt64 := m.TimeToSolutionMin(RunSpec{GPUs: 64, Epochs: 55, KFAC: true})
	if opt64 >= sgd64 {
		t.Errorf("K-FAC should still win at 64 GPUs: opt %.0f vs SGD %.0f", opt64, sgd64)
	}
}

func TestImprovementDeterioratesWithModelSize(t *testing.T) {
	// Table IV row order: at 64 GPUs, improvement R50 > R101 > R152.
	var imps []float64
	for _, cat := range []*models.Catalog{
		models.ResNet50Catalog(), models.ResNet101Catalog(), models.ResNet152Catalog(),
	} {
		m := NewModel(DefaultV100Cluster(), ImageNetWorkload(cat))
		sgd := m.TimeToSolutionMin(RunSpec{GPUs: 64, Epochs: 90})
		opt := m.TimeToSolutionMin(RunSpec{GPUs: 64, Epochs: 55, KFAC: true})
		imps = append(imps, (sgd-opt)/sgd)
	}
	if !(imps[0] > imps[1] && imps[1] > imps[2]) {
		t.Errorf("improvements not decreasing with model size: %v", imps)
	}
}

func TestFactorStageComputeConstantInP(t *testing.T) {
	// Table V: factor Tcomp is independent of GPU count.
	m := r50Model()
	c16, _ := m.FactorStage(16)
	c64, _ := m.FactorStage(64)
	if c16 != c64 {
		t.Errorf("factor compute varies with p: %v vs %v", c16, c64)
	}
}

func TestFactorComputeSuperlinearInModel(t *testing.T) {
	// Figure 10: factor compute grows super-linearly with parameter count.
	m50 := r50Model()
	m152 := r152Model()
	c50, _ := m50.FactorStage(16)
	c152, _ := m152.FactorStage(16)
	paramRatio := float64(models.ResNet152Catalog().TotalParams()) /
		float64(models.ResNet50Catalog().TotalParams()) // ≈ 2.35
	timeRatio := c152 / c50
	if timeRatio <= paramRatio {
		t.Errorf("factor compute ratio %.2f not super-linear vs param ratio %.2f",
			timeRatio, paramRatio)
	}
}

func TestEigStageDecreasesWithWorkers(t *testing.T) {
	// Table V: eig Tcomp decreases (sub-linearly) as workers increase.
	m := r50Model()
	e16, _ := m.EigStage(16, kfac.RoundRobin)
	e64, _ := m.EigStage(64, kfac.RoundRobin)
	if e64 >= e16 {
		t.Errorf("eig stage did not shrink: %v → %v", e16, e64)
	}
	// But far from the 4× ideal, because of load imbalance.
	if e16/e64 > 3 {
		t.Errorf("eig stage scaled too ideally (%.2fx): imbalance missing", e16/e64)
	}
}

func TestWorkerEigImbalanceMatchesTable6Shape(t *testing.T) {
	// Table VI: from 16→64 GPUs the fastest worker speeds up 6–8×, the
	// slowest only 1.3–1.9×, for all three models under round-robin.
	for _, cat := range []*models.Catalog{
		models.ResNet50Catalog(), models.ResNet101Catalog(), models.ResNet152Catalog(),
	} {
		m := NewModel(DefaultV100Cluster(), ImageNetWorkload(cat))
		t16 := m.WorkerEigTimes(16, kfac.RoundRobin)
		t64 := m.WorkerEigTimes(64, kfac.RoundRobin)
		min16, max16 := minMax(t16)
		min64, max64 := minMax(t64)
		minSpeedup := max16 / max64 // slowest-worker improvement
		maxSpeedup := min16 / min64 // fastest-worker improvement
		if minSpeedup < 1.0 || minSpeedup > 3.0 {
			t.Errorf("%s: slowest-worker speedup %.2f outside Table VI ballpark [1,3]",
				cat.Name, minSpeedup)
		}
		if maxSpeedup < 3.0 {
			t.Errorf("%s: fastest-worker speedup %.2f, want ≥ 3 (paper 6.2–8.3)",
				cat.Name, maxSpeedup)
		}
		if maxSpeedup <= minSpeedup {
			t.Errorf("%s: no imbalance spread (min %.2f, max %.2f)",
				cat.Name, minSpeedup, maxSpeedup)
		}
	}
}

func minMax(v []float64) (lo, hi float64) {
	lo, hi = math.Inf(1), math.Inf(-1)
	for _, x := range v {
		// Idle workers (zero load) are excluded, as the paper measures
		// workers with assigned factors.
		if x == 0 {
			continue
		}
		if x < lo {
			lo = x
		}
		if x > hi {
			hi = x
		}
	}
	return lo, hi
}

func TestSizeGreedyReducesEigStage(t *testing.T) {
	// The paper's proposed future-work placement should cut the slowest
	// worker's eig time relative to round-robin at high worker counts.
	m := r152Model()
	rr, _ := m.EigStage(64, kfac.RoundRobin)
	gr, _ := m.EigStage(64, kfac.SizeGreedy)
	if gr > rr {
		t.Errorf("size-greedy eig stage %.3f worse than round-robin %.3f", gr, rr)
	}
}

func TestScalingEfficiencyDeclines(t *testing.T) {
	m := r50Model()
	spec := RunSpec{Epochs: 90}
	eff128 := m.ScalingEfficiency(withGPUs(spec, 128), 16)
	eff256 := m.ScalingEfficiency(withGPUs(spec, 256), 16)
	if eff128 <= eff256 {
		t.Errorf("efficiency should decline with scale: %0.2f @128 vs %0.2f @256", eff128, eff256)
	}
	if eff256 >= 0.5 {
		t.Errorf("paper: efficiency < 50%% at 256 GPUs, model gives %.0f%%", eff256*100)
	}
	if eff128 < 0.55 || eff128 > 0.85 {
		t.Errorf("eff @128 = %.0f%%, paper ≈ 68.6%%", eff128*100)
	}
}

func withGPUs(s RunSpec, p int) RunSpec { s.GPUs = p; return s }

func TestPaperInvFreq(t *testing.T) {
	want := map[int]int{16: 2000, 32: 1000, 64: 500, 128: 250, 256: 125}
	for p, f := range want {
		if got := PaperInvFreq(p); got != f {
			t.Errorf("PaperInvFreq(%d) = %d, want %d", p, got, f)
		}
	}
}

func TestCommPrimitiveCosts(t *testing.T) {
	topo := DefaultV100Cluster().Topology(32)
	if topo.RingAllreduceCost(1e6, 1) != 0 {
		t.Error("single-rank allreduce should be free")
	}
	if topo.BroadcastCost(1e6, 0, 0, 1) != 0 {
		t.Error("single-rank broadcast should be free")
	}
	if topo.BroadcastCost(1e6, 0, 7, 8) <= 0 {
		t.Error("broadcast must cost time")
	}
}

func TestConvergenceEndpoints(t *testing.T) {
	if FinalAccSGD("resnet50") != 0.762 {
		t.Error("SGD R50 endpoint wrong")
	}
	if FinalAccKFAC("resnet50", 100) != 0.762 {
		t.Error("K-FAC R50 @100 should match SGD per Table III")
	}
	// Freq 1000 dips below the MLPerf baseline for R50 (75.5% in Table III).
	acc1000 := FinalAccKFAC("resnet50", 1000)
	if acc1000 >= 0.759 {
		t.Errorf("R50 @1000 = %.3f, should drop below 0.759", acc1000)
	}
	// Freq 500 stays above baseline.
	if FinalAccKFAC("resnet50", 500) < 0.759 {
		t.Error("R50 @500 should stay above the MLPerf baseline")
	}
	// Unknown models get defaults.
	if FinalAccSGD("vgg") != 0.76 || FinalAccKFAC("vgg", 10000) >= 0.76 {
		t.Error("default endpoints wrong")
	}
}

func TestStalenessPenaltyMonotone(t *testing.T) {
	prev := -1.0
	for _, f := range []int{10, 100, 200, 500, 1000, 2000} {
		p := StalenessPenalty("resnet50", f)
		if p < prev {
			t.Errorf("penalty decreased at freq %d", f)
		}
		prev = p
	}
	if StalenessPenalty("resnet50", 50) != 0 {
		t.Error("no penalty expected below 100 iterations")
	}
}

func TestAccuracyCurveShape(t *testing.T) {
	kf, sgd := ResNet50Curves()
	if len(kf) != 55 || len(sgd) != 90 {
		t.Fatalf("curve lengths = %d, %d", len(kf), len(sgd))
	}
	if kf[54] != 0.764 || sgd[89] != 0.762 {
		t.Errorf("final accs = %v, %v", kf[54], sgd[89])
	}
	// Paper: K-FAC crosses 75.9% near epoch 43, SGD near epoch 76.
	ek := EpochsToReach(kf, 0.759)
	es := EpochsToReach(sgd, 0.759)
	if ek < 35 || ek > 50 {
		t.Errorf("K-FAC reaches baseline at epoch %d, paper: 43", ek)
	}
	if es < 65 || es > 85 {
		t.Errorf("SGD reaches baseline at epoch %d, paper: 76", es)
	}
	if ek >= es {
		t.Error("K-FAC must reach the baseline before SGD")
	}
	// Curves are within [0, final] and never NaN.
	for _, v := range append(append([]float64{}, kf...), sgd...) {
		if math.IsNaN(v) || v < 0 || v > 0.765 {
			t.Fatalf("curve value out of range: %v", v)
		}
	}
}

func TestEpochsToReachNotFound(t *testing.T) {
	if EpochsToReach([]float64{0.1, 0.2}, 0.5) != -1 {
		t.Error("unreached threshold should return -1")
	}
}

func TestAccuracyCurveDefaults(t *testing.T) {
	c := AccuracyCurve(CurveConfig{FinalAcc: 0.9, Epochs: 20})
	if len(c) != 20 || c[19] != 0.9 {
		t.Errorf("default curve = len %d final %v", len(c), c[len(c)-1])
	}
}
