package trainer

import (
	"math/rand"
	"testing"

	"repro/internal/kfac"
)

// stopAtValAcc returns an epoch hook that ends the run once the validation
// accuracy reaches target.
func stopAtValAcc(target float64) EpochHook {
	return func(_ *Session, e EpochStats) error {
		if e.ValAcc >= target {
			return ErrStop
		}
		return nil
	}
}

// An epoch hook that returns ErrStop at a validation-accuracy target ends
// the run gracefully at the first epoch that reaches it.
func TestStopAtValAccEndsEarly(t *testing.T) {
	train, test := tinyDataset(t)
	net := buildTestNet(rand.New(rand.NewSource(1)))
	// 0.30 is above chance and reached within a few epochs.
	res := trainOne(t, net, train, test, WithEpochs(50),
		OnEpochEnd(stopAtValAcc(0.30)))
	if !res.Stopped {
		t.Fatal("expected early stop")
	}
	if len(res.History) >= 50 {
		t.Errorf("trained all %d epochs despite target", len(res.History))
	}
	if res.FinalValAcc < 0.30 {
		t.Errorf("stopped below target: %v", res.FinalValAcc)
	}
	for _, e := range res.History[:len(res.History)-1] {
		if e.ValAcc >= 0.30 {
			t.Errorf("epoch %d reached the target (%v) but training went on", e.Epoch, e.ValAcc)
		}
	}
}

func TestEpochWallTimesRecorded(t *testing.T) {
	train, test := tinyDataset(t)
	net := buildTestNet(rand.New(rand.NewSource(2)))
	res := trainOne(t, net, train, test, WithEpochs(2))
	for _, e := range res.History {
		if e.Wall <= 0 {
			t.Error("epoch wall time not recorded")
		}
	}
	if res.TotalWall <= 0 {
		t.Error("total wall time not recorded")
	}
}

func TestKFACStatsExposed(t *testing.T) {
	train, test := tinyDataset(t)
	net := buildTestNet(rand.New(rand.NewSource(4)))
	res := trainOne(t, net, train, test, WithEpochs(1),
		WithKFACOptions(kfac.Options{FactorUpdateFreq: 2, InvUpdateFreq: 4}))
	if res.KFACStats == nil {
		t.Fatal("KFACStats not surfaced")
	}
	snap := res.KFACStats.Snapshot()
	if snap.Steps != res.Iterations {
		t.Errorf("stats steps %d != iterations %d", snap.Steps, res.Iterations)
	}
	if snap.FactorUpdates == 0 || snap.EigUpdates == 0 {
		t.Error("no stage updates recorded")
	}
}

func TestSGDRunHasNoKFACStats(t *testing.T) {
	train, test := tinyDataset(t)
	net := buildTestNet(rand.New(rand.NewSource(5)))
	res := trainOne(t, net, train, test, WithEpochs(1))
	if res.KFACStats != nil {
		t.Error("SGD run should not carry K-FAC stats")
	}
}
