package trainer

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/kfac"
	"repro/internal/nn"
	"repro/internal/optim"
)

func TestStopAtValAccEndsEarly(t *testing.T) {
	train, test := tinyDataset(t)
	net := buildTestNet(rand.New(rand.NewSource(1)))
	// 0.30 is above chance and reached within a few epochs.
	res := trainOne(t, net, train, test, WithEpochs(50), WithStopAtValAcc(0.30))
	if !res.Stopped {
		t.Fatal("expected early stop")
	}
	if len(res.History) >= 50 {
		t.Errorf("trained all %d epochs despite target", len(res.History))
	}
	if res.FinalValAcc < 0.30 {
		t.Errorf("stopped below target: %v", res.FinalValAcc)
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

func TestTrackTop5(t *testing.T) {
	train, test := tinyDataset(t)
	net := buildTestNet(rand.New(rand.NewSource(3)))
	res := trainOne(t, net, train, test, WithEpochs(1), WithTop5())
	e := res.History[0]
	// Top-5 over 4 classes is always 1.0 (k clamps to class count); it must
	// be at least top-1.
	if e.ValTop5 < e.ValAcc {
		t.Errorf("top5 %v < top1 %v", e.ValTop5, e.ValAcc)
	}
	if e.ValTop5 != 1 {
		t.Errorf("top5 over 4 classes should be 1, got %v", e.ValTop5)
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

func TestGradientAccumulation(t *testing.T) {
	train, test := tinyDataset(t)
	net := buildTestNet(rand.New(rand.NewSource(6)))
	// Effective batch 32.
	res := trainOne(t, net, train, test, WithEpochs(2), WithBatchPerRank(8), WithAccumSteps(4))
	// 256 examples / 8 per micro-batch = 32 micro-batches = 8 optimizer
	// steps per epoch.
	if res.Iterations != 2*8 {
		t.Errorf("iterations = %d, want 16", res.Iterations)
	}
	if res.History[1].TrainLoss <= 0 {
		t.Error("loss not recorded under accumulation")
	}
}

func TestGradientAccumulationMatchesLargeBatchLoss(t *testing.T) {
	// One accumulated step of 2×8 must produce the same parameter update
	// as a single batch of 16 containing the same examples (linearity of
	// gradient averaging) when BatchNorm is absent.
	train, test := tinyDataset(t)
	_ = test
	buildNoBN := func(seed int64) *nn.Sequential {
		rng := rand.New(rand.NewSource(seed))
		return nn.NewSequential("nobn",
			nn.NewConv2D("c1", 1, 4, 3, 1, 1, true, rng),
			nn.NewReLU("r1"),
			nn.NewGlobalAvgPool("gap"),
			nn.NewLinear("fc", 4, 4, true, rng),
		)
	}
	run := func(batch, accum int) *nn.Sequential {
		net := buildNoBN(7)
		s, err := NewSession(net, nil, train, test, WithEpochs(1), WithBatchPerRank(batch),
			WithAccumSteps(accum), WithLRSchedule(optim.LRSchedule{BaseLR: 0.1}), WithSeed(9))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.Run(context.Background()); err != nil {
			t.Fatal(err)
		}
		return net
	}
	big := run(16, 1)
	accum := run(8, 2)
	// Shard order is identical (same seed/world), so the same examples are
	// consumed; accumulated micro-batches must match the large batch.
	bp, ap := big.Params(), accum.Params()
	for i := range bp {
		if !bp[i].Value.Equal(ap[i].Value, 1e-10) {
			t.Fatalf("parameter %s diverged between accumulation and large batch", bp[i].Name)
		}
	}
}
