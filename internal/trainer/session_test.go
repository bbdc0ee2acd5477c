package trainer

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/comm"
	"repro/internal/data"
	"repro/internal/nn"
	"repro/internal/optim"
)

// sessionOpts are the options every trainer test starts from.
func sessionOpts() []SessionOption {
	return []SessionOption{
		WithEpochs(3),
		WithBatchPerRank(16),
		WithLRSchedule(optim.LRSchedule{BaseLR: 0.05, WarmupEpochs: 1}),
		WithMomentum(0.9),
		WithSeed(5),
	}
}

// Cancelling mid-epoch must return context.Canceled on every rank, with
// every rank stopping at the same iteration boundary and no deadlock.
func TestSessionCancellationAllRanksSameBoundary(t *testing.T) {
	const world = 3
	const cancelAt = 3 // optimizer steps before rank 0 cancels
	train, test := tinyDataset(t)
	fab := comm.NewInprocFabric(world)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	results := make([]*Result, world)
	errs := make([]error, world)
	var wg sync.WaitGroup
	for r := 0; r < world; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			net := buildTestNet(rand.New(rand.NewSource(12345)))
			c := comm.NewCommunicator(fab.Endpoint(r))
			opts := append(sessionOpts(), WithEpochs(5), WithBatchPerRank(8))
			if r == 0 {
				opts = append(opts, OnStep(func(s *Session, info StepInfo) error {
					if info.Iteration == cancelAt {
						cancel()
					}
					return nil
				}))
			}
			s, err := NewSession(net, c, train, test, opts...)
			if err != nil {
				errs[r] = err
				return
			}
			results[r], errs[r] = s.Run(ctx)
		}(r)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("ranks deadlocked after cancellation")
	}

	for r := 0; r < world; r++ {
		if !errors.Is(errs[r], context.Canceled) {
			t.Errorf("rank %d returned %v, want context.Canceled", r, errs[r])
		}
		if results[r] == nil {
			t.Fatalf("rank %d returned no partial result", r)
		}
		if results[r].Iterations != cancelAt {
			t.Errorf("rank %d stopped after %d iterations, want %d (same boundary on every rank)",
				r, results[r].Iterations, cancelAt)
		}
	}

	// The communicator stayed synchronized: a fresh collective still works.
	var barrierWG sync.WaitGroup
	barrierErrs := make([]error, world)
	for r := 0; r < world; r++ {
		barrierWG.Add(1)
		go func(r int) {
			defer barrierWG.Done()
			barrierErrs[r] = comm.NewCommunicator(fab.Endpoint(r)).AllreduceSum([]float64{1})
		}(r)
	}
	barrierWG.Wait()
	for r, err := range barrierErrs {
		if err != nil {
			t.Errorf("post-cancel barrier failed on rank %d: %v", r, err)
		}
	}
}

// A context cancelled before Run starts must stop training before the
// first optimizer step.
func TestSessionPreCancelledContext(t *testing.T) {
	train, test := tinyDataset(t)
	net := buildTestNet(rand.New(rand.NewSource(1)))
	s, err := NewSession(net, nil, train, test, sessionOpts()...)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := s.Run(ctx)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if res.Iterations != 0 {
		t.Errorf("took %d steps under a pre-cancelled context", res.Iterations)
	}
}

// StepInfo carries the per-step loss and wall time, so metrics consumers
// (the kfacd daemon's stream) need no side channels. The loss must agree
// with the epoch-level average the session already reports.
func TestStepInfoCarriesLossAndDuration(t *testing.T) {
	train, test := tinyDataset(t)
	net := buildTestNet(rand.New(rand.NewSource(7)))
	var infos []StepInfo
	s, err := NewSession(net, nil, train, test, append(sessionOpts(), WithEpochs(1),
		OnStep(func(s *Session, info StepInfo) error {
			infos = append(infos, info)
			return nil
		}))...)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(infos) != res.Iterations {
		t.Fatalf("observed %d steps, want %d", len(infos), res.Iterations)
	}
	var lossSum float64
	for i, info := range infos {
		if info.Loss <= 0 {
			t.Errorf("step %d: loss %v, want > 0 on a fresh model", i, info.Loss)
		}
		if info.StepDuration <= 0 {
			t.Errorf("step %d: duration %v, want > 0", i, info.StepDuration)
		}
		lossSum += info.Loss
	}
	// Single-process: the epoch's TrainLoss is exactly the mean of the
	// per-step losses.
	want := res.History[0].TrainLoss
	if got := lossSum / float64(len(infos)); got != want {
		t.Errorf("mean per-step loss %v != epoch TrainLoss %v", got, want)
	}
}

// StepInfo.Loss is the cross-entropy of the step's own mini-batch. At a zero
// learning rate the weights never move, so a fresh replica reproduces each
// step's training-mode forward pass over the same shard order.
func TestStepInfoLossIsBatchCrossEntropy(t *testing.T) {
	train, test := tinyDataset(t)
	const batch, seed = 8, 5
	net := buildTestNet(rand.New(rand.NewSource(8)))
	ref := buildTestNet(rand.New(rand.NewSource(8)))
	var losses []float64
	s, err := NewSession(net, nil, train, test,
		WithEpochs(1), WithBatchPerRank(batch), WithSeed(seed), WithLRSchedule(optim.LRSchedule{}),
		OnStep(func(s *Session, info StepInfo) error {
			losses = append(losses, info.Loss)
			return nil
		}))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	sampler := data.ShardSampler{N: train.Len(), World: 1, Seed: seed}
	batches := data.Batches(train, sampler.EpochIndices(0), batch)
	if len(losses) != len(batches) {
		t.Fatalf("observed %d steps, want one per mini-batch (%d)", len(losses), len(batches))
	}
	for i, b := range batches {
		want, _ := nn.CrossEntropy{}.Loss(ref.Forward(b.X, true), b.Labels)
		if losses[i] != want {
			t.Errorf("step %d: loss %v, want the batch's cross-entropy %v", i, losses[i], want)
		}
	}
}

// Hooks of each kind run in registration order, and option-installed stock
// hooks honor option position.
func TestHookOrdering(t *testing.T) {
	train, test := tinyDataset(t)
	net := buildTestNet(rand.New(rand.NewSource(2)))
	var order []string
	s, err := NewSession(net, nil, train, test, append(sessionOpts(),
		WithEpochs(1),
		OnEpochEnd(func(s *Session, e EpochStats) error {
			order = append(order, "epoch-a")
			return nil
		}),
		OnEpochEnd(func(s *Session, e EpochStats) error {
			order = append(order, "epoch-b")
			return nil
		}),
		OnCheckpoint(func(s *Session, info CheckpointInfo) error {
			order = append(order, "ckpt")
			return nil
		}))...)
	if err != nil {
		t.Fatal(err)
	}
	first := true
	s.OnStep(func(s *Session, info StepInfo) error {
		if first {
			order = append(order, "step")
			first = false
		}
		return nil
	})
	if _, err := s.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	want := "step,epoch-a,epoch-b,ckpt"
	if got := strings.Join(order, ","); got != want {
		t.Errorf("hook order = %q, want %q", got, want)
	}
}

// ErrStop from an epoch hook ends the run gracefully with Stopped set.
func TestEpochHookErrStop(t *testing.T) {
	train, test := tinyDataset(t)
	net := buildTestNet(rand.New(rand.NewSource(3)))
	s, err := NewSession(net, nil, train, test, append(sessionOpts(), WithEpochs(50),
		OnEpochEnd(func(s *Session, e EpochStats) error {
			if e.Epoch >= 1 {
				return ErrStop
			}
			return nil
		}))...)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !res.Stopped {
		t.Error("Stopped not set after ErrStop")
	}
	if len(res.History) != 2 {
		t.Errorf("trained %d epochs, want 2", len(res.History))
	}
}

// ErrStop from a step hook is honored at the epoch boundary.
func TestStepHookErrStopHonoredAtEpochBoundary(t *testing.T) {
	train, test := tinyDataset(t)
	net := buildTestNet(rand.New(rand.NewSource(4)))
	s, err := NewSession(net, nil, train, test, append(sessionOpts(), WithEpochs(5),
		OnStep(func(s *Session, info StepInfo) error {
			if info.Iteration == 2 {
				return ErrStop
			}
			return nil
		}))...)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !res.Stopped || len(res.History) != 1 {
		t.Errorf("stopped=%v history=%d, want graceful stop after epoch 0", res.Stopped, len(res.History))
	}
}

// A non-ErrStop hook error aborts the run with that error.
func TestHookErrorAbortsRun(t *testing.T) {
	train, test := tinyDataset(t)
	net := buildTestNet(rand.New(rand.NewSource(5)))
	boom := errors.New("boom")
	s, err := NewSession(net, nil, train, test, append(sessionOpts(),
		OnEpochEnd(func(s *Session, e EpochStats) error { return boom }))...)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(context.Background()); !errors.Is(err, boom) {
		t.Errorf("err = %v, want boom", err)
	}
}

func TestCheckpointHookCadence(t *testing.T) {
	train, test := tinyDataset(t)
	net := buildTestNet(rand.New(rand.NewSource(6)))
	var at []int
	s, err := NewSession(net, nil, train, test, append(sessionOpts(),
		WithEpochs(5), WithCheckpointEvery(2),
		OnCheckpoint(func(s *Session, info CheckpointInfo) error {
			at = append(at, info.Epoch)
			return nil
		}))...)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	want := []int{1, 3, 4} // every 2nd epoch, plus the final epoch
	if fmt.Sprint(at) != fmt.Sprint(want) {
		t.Errorf("checkpoints at %v, want %v", at, want)
	}
}

// ErrStop from a checkpoint hook also stops the run gracefully.
func TestCheckpointHookErrStop(t *testing.T) {
	train, test := tinyDataset(t)
	net := buildTestNet(rand.New(rand.NewSource(9)))
	s, err := NewSession(net, nil, train, test, append(sessionOpts(),
		WithEpochs(10), WithCheckpointEvery(1),
		OnCheckpoint(func(s *Session, info CheckpointInfo) error {
			if info.Epoch >= 1 {
				return ErrStop
			}
			return nil
		}))...)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !res.Stopped || len(res.History) != 2 {
		t.Errorf("stopped=%v history=%d, want graceful stop after epoch 1", res.Stopped, len(res.History))
	}
}

// The stop hook also works when registered with the Session.OnEpochEnd
// method after construction rather than passed as an option.
func TestStockStopHook(t *testing.T) {
	train, test := tinyDataset(t)
	net := buildTestNet(rand.New(rand.NewSource(1)))
	s, err := NewSession(net, nil, train, test, append(sessionOpts(), WithEpochs(50))...)
	if err != nil {
		t.Fatal(err)
	}
	s.OnEpochEnd(stopAtValAcc(0.30))
	res, err := s.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !res.Stopped || res.FinalValAcc < 0.30 {
		t.Errorf("stopped=%v acc=%v", res.Stopped, res.FinalValAcc)
	}
}

func TestNewSessionValidation(t *testing.T) {
	train, test := tinyDataset(t)
	net := buildTestNet(rand.New(rand.NewSource(8)))
	if _, err := NewSession(net, nil, train, test); err == nil {
		t.Error("expected error without epochs/batch")
	}
	if _, err := NewSession(nil, nil, train, test, sessionOpts()...); err == nil {
		t.Error("expected error for nil net")
	}
}

func TestEpochsToReachEdgeCases(t *testing.T) {
	empty := &Result{}
	if got := empty.EpochsToReach(0.1); got != -1 {
		t.Errorf("empty history: %d, want -1", got)
	}
	r := &Result{History: []EpochStats{
		{Epoch: 0, ValAcc: 0.5},
		{Epoch: 1, ValAcc: 0.7},
		{Epoch: 2, ValAcc: 0.6}, // regression after the peak
	}}
	// 1-based: the threshold met at zero-based epoch 0 reports 1.
	if got := r.EpochsToReach(0.5); got != 1 {
		t.Errorf("first-epoch reach: %d, want 1", got)
	}
	// Exact equality counts as reached.
	if got := r.EpochsToReach(0.7); got != 2 {
		t.Errorf("exact threshold: %d, want 2", got)
	}
	// The first reaching epoch wins even if accuracy later regresses.
	if got := r.EpochsToReach(0.65); got != 2 {
		t.Errorf("first reach: %d, want 2", got)
	}
	if got := r.EpochsToReach(0.95); got != -1 {
		t.Errorf("never reached: %d, want -1", got)
	}
}
