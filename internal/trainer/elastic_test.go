package trainer

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/comm"
	"repro/internal/kfac"
	"repro/internal/optim"
	"repro/internal/testenv"
)

// elasticOpts is the shared session configuration for the elastic tests.
func elasticOpts(epochs int) []SessionOption {
	return []SessionOption{
		WithEpochs(epochs),
		WithBatchPerRank(16),
		WithLRSchedule(optim.LRSchedule{BaseLR: 0.05}),
		WithMomentum(0.9),
		WithSeed(5),
	}
}

// testHeartbeat is fast enough for test-scale epochs while keeping a
// comfortable margin over scheduler jitter.
var testHeartbeat = comm.HeartbeatConfig{
	Interval: 3 * time.Millisecond,
	Timeout:  60 * time.Millisecond,
}

// TestWithResumeContinuesTraining: a session resumed from an epoch-2
// checkpoint must start at epoch 2 and continue the iteration count.
func TestWithResumeContinuesTraining(t *testing.T) {
	train, test := tinyDataset(t)
	dir := t.TempDir()
	path := filepath.Join(dir, "resume.ckpt")

	s, err := NewSession(buildTestNet(rand.New(rand.NewSource(1))), nil, train, test,
		append(elasticOpts(2),
			WithCheckpointEvery(1),
			OnCheckpoint(func(s *Session, info CheckpointInfo) error {
				ck := checkpoint.Snapshot(s.Net(), info.Epoch+1, info.Iterations)
				return ck.Save(path)
			}))...)
	if err != nil {
		t.Fatal(err)
	}
	first, err := s.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	ck, err := checkpoint.Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if ck.Epoch != 2 || ck.Step != first.Iterations {
		t.Fatalf("checkpoint records epoch %d step %d, want 2/%d", ck.Epoch, ck.Step, first.Iterations)
	}

	s2, err := NewSession(buildTestNet(rand.New(rand.NewSource(1))), nil, train, test,
		append(elasticOpts(4), WithResume(ck))...)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s2.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.History) != 2 || res.History[0].Epoch != 2 || res.History[1].Epoch != 3 {
		t.Fatalf("resumed run trained epochs %+v, want exactly epochs 2 and 3", res.History)
	}
	if res.Iterations <= first.Iterations {
		t.Fatalf("resumed iterations %d did not continue from %d", res.Iterations, first.Iterations)
	}
	if res.FinalValAcc < first.FinalValAcc-0.1 {
		t.Fatalf("resumed accuracy regressed: %.3f after resume vs %.3f at checkpoint",
			res.FinalValAcc, first.FinalValAcc)
	}
}

// TestRunElasticCleanRun: with no faults the elastic runner is a plain
// multi-rank run completing in one generation.
func TestRunElasticCleanRun(t *testing.T) {
	train, test := tinyDataset(t)
	res, err := RunElastic(context.Background(), ElasticConfig{
		World:         2,
		CheckpointDir: t.TempDir(),
		Heartbeat:     testHeartbeat,
	}, buildTestNet, train, test, elasticOpts(2)...)
	if err != nil {
		t.Fatal(err)
	}
	if res.Restarts() != 0 || len(res.Generations) != 1 {
		t.Fatalf("clean run took %d generations, want 1", len(res.Generations))
	}
	if g := res.Generations[0]; g.World != 2 || g.StartEpoch != 0 || len(g.Failed) != 0 {
		t.Fatalf("generation %+v, want world 2 from epoch 0 with no failures", g)
	}
	if len(res.Result.History) != 2 {
		t.Fatalf("history has %d epochs, want 2", len(res.Result.History))
	}
}

// TestElasticKillAndRecover is the kill-and-recover integration test: rank
// 2 of 3 dies mid-epoch-1; the run must detect it by heartbeat, rebuild a
// 2-rank world with re-placed K-FAC layers, resume from the epoch-1
// checkpoint, and finish with a result comparable to a never-failed run.
func TestElasticKillAndRecover(t *testing.T) {
	train, test := tinyDataset(t)
	epochs := testenv.Scale(4, 3)
	const victim = 2

	// Baseline: the identical run with no fault injected.
	clean, err := RunElastic(context.Background(), ElasticConfig{
		World:         3,
		CheckpointDir: t.TempDir(),
		Heartbeat:     testHeartbeat,
	}, buildTestNet, train, test, elasticOpts(epochs)...)
	if err != nil {
		t.Fatal(err)
	}

	var chaos *comm.ChaosFabric
	cfg := ElasticConfig{
		World:         3,
		CheckpointDir: t.TempDir(),
		Heartbeat:     testHeartbeat,
		Fabric: func(gen, world int) comm.Fabric {
			if gen == 0 {
				chaos = comm.NewChaosFabric(comm.NewInprocFabric(world), world, comm.ChaosConfig{Seed: 3})
				return chaos
			}
			return comm.NewInprocFabric(world)
		},
	}
	// Scripted death: two optimizer steps into epoch 1, the victim stops
	// responding — mid-epoch, after the epoch-0 checkpoint exists.
	opts := append(elasticOpts(epochs), OnStep(func(s *Session, info StepInfo) error {
		if s.World() == 3 && s.Rank() == victim && info.Epoch == 1 {
			chaos.Kill(victim)
		}
		return nil
	}))

	res, err := RunElastic(context.Background(), cfg, buildTestNet, train, test, opts...)
	if err != nil {
		t.Fatal(err)
	}

	if res.Restarts() != 1 || len(res.Generations) != 2 {
		t.Fatalf("got %d generations, want 2 (one kill, one recovery)", len(res.Generations))
	}
	g0, g1 := res.Generations[0], res.Generations[1]
	if g0.World != 3 || len(g0.Failed) != 1 || g0.Failed[0] != victim {
		t.Fatalf("generation 0 = %+v, want world 3 losing rank %d", g0, victim)
	}
	if g1.World != 2 || len(g1.Failed) != 0 {
		t.Fatalf("generation 1 = %+v, want a clean 2-rank world", g1)
	}
	if g1.StartEpoch < 1 {
		t.Fatalf("recovery restarted at epoch %d: checkpoint resume did not engage", g1.StartEpoch)
	}
	if len(res.Result.History) != epochs {
		t.Fatalf("merged history has %d epochs, want %d (e.g. %+v)", len(res.Result.History), epochs, res.Result.History)
	}
	for i, e := range res.Result.History {
		if e.Epoch != i {
			t.Fatalf("merged history epoch %d at position %d", e.Epoch, i)
		}
	}

	// The recovered run must land in the same neighborhood as the
	// never-failed baseline: the resized world changes the global batch, so
	// exact equality is off the table, but both runs learn the same easy
	// task to similar loss/accuracy.
	dLoss := math.Abs(res.Result.History[epochs-1].TrainLoss - clean.Result.History[epochs-1].TrainLoss)
	if dLoss > 0.5 {
		t.Errorf("final train loss diverged after recovery: %.4f vs clean %.4f",
			res.Result.History[epochs-1].TrainLoss, clean.Result.History[epochs-1].TrainLoss)
	}
	if res.Result.FinalValAcc < clean.Result.FinalValAcc-0.25 {
		t.Errorf("final val acc collapsed after recovery: %.3f vs clean %.3f",
			res.Result.FinalValAcc, clean.Result.FinalValAcc)
	}
}

// TestElasticKillAndRecoverKFAC runs the recovery path with K-FAC enabled:
// the rebuilt 2-rank world must re-place factors and keep training
// (distributed placement for world 3 would deadlock a 2-rank world, so
// finishing at all proves re-placement ran).
func TestElasticKillAndRecoverKFAC(t *testing.T) {
	// Runs in reduced-iteration mode too (never skipped): this is the only
	// test of heartbeat-triggered recovery with K-FAC re-placement, a
	// concurrency-heavy path the race job must cover.
	epochs := testenv.Scale(3, 2)
	train, test := tinyDataset(t)
	const victim = 1
	var chaos *comm.ChaosFabric
	cfg := ElasticConfig{
		World:         2,
		CheckpointDir: t.TempDir(),
		Heartbeat:     testHeartbeat,
		Fabric: func(gen, world int) comm.Fabric {
			if gen == 0 {
				chaos = comm.NewChaosFabric(comm.NewInprocFabric(world), world, comm.ChaosConfig{Seed: 4})
				return chaos
			}
			return comm.NewInprocFabric(world)
		},
	}
	opts := append(elasticOpts(epochs),
		WithKFACOptions(kfac.Options{}), // paper defaults; RoundRobin placement across the world
		OnStep(func(s *Session, info StepInfo) error {
			if s.World() == 2 && s.Rank() == victim && info.Epoch == 1 {
				chaos.Kill(victim)
			}
			return nil
		}))
	res, err := RunElastic(context.Background(), cfg, buildTestNet, train, test, opts...)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Generations) != 2 || res.Generations[1].World != 1 {
		t.Fatalf("generations %+v, want recovery to a 1-rank world", res.Generations)
	}
	if len(res.Result.History) != epochs {
		t.Fatalf("history %+v, want %d epochs", res.Result.History, epochs)
	}
}

// TestElasticBelowMinWorld: losing too many ranks must abort with a
// MinWorld error, not retry forever.
func TestElasticBelowMinWorld(t *testing.T) {
	train, test := tinyDataset(t)
	var chaos *comm.ChaosFabric
	cfg := ElasticConfig{
		World:         2,
		MinWorld:      2,
		CheckpointDir: t.TempDir(),
		Heartbeat:     testHeartbeat,
		Fabric: func(gen, world int) comm.Fabric {
			chaos = comm.NewChaosFabric(comm.NewInprocFabric(world), world, comm.ChaosConfig{Seed: 5})
			return chaos
		},
	}
	opts := append(elasticOpts(3), OnStep(func(s *Session, info StepInfo) error {
		if s.Rank() == 1 && info.Iteration == 2 {
			chaos.Kill(1)
		}
		return nil
	}))
	_, err := RunElastic(context.Background(), cfg, buildTestNet, train, test, opts...)
	if err == nil || !strings.Contains(err.Error(), "MinWorld") {
		t.Fatalf("got %v, want MinWorld violation", err)
	}
}

// TestRunSessionsOnAbortsPeersOnRankFailure: when one rank dies on a
// chaos fabric, RunSessionsOn must surface the failure instead of leaving
// the surviving ranks blocked forever mid-collective (regression: peers
// used to hang on a Background-context receive).
func TestRunSessionsOnAbortsPeersOnRankFailure(t *testing.T) {
	train, test := tinyDataset(t)
	fab := comm.NewChaosFabric(comm.NewInprocFabric(2), 2, comm.ChaosConfig{
		Seed:  1,
		Kills: []comm.KillSpec{{Rank: 1, AfterSends: 3}},
	})
	done := make(chan error, 1)
	go func() {
		_, err := RunSessionsOn(context.Background(), fab, 2, buildTestNet, train, test, elasticOpts(2)...)
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("run with a killed rank reported success")
		}
	case <-time.After(30 * time.Second):
		t.Fatal("RunSessionsOn hung after a rank death (peer abort did not fire)")
	}
}

// TestRunElasticIgnoresStaleCheckpoint: a leftover elastic.ckpt from a
// previous run in the same directory must not fast-forward (or skip) a
// fresh run.
func TestRunElasticIgnoresStaleCheckpoint(t *testing.T) {
	train, test := tinyDataset(t)
	dir := t.TempDir()
	cfg := ElasticConfig{World: 2, CheckpointDir: dir, Heartbeat: testHeartbeat}
	first, err := RunElastic(context.Background(), cfg, buildTestNet, train, test, elasticOpts(2)...)
	if err != nil {
		t.Fatal(err)
	}
	if len(first.Result.History) != 2 {
		t.Fatalf("first run trained %d epochs, want 2", len(first.Result.History))
	}
	// The finished run left a checkpoint at Epoch == Epochs; a rerun must
	// still train from scratch, not return an empty result.
	second, err := RunElastic(context.Background(), cfg, buildTestNet, train, test, elasticOpts(2)...)
	if err != nil {
		t.Fatal(err)
	}
	if len(second.Result.History) != 2 || second.Generations[0].StartEpoch != 0 {
		t.Fatalf("rerun resumed from a stale checkpoint: history %d epochs, start epoch %d",
			len(second.Result.History), second.Generations[0].StartEpoch)
	}
}

// TestResumePastConfiguredEpochsErrs: resuming from a checkpoint that
// already covers every configured epoch must fail loudly with
// ErrResumeComplete, not silently return a zeroed Result.
func TestResumePastConfiguredEpochsErrs(t *testing.T) {
	train, test := tinyDataset(t)
	ck := checkpoint.Snapshot(buildTestNet(rand.New(rand.NewSource(1))), 2, 32)
	s, err := NewSession(buildTestNet(rand.New(rand.NewSource(1))), nil, train, test,
		append(elasticOpts(2), WithResume(ck))...)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run(context.Background())
	if !errors.Is(err, ErrResumeComplete) {
		t.Fatalf("got %v, want ErrResumeComplete", err)
	}
	if res == nil || res.Iterations != 32 {
		t.Fatalf("result %+v, want the checkpoint's iteration count carried through", res)
	}
}
