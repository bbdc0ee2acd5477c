package ctl

import (
	"context"
	"fmt"
	"math/rand"
	"path/filepath"

	"repro/internal/checkpoint"
	"repro/internal/ckptstore"
	"repro/internal/comm"
	"repro/internal/data"
	"repro/internal/nn"
	"repro/internal/optim"
	"repro/internal/trainer"
)

// runElasticJob executes one admitted job through trainer.RunElastic on an
// in-memory fabric: every rank generates the declared synthetic dataset,
// builds the declared model, and trains under the spec's optimizer and
// K-FAC settings. Rank 0 streams step metrics into the job's ring buffer
// and files every epoch-boundary checkpoint into the content-addressed
// store (pruned under the daemon's retention policy); if the store already
// holds a checkpoint for the job — a paused run being resumed, or a daemon
// restart — training continues from it. A scripted chaos kill, when the
// spec asks for one, rides the first generation's fabric so elastic
// recovery is exercised under control-plane supervision.
func runElasticJob(ctx context.Context, d *Daemon, j *job) (*trainer.ElasticResult, error) {
	spec := j.spec
	train, test := data.GenerateSynthetic(spec.Data.config())
	buildNet := func(rng *rand.Rand) *nn.Sequential { return spec.Model.Build(rng) }

	opts := []trainer.SessionOption{
		trainer.WithEpochs(spec.Epochs),
		trainer.WithBatchPerRank(spec.BatchPerRank),
		trainer.WithLRSchedule(optim.LRSchedule{BaseLR: spec.LR, WarmupEpochs: spec.WarmupEpochs}),
		trainer.WithMomentum(spec.Momentum),
		trainer.WithWeightDecay(spec.WeightDecay),
		trainer.WithSeed(spec.Seed),
	}
	if spec.KFAC != nil {
		o, err := spec.KFAC.options(spec.World)
		if err != nil {
			return nil, err // unreachable after Validate; belt and braces
		}
		opts = append(opts, trainer.WithKFACOptions(o))
	}

	// Cross-run resume: the latest store checkpoint (if any) seeds the
	// first generation. RunElastic owns within-run recovery checkpoints.
	if latest, _, err := d.store.Latest(j.id); err != nil {
		return nil, fmt.Errorf("ctl: loading resume checkpoint: %w", err)
	} else if latest != nil {
		opts = append(opts, trainer.WithResume(latest))
	}

	// Rank 0 feeds the metrics stream.
	opts = append(opts, trainer.OnStep(func(s *trainer.Session, info trainer.StepInfo) error {
		if s.Rank() == 0 {
			j.metrics.append(StepMetric{
				Epoch:     info.Epoch,
				Iteration: info.Iteration,
				LR:        info.LR,
				Loss:      info.Loss,
				StepNS:    info.StepDuration.Nanoseconds(),
			})
		}
		return nil
	}))

	// Rank 0 files durable checkpoints into the content-addressed store.
	opts = append(opts, trainer.OnCheckpoint(func(s *trainer.Session, info trainer.CheckpointInfo) error {
		if s.Rank() != 0 {
			return nil
		}
		ck := checkpoint.Snapshot(s.Net(), info.Epoch+1, info.Iterations)
		ck.World = s.World()
		if _, _, err := d.store.Put(j.id, ck); err != nil {
			return fmt.Errorf("ctl: storing checkpoint: %w", err)
		}
		if d.cfg.Retention != (ckptstore.Policy{}) {
			if _, err := d.store.Prune(d.cfg.Retention); err != nil {
				return fmt.Errorf("ctl: pruning store: %w", err)
			}
		}
		return nil
	}))

	ecfg := trainer.ElasticConfig{
		World:           spec.World,
		MinWorld:        spec.MinWorld,
		CheckpointDir:   filepath.Join(d.cfg.ScratchDir, j.id),
		CheckpointEvery: spec.CheckpointEvery,
		Heartbeat:       d.cfg.Heartbeat,
		Log:             d.cfg.Log,
	}

	if spec.Chaos != nil {
		var chaos *comm.ChaosFabric
		ecfg.Fabric = func(gen, world int) comm.Fabric {
			if gen == 0 {
				chaos = comm.NewChaosFabric(comm.NewInprocFabric(world), world,
					comm.ChaosConfig{Seed: spec.Chaos.Seed})
				return chaos
			}
			return comm.NewInprocFabric(world)
		}
		// The scripted death: the victim stops responding at an optimizer
		// step of the configured epoch, in the initial world only (a
		// resumed or recovered world has moved past the script).
		opts = append(opts, trainer.OnStep(func(s *trainer.Session, info trainer.StepInfo) error {
			if chaos != nil && s.World() == spec.World &&
				s.Rank() == spec.Chaos.KillRank && info.Epoch == spec.Chaos.KillAtEpoch {
				chaos.Kill(spec.Chaos.KillRank)
			}
			return nil
		}))
	}

	return trainer.RunElastic(ctx, ecfg, buildNet, train, test, opts...)
}
