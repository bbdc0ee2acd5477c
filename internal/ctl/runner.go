package ctl

import (
	"context"
	"fmt"
	"math/rand"

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
// K-FAC settings. Rank 0 streams step metrics into the job's ring buffer.
// RunElastic keeps the job's checkpoints in the daemon's content-addressed
// store under the job ID — so a paused job resumes from its newest one —
// and the daemon prunes the store under its retention policy after each
// checkpoint is filed. A scripted chaos kill, when the
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

	// RunElastic files each checkpoint before this hook runs, so the
	// prune never drops the job's newest ref.
	if d.cfg.Retention != (ckptstore.Policy{}) {
		opts = append(opts, trainer.OnCheckpoint(func(s *trainer.Session, info trainer.CheckpointInfo) error {
			if s.Rank() != 0 {
				return nil
			}
			if _, err := d.store.Prune(d.cfg.Retention); err != nil {
				return fmt.Errorf("ctl: pruning store: %w", err)
			}
			return nil
		}))
	}

	ecfg := trainer.ElasticConfig{
		World:           spec.World,
		MinWorld:        spec.MinWorld,
		Store:           d.store,
		Job:             j.id,
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
