// Elastic fault-tolerant training: RunElastic supervises a multi-rank run
// through rank failures. Each attempt (a "generation") trains a world of
// sessions with heartbeat failure detection; when a rank dies, the
// surviving ranks hard-abort, the supervisor rebuilds a resized world —
// fresh communicators, re-run K-FAC factor placement, shard sampler for
// the new rank count — and training resumes from the job's latest
// checkpoint in a ckptstore.Store, the run's only checkpoint copy.
//
// The division of labor with the cancellation contract
// (docs/ARCHITECTURE.md): within a generation the SPMD collective
// schedule is sacred, so failure detection is out-of-band (heartbeats)
// and recovery is by teardown-and-rebuild, never by patching a live
// communicator. Work since the last checkpoint is replayed, not
// recovered; everything before it is durable.
package trainer

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"sort"

	"repro/internal/checkpoint"
	"repro/internal/ckptstore"
	"repro/internal/comm"
	"repro/internal/data"
	"repro/internal/nn"
)

// ElasticConfig configures a fault-tolerant run.
type ElasticConfig struct {
	// World is the initial rank count (required, ≥ 1).
	World int
	// MinWorld aborts recovery when survivors drop below it (default 1).
	MinWorld int
	// Store and Job (both required) hold the run's checkpoints: every
	// generation resumes from Store.Latest(Job) — epoch 0 when the job has
	// none — and rank 0 files each one with Store.Put(Job, …).
	Store *ckptstore.Store
	Job   string
	// CheckpointEvery is the epoch interval between recovery checkpoints
	// (default 1: every epoch boundary is durable).
	CheckpointEvery int
	// Heartbeat tunes failure detection (zero values take the
	// comm.HeartbeatConfig defaults). The timeout bounds how long
	// survivors block on a dead peer before recovery starts.
	Heartbeat comm.HeartbeatConfig
	// Fabric, when non-nil, supplies the transport for each generation —
	// the hook through which tests and the chaos CLI inject a
	// comm.ChaosFabric. Defaults to a fresh in-process fabric per
	// generation.
	Fabric func(gen, world int) comm.Fabric
	// Log, when non-nil, receives one line per generation transition.
	Log io.Writer
}

// Generation records one attempt of an elastic run.
type Generation struct {
	// World is the rank count this generation ran with.
	World int
	// StartEpoch is the epoch training (re)started at: the completed-epoch
	// count of the job's latest checkpoint, 0 when it has none.
	StartEpoch int
	// Failed lists the ranks (in this generation's numbering) that died.
	// Empty for the generation that completed the run.
	Failed []int
}

// ElasticResult is the outcome of a fault-tolerant run.
type ElasticResult struct {
	// Result merges rank 0's per-generation results: History holds each
	// epoch's final (post-replay) stats in epoch order, and the scalar
	// fields reflect the finishing generation.
	Result *Result
	// Generations records every attempt, in order; the last one has no
	// failures.
	Generations []Generation
}

func (cfg *ElasticConfig) fillDefaults() error {
	if cfg.World < 1 {
		return fmt.Errorf("trainer: elastic World must be ≥ 1")
	}
	if cfg.Store == nil || cfg.Job == "" {
		return fmt.Errorf("trainer: elastic Store and Job are required")
	}
	if cfg.MinWorld < 1 {
		cfg.MinWorld = 1
	}
	if cfg.CheckpointEvery < 1 {
		cfg.CheckpointEvery = 1
	}
	return nil
}

// RunElastic trains to completion through rank failures. buildNet and the
// session options carry the same contract as RunSessions (identical on
// every rank); opts must include WithEpochs and WithBatchPerRank, and any
// WithResume or WithCheckpointEvery in them is overridden. Rank 0 files each
// checkpoint before the caller's OnCheckpoint hooks run. Cancelling ctx
// stops every rank cooperatively at one iteration boundary. Returns the
// merged result once a generation completes, or the first unrecoverable
// error (an unreadable latest checkpoint, survivors below MinWorld, restart
// budget exhausted, a non-failure training error, or ctx cancellation).
func RunElastic(ctx context.Context, cfg ElasticConfig, buildNet func(rng *rand.Rand) *nn.Sequential,
	train, test *data.Dataset, opts ...SessionOption) (*ElasticResult, error) {
	if err := cfg.fillDefaults(); err != nil {
		return nil, err
	}
	if ctx == nil {
		ctx = context.Background()
	}
	out := &ElasticResult{Result: &Result{}}
	byEpoch := make(map[int]EpochStats) // replayed epochs: last run wins
	world := cfg.World

	// A generation that fails loses at least one rank, so World generations
	// bound the restarts.
	for gen := 0; gen < cfg.World; gen++ {
		if err := ctx.Err(); err != nil {
			return mergeElastic(out, byEpoch, nil), err
		}
		resume, _, err := cfg.Store.Latest(cfg.Job)
		if err != nil {
			return mergeElastic(out, byEpoch, nil), fmt.Errorf("trainer: elastic resume: %w", err)
		}
		startEpoch := 0
		if resume != nil {
			startEpoch = resume.Epoch
		}
		if cfg.Log != nil {
			fmt.Fprintf(cfg.Log, "elastic: generation %d, world %d, starting at epoch %d\n",
				gen, world, startEpoch)
		}

		results, errs, dead := runGeneration(ctx, &cfg, gen, world, resume,
			buildNet, train, test, opts)

		g := Generation{World: world, StartEpoch: startEpoch, Failed: dead}
		out.Generations = append(out.Generations, g)
		if r := results[0]; r != nil {
			for _, e := range r.History {
				byEpoch[e.Epoch] = e
			}
			out.Result.TotalWall += r.TotalWall
		}

		if len(dead) == 0 {
			// No failure: the generation either finished or hit a genuine
			// error / outer cancellation.
			err = worldErr(errs)
			switch {
			case ctx.Err() != nil:
				err = ctx.Err()
			case errors.Is(err, ErrResumeComplete):
				// The checkpoint already covers every epoch — a failure
				// landed after the final checkpoint write, so the resumed
				// generation had nothing left to do. The run is complete.
				err = nil
			case errors.Is(err, context.Canceled):
				// The generation was hard-aborted without any dead-rank
				// evidence and without outer cancellation: the failure
				// detector fired on a live world (typically
				// Heartbeat.Timeout below the transport's worst-case
				// delay). Name the misfire rather than surfacing a bare
				// context error nobody asked for.
				err = fmt.Errorf("trainer: elastic generation %d aborted with no dead rank (heartbeat false positive? timeout %v): %w",
					gen, cfg.Heartbeat.Timeout, err)
			}
			return mergeElastic(out, byEpoch, results[0]), err
		}

		if cfg.Log != nil {
			fmt.Fprintf(cfg.Log, "elastic: generation %d lost rank(s) %v, resizing %d → %d\n",
				gen, dead, world, world-len(dead))
		}
		world -= len(dead)
		if world < cfg.MinWorld {
			return mergeElastic(out, byEpoch, results[0]),
				fmt.Errorf("trainer: elastic run below MinWorld: %d survivors < %d", world, cfg.MinWorld)
		}
	}
	return mergeElastic(out, byEpoch, nil),
		fmt.Errorf("trainer: elastic run exhausted %d generations", cfg.World)
}

// runGeneration runs one attempt: world sessions over a fresh fabric with
// heartbeat monitors, any detected failure hard-aborting the generation.
// Returns per-rank results and errors plus the ranks found dead.
func runGeneration(ctx context.Context, cfg *ElasticConfig, gen, world int,
	resume *checkpoint.File, buildNet func(rng *rand.Rand) *nn.Sequential,
	train, test *data.Dataset, opts []SessionOption) ([]*Result, []error, []int) {

	var fab comm.Fabric
	if cfg.Fabric != nil {
		fab = cfg.Fabric(gen, world)
	} else {
		fab = comm.NewInprocFabric(world)
	}
	ropts := make([]SessionOption, 0, len(opts)+3)
	// First, so the caller's hooks (ctl's prune) see the new ref.
	ropts = append(ropts, OnCheckpoint(func(s *Session, info CheckpointInfo) error {
		if s.Rank() != 0 {
			return nil
		}
		ck := checkpoint.Snapshot(s.Net(), info.Epoch+1, info.Iterations)
		ck.World = s.World()
		if _, _, err := cfg.Store.Put(cfg.Job, ck); err != nil {
			return fmt.Errorf("elastic checkpoint: %w", err)
		}
		return nil
	}))
	ropts = append(ropts, opts...)
	ropts = append(ropts, WithResume(resume), WithCheckpointEvery(cfg.CheckpointEvery))

	// Heartbeat monitors outlive the session goroutines: a rank that
	// finishes its last epoch early keeps heartbeating while laggards
	// validate, so generation-end stragglers are never mistaken for deaths.
	// Any real detection hard-aborts the whole generation. A fabric that
	// fails runWorld's check gets no monitors.
	var monitors []*comm.HeartbeatMonitor // indexed by rank
	results, errs := runWorld(ctx, fab, world, buildNet, train, test, ropts,
		func(eps []comm.Transport, abort func()) {
			for _, ep := range eps {
				monitors = append(monitors, comm.StartHeartbeat(ep, cfg.Heartbeat, func(peer int) { abort() }))
			}
		})
	for _, m := range monitors {
		m.Close()
	}

	// A rank is dead if the chaos layer killed it or its own error traces
	// to its own kill (ErrPeerKilled marks a *survivor* that touched a
	// dead peer — not a death).
	deadSet := make(map[int]bool)
	if killer, ok := fab.(interface{ Killed() []int }); ok {
		for _, r := range killer.Killed() {
			deadSet[r] = true
		}
	}
	for r, err := range errs {
		if errors.Is(err, comm.ErrRankKilled) {
			deadSet[r] = true
		}
	}
	// Heartbeat verdicts corroborate: a rank flagged silent by a monitor
	// that is NOT itself dead counts as dead. (A killed rank's own monitor
	// goes blind to every peer at once — its verdicts are noise and are
	// excluded.) Only consulted when the generation actually failed; a
	// clean finish ignores residual suspicions.
	if errors.Join(errs...) != nil {
		for r, m := range monitors {
			if deadSet[r] {
				continue
			}
			for _, failed := range m.Failed() {
				deadSet[failed] = true
			}
		}
	}
	dead := make([]int, 0, len(deadSet))
	for r := range deadSet {
		dead = append(dead, r)
	}
	sort.Ints(dead)
	return results, errs, dead
}

// mergeElastic assembles the cross-generation result: the epoch history in
// order (each epoch's stats from its final run) and the finishing
// generation's scalar outcomes.
func mergeElastic(out *ElasticResult, byEpoch map[int]EpochStats, last *Result) *ElasticResult {
	epochs := make([]int, 0, len(byEpoch))
	for e := range byEpoch {
		epochs = append(epochs, e)
	}
	sort.Ints(epochs)
	r := out.Result
	r.History = r.History[:0]
	for _, e := range epochs {
		st := byEpoch[e]
		r.History = append(r.History, st)
		if st.ValAcc > r.BestValAcc {
			r.BestValAcc = st.ValAcc
		}
		r.FinalValAcc = st.ValAcc
	}
	if last != nil {
		r.Iterations = last.Iterations
		r.Stopped = last.Stopped
		r.KFACStats = last.KFACStats
	}
	return out
}
