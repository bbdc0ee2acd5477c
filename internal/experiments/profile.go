package experiments

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"time"

	"repro/internal/data"
	"repro/internal/kfac"
	"repro/internal/nn"
	"repro/internal/optim"
	"repro/internal/trainer"
)

func init() {
	register(Experiment{
		ID:    "profile",
		Title: "Measured K-FAC stage profile of the real implementation (Table V analogue)",
		Paper: "Table V: per-stage Tcomp/Tcomm; factor compute constant in worker count, eig bounded by slowest worker",
		Run:   runProfile,
	})
	register(Experiment{
		ID:    "pipeline",
		Title: "Pipelined vs synchronous K-FAC step engine: stage timings and overlap",
		Paper: "§V: distributing factor work and overlapping comm with compute keeps K-FAC overhead sub-linear",
		Run:   runPipelineComparison,
	})
	register(Experiment{
		ID:    "ablation-updatefreq",
		Title: "Ablation: real-training update-frequency sweep (mini Table III)",
		Paper: "Table III: growing kfac-update-freq trades accuracy for time",
		Run:   runAblationUpdateFreq,
	})
}

// profileWorkload is the shared miniature-training harness of the profile
// and pipeline experiments: it trains one epoch at the given world size and
// step engine and returns rank 0's measured K-FAC stage profile.
func profileWorkload(ctx context.Context, cfg Config, world int, engine kfac.Engine) (*kfac.StageStats, error) {
	dcfg := data.CIFARLike(cfg.Seed)
	dcfg.Train, dcfg.Test, dcfg.Size = 256, 96, 16
	train, test := data.GenerateSynthetic(dcfg)
	opts := []trainer.SessionOption{
		trainer.WithEpochs(1),
		trainer.WithBatchPerRank(16),
		trainer.WithLRSchedule(optim.LRSchedule{BaseLR: 0.05}),
		trainer.WithMomentum(0.9),
		trainer.WithKFACOptions(kfac.Options{FactorUpdateFreq: 2, InvUpdateFreq: 4, Engine: engine}),
		trainer.WithSeed(cfg.Seed),
	}
	build := func(rng *rand.Rand) *nn.Sequential { return correctnessNet(cfg)(rng) }
	if world == 1 {
		s, err := trainer.NewSession(build(rand.New(rand.NewSource(1))), nil, train, test, opts...)
		if err != nil {
			return nil, err
		}
		res, err := s.Run(ctx)
		if err != nil {
			return nil, err
		}
		return res.KFACStats, nil
	}
	results, err := trainer.RunSessions(ctx, world, build, train, test, opts...)
	if err != nil {
		return nil, err
	}
	return results[0].KFACStats, nil
}

// profileWorlds returns the world sizes the profiling experiments sweep.
func profileWorlds(cfg Config) []int {
	if cfg.Quick {
		return []int{1, 2}
	}
	return []int{1, 2, 4}
}

// runPipelineComparison trains the same miniature workload under both step
// engines at several world sizes and reports the per-stage profile plus the
// pipelined engine's overlap/idle accounting.
func runPipelineComparison(ctx context.Context, w io.Writer, cfg Config) error {
	e, _ := ByID("pipeline")
	header(w, e)
	fmt.Fprintf(w, "%-6s  %-10s  %12s  %12s  %12s  %12s  %12s  %12s\n",
		"ranks", "engine", "factor comp", "factor comm", "eig comp", "eig comm", "update wall", "overlap")
	for _, world := range profileWorlds(cfg) {
		for _, engine := range []kfac.Engine{kfac.EngineSync, kfac.EnginePipelined} {
			stats, err := profileWorkload(ctx, cfg, world, engine)
			if err != nil {
				return err
			}
			snap := stats.Snapshot()
			wall := snap.PipelineWall
			if engine == kfac.EngineSync {
				// The sync engine's update wall is the stage sum by construction.
				wall = snap.FactorCompute + snap.FactorComm + snap.EigCompute + snap.EigComm
			}
			const r = 10 * time.Microsecond
			fmt.Fprintf(w, "%-6d  %-10s  %12v  %12v  %12v  %12v  %12v  %12v\n",
				world, engine,
				snap.FactorCompute.Round(r), snap.FactorComm.Round(r),
				snap.EigCompute.Round(r), snap.EigComm.Round(r),
				wall.Round(r), stats.Overlap().Round(r))
		}
	}
	fmt.Fprintln(w, "shape check: pipelined update wall ≤ stage sum; overlap grows with ranks (comm hidden behind compute) and with cores (parallel eigendecompositions)")
	return nil
}

// runProfile trains briefly at several in-process world sizes with K-FAC
// and prints the measured stage profile from kfac.StageStats.
func runProfile(ctx context.Context, w io.Writer, cfg Config) error {
	e, _ := ByID("profile")
	header(w, e)
	fmt.Fprintf(w, "%-6s  %14s  %14s  %14s  %14s  %12s\n",
		"ranks", "factor Tcomp", "factor Tcomm", "eig Tcomp", "eig Tcomm", "precond/step")
	for _, world := range profileWorlds(cfg) {
		stats, err := profileWorkload(ctx, cfg, world, kfac.EngineSync)
		if err != nil {
			return err
		}
		fc, fm := stats.PerFactorUpdate()
		ec, em := stats.PerEigUpdate()
		snap := stats.Snapshot()
		perStep := time.Duration(0)
		if snap.Steps > 0 {
			perStep = snap.Precondition / time.Duration(snap.Steps)
		}
		const r = 10 * time.Microsecond
		fmt.Fprintf(w, "%-6d  %14v  %14v  %14v  %14v  %12v\n",
			world, fc.Round(r), fm.Round(r), ec.Round(r), em.Round(r), perStep.Round(r))
	}
	fmt.Fprintln(w, "shape check: factor compute roughly constant with ranks; comm appears only for ranks > 1")
	return nil
}

// runAblationUpdateFreq trains the real implementation at several
// decomposition intervals and reports accuracy and wall time — the trained
// miniature of Table III's tradeoff.
func runAblationUpdateFreq(ctx context.Context, w io.Writer, cfg Config) error {
	e, _ := ByID("ablation-updatefreq")
	header(w, e)
	train, test := correctnessData(cfg)
	_, epochs := correctnessEpochs(cfg)
	freqs := []int{1, 5, 20, 80}
	if cfg.Quick {
		freqs = []int{1, 10}
	}
	fmt.Fprintf(w, "%-12s  %-12s  %-12s  %-12s\n", "inv freq", "best val", "final val", "wall")
	for _, f := range freqs {
		facFreq := f / 10
		if facFreq < 1 {
			facFreq = 1
		}
		res, err := trainOnce(ctx, cfg, train, test, 32, epochs,
			&kfac.Options{FactorUpdateFreq: facFreq, InvUpdateFreq: f, Damping: 1e-3}, 0.05)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%-12d  %10.2f%%  %10.2f%%  %12v\n",
			f, res.BestValAcc*100, res.FinalValAcc*100, res.TotalWall.Round(time.Millisecond))
	}
	fmt.Fprintln(w, "shape check: larger intervals run faster; very large intervals cost accuracy")
	return nil
}
