// Command kfac-train trains a model on the synthetic CIFAR stand-in with
// SGD or distributed K-FAC, printing per-epoch progress — the Go analogue
// of the paper's training scripts (Listing 1), built on the trainer's
// Session API.
//
// Examples:
//
//	kfac-train -optimizer kfac -world 4 -epochs 8
//	kfac-train -optimizer kfac -engine pipelined -world 4
//	kfac-train -optimizer sgd -epochs 12 -batch 64
//	kfac-train -optimizer kfac -strategy layerwise -inv-freq 20
//	kfac-train -world 4 -chaos -chaos-latency 500us -chaos-drop 0.05
//
// The -chaos flags wrap the in-process fabric in a fault-injecting
// transport (comm.ChaosTransport): seed-replayable per-message latency,
// dropped-and-retried messages, and bandwidth caps, with per-rank delivery
// metrics printed at the end. Latency-only schedules leave results
// bit-identical to a clean run — only the timing moves.
//
// Interrupting the run (SIGINT/SIGTERM) cancels it cleanly: every rank
// stops at the same iteration boundary and the partial results are
// reported.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/comm"
	"repro/internal/data"
	"repro/internal/kfac"
	"repro/internal/models"
	"repro/internal/nn"
	"repro/internal/optim"
	"repro/internal/trainer"
)

// usage prints the flag reference grouped by family; the default
// alphabetical PrintDefaults interleaves chaos, engine, and training knobs
// unhelpfully.
func usage() {
	fmt.Fprintf(flag.CommandLine.Output(), `kfac-train — train the synthetic CIFAR stand-in with SGD or distributed K-FAC

Training:
  -optimizer {sgd,kfac}   optimizer (default kfac)
  -world N                in-process ranks (default 1)
  -epochs N               training epochs (default 8)
  -batch N                mini-batch size per rank (default 32)
  -lr F                   base learning rate per rank, scaled by world (default 0.05)
  -width N / -blocks N    model size (ResNet stem channels / blocks per stage)
  -seed N                 seed of the data, the shuffling and the sharding (default 42);
                          initial weights come from the trainer's replica seed at every -world

K-FAC (with -optimizer kfac):
  -engine {sync,pipelined}             step engine; pipelined overlaps compute and comm
  -strategy {roundrobin,layerwise,greedy}  factor placement across workers
  -mode {eigen,inverse}                damping of G⊗A (eigen) or of each factor (inverse;
                                       Table I ablation)
  -precision {f64,f32}                 compute precision of the K-FAC kernels; f32 runs
                                       float32 storage with float64 accumulation, keeping
                                       state and communication float64 (default f64)
  -damping F                           Tikhonov damping γ ≥ 0 (default 1e-3; 0 = 1e-3, the paper's)
  -inv-freq N                          eigendecomposition interval ≥ 0 (default 10; 0 = 100, the paper's)
  -factor-freq N                       factor update interval ≥ 0 (default 1; 0 = 10)

Distribution plan (with -optimizer kfac; see docs/ARCHITECTURE.md):
  -dist-mode {auto,commopt,memopt,hybrid}  memory/communication tradeoff:
                                       commopt replicates eigenbases everywhere,
                                       memopt keeps them on owners and broadcasts
                                       preconditioned gradients each iteration,
                                       hybrid interpolates (needs -grad-worker-frac)
  -grad-worker-frac F                  hybrid gradient-worker fraction, 0 < F < 1
  -group-size N                        hierarchical allreduce: N consecutive ranks
                                       per group for gradient/factor exchange (N ≥ 2)

Compression & autotuning (with -optimizer kfac and -world > 1):
  -compress {none,float16,topk}        lossy codec for gradient and factor payloads,
                                       wrapped in error-feedback residual compensation
  -topk-frac F                         kept-coordinate fraction of -compress topk
                                       (0 < F ≤ 1; default 0 = 0.1; only with topk)
  -no-error-feedback                   send the bare biased stream (A/B experiments)
  -autotune                            bandwidth-adaptive control: re-select codec,
                                       fusion bytes, and group size each factor update
                                       from a consensus link estimate
  -autotune-interval N                 factor updates between decisions (default 1)

Chaos injection (needs -world > 1):
  -chaos                  enable fault injection on the in-process fabric
  -chaos-seed N           schedule seed (same seed replays the same faults)
  -chaos-latency D        max injected per-message latency (default 200µs)
  -chaos-drop F           per-attempt drop probability (retried, bounded)
  -chaos-bandwidth F      per-message bandwidth cap in bytes/sec (0 = uncapped)

Examples:
  kfac-train -optimizer kfac -world 4 -epochs 8
  kfac-train -optimizer kfac -engine pipelined -world 4
  kfac-train -optimizer sgd -epochs 12 -batch 64
  kfac-train -optimizer kfac -strategy layerwise -inv-freq 20
  kfac-train -optimizer kfac -world 4 -dist-mode memopt
  kfac-train -optimizer kfac -world 8 -dist-mode hybrid -grad-worker-frac 0.25
  kfac-train -optimizer kfac -world 8 -group-size 4
  kfac-train -optimizer kfac -world 4 -compress topk -topk-frac 0.05
  kfac-train -optimizer kfac -world 4 -autotune -chaos -chaos-bandwidth 2e6
  kfac-train -world 4 -chaos -chaos-latency 500us -chaos-drop 0.05

Tuning guidance (engine choice, staleness, fusion, distribution modes):
docs/PERFORMANCE.md.
`)
}

func main() {
	// The K-FAC flags decode straight into the preconditioner's options;
	// kfac.Options.Validate is their rule book.
	var ko kfac.Options
	flag.TextVar(&ko.Strategy, "strategy", kfac.RoundRobin, "kfac distribution: roundrobin, layerwise, greedy")
	flag.TextVar(&ko.Mode, "mode", kfac.EigenMode, "kfac damping: eigen (of G⊗A) or inverse (of each factor)")
	flag.TextVar(&ko.Precision, "precision", kfac.F64, "kfac compute precision: f64 or f32 (float32 kernels, float64 accumulation)")
	flag.TextVar(&ko.Engine, "engine", kfac.EngineSync, "kfac step engine: sync or pipelined")
	flag.TextVar(&ko.DistMode, "dist-mode", kfac.DistAuto, "distribution plan: auto, commopt, memopt, or hybrid")
	flag.Float64Var(&ko.Damping, "damping", 1e-3, "K-FAC Tikhonov damping γ ≥ 0 (0 = 1e-3, the paper's)")
	flag.IntVar(&ko.InvUpdateFreq, "inv-freq", 10, "kfac-update-freq: eigendecomposition interval ≥ 0 (0 = 100, the paper's)")
	flag.IntVar(&ko.FactorUpdateFreq, "factor-freq", 1, "factor update interval ≥ 0 (0 = 10)")
	flag.Float64Var(&ko.GradWorkerFrac, "grad-worker-frac", 0, "hybrid gradient-worker fraction (0 < F < 1; requires -dist-mode hybrid)")
	flag.IntVar(&ko.GroupSize, "group-size", 0, "hierarchical allreduce group size (0 = flat allreduce, else ≥ 2)")
	flag.BoolVar(&ko.NoErrorFeedback, "no-error-feedback", false, "disable error-feedback compensation (biased stream, A/B only)")
	var (
		optimizer = flag.String("optimizer", "kfac", "sgd or kfac")
		world     = flag.Int("world", 1, "number of simulated workers (in-process ranks)")
		epochs    = flag.Int("epochs", 8, "training epochs")
		batch     = flag.Int("batch", 32, "mini-batch size per rank")
		lr        = flag.Float64("lr", 0.05, "base learning rate per rank (scaled by world)")
		width     = flag.Int("width", 8, "model width (ResNet stem channels)")
		blocks    = flag.Int("blocks", 1, "residual blocks per stage")
		seed      = flag.Int64("seed", 42, "seed of the data, shuffling and sharding (initial weights come from the replica seed at every -world)")

		compress   = flag.String("compress", "none", "payload codec: none, float16, or topk (error-feedback compensated)")
		topkFrac   = flag.Float64("topk-frac", 0, "kept-coordinate fraction for -compress topk (0 < F ≤ 1; 0 = 0.1)")
		autotune   = flag.Bool("autotune", false, "bandwidth-adaptive codec/fusion/group-size control")
		tuneEveryN = flag.Int("autotune-interval", 1, "factor updates between autotune consensus decisions")

		chaosOn   = flag.Bool("chaos", false, "inject transport faults (requires -world > 1)")
		chaosSeed = flag.Int64("chaos-seed", 1, "chaos schedule seed (same seed replays the same faults)")
		chaosLat  = flag.Duration("chaos-latency", 200*time.Microsecond, "max injected per-message latency")
		chaosDrop = flag.Float64("chaos-drop", 0, "per-attempt message drop probability (retried, bounded)")
		chaosBW   = flag.Float64("chaos-bandwidth", 0, "per-message bandwidth cap in bytes/sec (0 = uncapped)")
	)
	flag.Usage = usage
	flag.Parse()
	if *world < 1 {
		fail("-world must be ≥ 1")
	}
	if *chaosOn && *world < 2 {
		fail("-chaos needs -world > 1 (a single rank has no transport to disturb)")
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	opts := []trainer.SessionOption{
		trainer.WithEpochs(*epochs),
		trainer.WithBatchPerRank(*batch),
		trainer.WithLRSchedule(optim.LRSchedule{
			BaseLR: *lr * float64(*world), WarmupEpochs: 1,
			Milestones: []int{*epochs * 2 / 3, *epochs * 5 / 6}, Factor: 0.1,
		}),
		trainer.WithMomentum(0.9),
		trainer.WithSeed(*seed),
		trainer.WithLogger(os.Stdout),
	}
	frac := *topkFrac
	if frac == 0 && strings.EqualFold(*compress, "topk") {
		frac = 0.1
	}
	codec, err := comm.ParseCodec(*compress, frac)
	if err != nil {
		fail("-compress/-topk-frac: %v", err)
	}
	if *optimizer != "kfac" {
		// The distribution-plan, grouped-allreduce and compression knobs
		// configure the K-FAC preconditioner; silently ignoring them under
		// SGD would hide typos, so reject the combination outright.
		if ko.DistMode != kfac.DistAuto || ko.GradWorkerFrac != 0 || ko.GroupSize != 0 {
			fail("-dist-mode/-grad-worker-frac/-group-size require -optimizer kfac")
		}
		if codec != nil || ko.NoErrorFeedback || *autotune {
			fail("-compress/-no-error-feedback/-autotune require -optimizer kfac")
		}
	} else {
		ko.Compression = codec
		if *autotune {
			ko.Autotune = &kfac.AutotuneConfig{Interval: *tuneEveryN}
		} else if *tuneEveryN != 1 {
			fail("-autotune-interval requires -autotune")
		}
		if err := ko.Validate(*world); err != nil {
			fail("%v", err)
		}
		opts = append(opts, trainer.WithKFACOptions(ko))
	}

	cfgData := data.CIFARLike(*seed)
	train, test := data.GenerateSynthetic(cfgData)
	fmt.Printf("dataset: %d train / %d test, %d classes, %dx%dx%d images\n",
		train.Len(), test.Len(), train.Classes, cfgData.Channels, cfgData.Size, cfgData.Size)

	build := func(rng *rand.Rand) *nn.Sequential {
		return models.BuildCIFARResNet(*blocks, *width, 3, 10, rng)
	}
	fmt.Printf("model: cifar-resnet-%d width %d (%d params), optimizer %s (%s engine), world %d\n",
		6**blocks+2, *width, nn.ParamCount(build(rand.New(rand.NewSource(*seed)))),
		*optimizer, ko.Engine, *world)

	var fab comm.Fabric = comm.NewInprocFabric(*world)
	var chaosFab *comm.ChaosFabric
	if *chaosOn {
		chaosFab = comm.NewChaosFabric(fab, *world, comm.ChaosConfig{
			Seed:         *chaosSeed,
			MaxLatency:   *chaosLat,
			DropRate:     *chaosDrop,
			BandwidthBps: *chaosBW,
		})
		fab = chaosFab
		fmt.Printf("chaos: seed %d, latency ≤ %v, drop %.1f%%, bandwidth %s\n",
			*chaosSeed, *chaosLat, *chaosDrop*100, bwString(*chaosBW))
	}
	all, err := trainer.RunSessionsOn(ctx, fab, *world, build, train, test, opts...)
	var res *trainer.Result
	if len(all) > 0 {
		res = all[0] // rank 0's result; partial under cancellation
	}
	if errors.Is(err, context.Canceled) {
		fmt.Println("interrupted: run cancelled cleanly at an iteration boundary")
		if res == nil {
			if chaosFab != nil {
				printChaosMetrics(chaosFab, *world)
			}
			os.Exit(130)
		}
	} else if err != nil {
		fmt.Fprintln(os.Stderr, "training failed:", err)
		// The delivery counters are most useful exactly when chaos broke
		// the run (e.g. a drop-exhausted send): print them before exiting.
		if chaosFab != nil {
			printChaosMetrics(chaosFab, *world)
		}
		os.Exit(1)
	}
	fmt.Printf("done: best val %.2f%%, final val %.2f%%, %d iterations\n",
		res.BestValAcc*100, res.FinalValAcc*100, res.Iterations)
	printKFACProfile(res)
	if chaosFab != nil {
		printChaosMetrics(chaosFab, *world)
	}
}

// fail reports a usage error and exits 2.
func fail(format string, a ...any) {
	fmt.Fprintf(os.Stderr, format+"\n", a...)
	os.Exit(2)
}

// bwString formats a bandwidth cap for the chaos banner.
func bwString(bps float64) string {
	if bps <= 0 {
		return "uncapped"
	}
	return fmt.Sprintf("%.0f B/s", bps)
}

// printChaosMetrics reports the per-rank delivery counters the chaos
// transport collected.
func printChaosMetrics(fab *comm.ChaosFabric, world int) {
	fmt.Println("chaos delivery metrics:")
	for r := 0; r < world; r++ {
		m := fab.Metrics(r)
		fmt.Printf("  rank %d: sent %d (%.1f MB), recv %d, dropped %d, retried %d, injected delay %v\n",
			r, m.Sent, float64(m.Bytes)/1e6, m.Received, m.Dropped, m.Retried,
			m.InjectedDelay.Round(time.Millisecond))
	}
}

// printKFACProfile reports the preconditioner's measured stage profile and,
// for the pipelined engine, its comm/compute overlap — the run's Table V
// analogue.
func printKFACProfile(res *trainer.Result) {
	if res == nil || res.KFACStats == nil {
		return
	}
	snap := res.KFACStats.Snapshot()
	const r = 10 * time.Microsecond
	fmt.Printf("kfac stages: factor comp %v / comm %v, eig comp %v / comm %v, precondition %v\n",
		snap.FactorCompute.Round(r), snap.FactorComm.Round(r),
		snap.EigCompute.Round(r), snap.EigComm.Round(r), snap.Precondition.Round(r))
	if snap.PipelineUpdates > 0 {
		fmt.Printf("pipelined engine: update wall %v, overlapped %v, issuer idle %v over %d updates\n",
			snap.PipelineWall.Round(r), res.KFACStats.Overlap().Round(r),
			snap.PipelineIdle.Round(r), snap.PipelineUpdates)
	}
	for _, d := range snap.TuneDecisions {
		if !d.Changed {
			continue
		}
		codec := "exact"
		if d.Codec != nil {
			codec = d.Codec.Name()
		}
		fmt.Printf("autotune: step %d → %s (codec %s, fusion %d B, groups %d) at %.1f MB/s, drop %.1f%%\n",
			d.Step, d.Name, codec, d.FusionBytes, d.GroupSize,
			d.BandwidthBps/1e6, d.DropRate*100)
	}
}
