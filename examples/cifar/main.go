// CIFAR-style comparison: trains the same miniature ResNet with plain SGD
// and with distributed K-FAC (4 in-process workers, round-robin factor
// placement) on the synthetic CIFAR stand-in, reproducing the qualitative
// content of the paper's Figure 4 / Table II: K-FAC matches SGD's accuracy
// in fewer epochs. Both runs go through RunSessions, the Session-API
// multi-rank runner.
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"
	"os"

	"repro/internal/data"
	"repro/internal/kfac"
	"repro/internal/models"
	"repro/internal/nn"
	"repro/internal/optim"
	"repro/internal/trainer"
)

func main() {
	const (
		world      = 4
		batch      = 32
		sgdEpochs  = 8
		kfacEpochs = 5
	)
	ctx := context.Background()
	cfg := data.CIFARLike(7)
	cfg.Train, cfg.Test = 1024, 512
	train, test := data.GenerateSynthetic(cfg)
	build := func(rng *rand.Rand) *nn.Sequential {
		return models.BuildCIFARResNet(1, 8, 3, 10, rng)
	}
	schedule := func(epochs int) optim.LRSchedule {
		return optim.LRSchedule{BaseLR: 0.05 * world, WarmupEpochs: 1,
			Milestones: []int{epochs * 2 / 3}, Factor: 0.1}
	}
	base := func(epochs int) []trainer.SessionOption {
		return []trainer.SessionOption{
			trainer.WithEpochs(epochs),
			trainer.WithBatchPerRank(batch),
			trainer.WithLRSchedule(schedule(epochs)),
			trainer.WithMomentum(0.9),
			trainer.WithSeed(7),
			trainer.WithLogger(os.Stdout),
		}
	}

	fmt.Printf("=== SGD, %d workers, %d epochs ===\n", world, sgdEpochs)
	sgdRes, err := trainer.RunSessions(ctx, world, build, train, test, base(sgdEpochs)...)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("\n=== K-FAC (round-robin factors), %d workers, %d epochs ===\n", world, kfacEpochs)
	kfRes, err := trainer.RunSessions(ctx, world, build, train, test, append(base(kfacEpochs),
		trainer.WithKFACOptions(kfac.Options{
			Strategy: kfac.RoundRobin, Damping: 1e-3, FactorUpdateFreq: 1, InvUpdateFreq: 10,
		}))...)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("\nSGD   : best val %.2f%% in %d epochs (%d iterations)\n",
		sgdRes[0].BestValAcc*100, sgdEpochs, sgdRes[0].Iterations)
	fmt.Printf("K-FAC : best val %.2f%% in %d epochs (%d iterations)\n",
		kfRes[0].BestValAcc*100, kfacEpochs, kfRes[0].Iterations)
	fmt.Println("expected shape (paper Fig. 4): K-FAC reaches SGD-level accuracy in fewer epochs")
}
