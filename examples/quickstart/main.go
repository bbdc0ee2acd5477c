// Quickstart: train a small CNN on the synthetic CIFAR stand-in with K-FAC
// preconditioning in a single process — the minimal end-to-end use of the
// library. The paper's Listing 1 loop (synchronize → precondition → step)
// is the Session's fixed skeleton; everything else attaches through
// functional options and hooks:
//
//	build model → NewSession(net, …, WithKFACOptions(…), OnEpochEnd(…)) → Run(ctx)
//
// The flags exist so CI can smoke-run the example to completion in seconds:
//
//	go run ./examples/quickstart -epochs 1 -train 128 -test 64
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"math/rand"

	"repro/internal/data"
	"repro/internal/kfac"
	"repro/internal/models"
	"repro/internal/nn"
	"repro/internal/optim"
	"repro/internal/trainer"
)

func main() {
	var (
		epochs    = flag.Int("epochs", 4, "training epochs")
		batch     = flag.Int("batch", 32, "mini-batch size")
		trainN    = flag.Int("train", 512, "training examples")
		testN     = flag.Int("test", 256, "test examples")
		pipelined = flag.Bool("pipelined", false, "use the pipelined K-FAC step engine")
	)
	flag.Parse()
	rng := rand.New(rand.NewSource(1))

	// Synthetic 10-class image dataset (stand-in for CIFAR-10; see internal/data).
	cfg := data.CIFARLike(1)
	cfg.Train, cfg.Test, cfg.Size, cfg.Noise = *trainN, *testN, 16, 0.8
	train, test := data.GenerateSynthetic(cfg)

	// A miniature ResNet (same topology family as the paper's ResNet-32).
	net := models.BuildCIFARResNet(1, 4, 3, 10, rng)
	fmt.Printf("model: %s with %d parameters\n", net.Name(), nn.ParamCount(net))

	// Session = optimizer + K-FAC preconditioner + hooks (Listing 1,
	// lines 3–5). The default optimizer is SGD shaped by WithMomentum;
	// swap it with trainer.WithOptimizer for LARS/Adam/custom rules.
	kopts := kfac.Options{Damping: 1e-3, FactorUpdateFreq: 1, InvUpdateFreq: 10}
	if *pipelined {
		kopts.Engine = kfac.EnginePipelined
	}
	s, err := trainer.NewSession(net, nil, train, test,
		trainer.WithEpochs(*epochs),
		trainer.WithBatchPerRank(*batch),
		trainer.WithLRSchedule(optim.LRSchedule{BaseLR: 0.05}),
		trainer.WithMomentum(0.9),
		trainer.WithSeed(1),
		trainer.WithKFACOptions(kopts),
		trainer.OnEpochEnd(func(s *trainer.Session, e trainer.EpochStats) error {
			fmt.Printf("epoch %d  train-loss %.4f  val-acc %.2f%%\n",
				e.Epoch+1, e.TrainLoss, 100*e.ValAcc)
			return nil
		}),
	)
	if err != nil {
		log.Fatal(err)
	}

	res, err := s.Run(context.Background())
	if err != nil {
		log.Fatalf("training: %v", err)
	}
	fmt.Printf("done: best val-acc %.2f%% over %d iterations\n",
		100*res.BestValAcc, res.Iterations)
}
