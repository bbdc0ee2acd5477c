// Checkpointing: trains with K-FAC for a few epochs while an OnCheckpoint
// hook snapshots the model, "crashes", restores into a fresh model, and
// verifies the restored model reproduces the saved validation accuracy
// before continuing training — the operational workflow long
// ImageNet-scale runs need, expressed through the Session hook registry
// instead of a hand-rolled save step.
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"
	"os"
	"path/filepath"

	"repro/internal/checkpoint"
	"repro/internal/data"
	"repro/internal/kfac"
	"repro/internal/models"
	"repro/internal/nn"
	"repro/internal/optim"
	"repro/internal/trainer"
)

func main() {
	cfg := data.CIFARLike(11)
	cfg.Train, cfg.Test, cfg.Size, cfg.Noise = 512, 256, 16, 0.8
	train, test := data.GenerateSynthetic(cfg)

	build := func(seed int64) *nn.Sequential {
		return models.BuildCIFARResNet(1, 4, 3, 10, rand.New(rand.NewSource(seed)))
	}
	path := filepath.Join(os.TempDir(), "kfac-demo.ckpt")
	baseOpts := func(epochs int) []trainer.SessionOption {
		return []trainer.SessionOption{
			trainer.WithEpochs(epochs),
			trainer.WithBatchPerRank(32),
			trainer.WithLRSchedule(optim.LRSchedule{BaseLR: 0.05, WarmupEpochs: 1}),
			trainer.WithMomentum(0.9),
			trainer.WithKFACOptions(kfac.Options{FactorUpdateFreq: 1, InvUpdateFreq: 5}),
			trainer.WithSeed(11),
			trainer.WithLogger(os.Stdout),
		}
	}

	fmt.Println("=== phase 1: train 3 epochs, checkpointing at every epoch ===")
	net := build(1)
	s, err := trainer.NewSession(net, nil, train, test, append(baseOpts(3),
		trainer.WithCheckpointEvery(1),
		trainer.OnCheckpoint(func(s *trainer.Session, info trainer.CheckpointInfo) error {
			ck := checkpoint.Snapshot(s.Net(), info.Epoch+1, info.Iterations)
			if err := ck.Save(path); err != nil {
				return fmt.Errorf("checkpoint at epoch %d: %w", info.Epoch, err)
			}
			fmt.Printf("  [checkpoint] epoch %d, step %d → %s\n", info.Epoch, info.Iterations, path)
			return nil
		}))...)
	if err != nil {
		log.Fatal(err)
	}
	res, err := s.Run(context.Background())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("saved %s at val acc %.2f%%\n\n", path, res.FinalValAcc*100)

	fmt.Println("=== phase 2: restore into a fresh model ===")
	restored := build(999) // different init — fully overwritten by restore
	loaded, err := checkpoint.Load(path)
	if err != nil {
		log.Fatal(err)
	}
	if err := loaded.Restore(restored); err != nil {
		log.Fatal(err)
	}
	acc, err := trainer.Evaluate(restored, nil, test, 32, 11)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("restored model val acc %.2f%% (checkpoint recorded epoch %d, step %d)\n\n",
		acc*100, loaded.Epoch, loaded.Step)
	if acc != res.FinalValAcc {
		log.Fatalf("restore mismatch: %.4f vs %.4f", acc, res.FinalValAcc)
	}

	fmt.Println("=== phase 3: continue training from the checkpoint ===")
	s2, err := trainer.NewSession(restored, nil, train, test, baseOpts(2)...)
	if err != nil {
		log.Fatal(err)
	}
	res2, err := s2.Run(context.Background())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("resumed training reached %.2f%% (from %.2f%%)\n",
		res2.FinalValAcc*100, acc*100)
	os.Remove(path)
}
