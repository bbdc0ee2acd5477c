// Package trainer implements the synchronous data-parallel training loop of
// the paper (§II-B, Figure 1): per-rank forward/backward over a local
// mini-batch shard, ring-allreduce gradient exchange, optional K-FAC
// preconditioning (Listing 1 ordering: synchronize → precondition → step),
// and a first-order optimizer update — plus distributed validation and the
// learning-rate / damping / update-frequency schedules the experiments use.
//
// The K-FAC step may run either synchronously or through the pipelined
// engine (kfac.Options.Engine); the trainer drives both identically because
// Step fully drains its asynchronous collectives before returning, keeping
// the global collective order deterministic across ranks.
package trainer

import (
	"time"

	"repro/internal/comm"
	"repro/internal/data"
	"repro/internal/kfac"
	"repro/internal/metrics"
	"repro/internal/nn"
	"repro/internal/optim"
)

// config is a Session's resolved option form, built by the SessionOptions
// (kept internal; K-FAC's own configuration is the kfac.Options in KFAC).
type config struct {
	// Epochs is the number of passes over the training set.
	Epochs int
	// BatchPerRank is the local mini-batch size; the effective global batch
	// is BatchPerRank × world size (the paper: 32 per GPU).
	BatchPerRank int
	// LR is the learning-rate schedule (already scaled for the world size,
	// per the paper's N×0.0125 linear-scaling rule).
	LR optim.LRSchedule
	// Momentum for SGD (paper: 0.9).
	Momentum float64
	// WeightDecay for SGD (0 disables).
	WeightDecay float64
	// LabelSmoothing ε for the loss (paper: 0.1 on ImageNet).
	LabelSmoothing float64
	// KFAC enables K-FAC preconditioning when non-nil.
	KFAC *kfac.Options
	// DampingSchedule optionally decays K-FAC damping at fixed epochs.
	DampingSchedule *kfac.ParamSchedule
	// FreqSchedule optionally decays kfac-update-freq at fixed epochs.
	FreqSchedule *kfac.ParamSchedule
	// Seed drives data sharding; must agree across ranks.
	Seed int64
	// TrackTop5 additionally records top-5 validation accuracy.
	TrackTop5 bool
	// AccumSteps accumulates gradients over this many micro-batches before
	// the (single) gradient exchange and optimizer step, emulating a
	// larger effective batch without more memory (0/1 = off). The
	// effective batch becomes BatchPerRank × AccumSteps × world.
	AccumSteps int
}

// EpochStats records one epoch of training.
type EpochStats struct {
	Epoch     int
	LR        float64
	TrainLoss float64
	TrainAcc  float64
	ValAcc    float64
	ValTop5   float64 // populated under WithTop5
	Wall      time.Duration
}

// Result summarizes a training run.
type Result struct {
	History     []EpochStats
	FinalValAcc float64
	BestValAcc  float64
	Iterations  int
	// Stopped reports whether a hook (e.g. WithStopAtValAcc) ended training
	// early.
	Stopped bool
	// TotalWall is the summed epoch wall time (training + validation).
	TotalWall time.Duration
	// KFACStats holds the preconditioner's measured stage profile (nil for
	// SGD runs) — the real-run analogue of the paper's Table V.
	KFACStats *kfac.StageStats
}

// EpochsToReach returns the first 1-based epoch whose validation accuracy
// meets the threshold, or -1 if never reached. This is the paper's
// "converges to the 75.9% baseline in the 43rd epoch" measurement.
func (r *Result) EpochsToReach(acc float64) int {
	for _, e := range r.History {
		if e.ValAcc >= acc {
			return e.Epoch + 1
		}
	}
	return -1
}

// Evaluate computes validation accuracy over test, sharded across ranks and
// averaged by example count.
func Evaluate(net *nn.Sequential, c *comm.Communicator, test *data.Dataset, batch int, seed int64) (float64, error) {
	acc, _, err := evaluateTopK(net, c, test, batch, seed, false)
	return acc, err
}

// evaluateTopK computes top-1 (and optionally top-5) validation accuracy.
func evaluateTopK(net *nn.Sequential, c *comm.Communicator, test *data.Dataset,
	batch int, seed int64, top5 bool) (float64, float64, error) {
	rank, world := 0, 1
	if c != nil {
		rank, world = c.Rank(), c.Size()
	}
	sampler := data.ShardSampler{N: test.Len(), Rank: rank, World: world, Seed: seed}
	idx := sampler.EpochIndices(0)
	var correct, correct5, total float64
	for _, b := range data.Batches(test, idx, batch) {
		out := net.Forward(b.X, false)
		n := float64(len(b.Labels))
		correct += nn.Accuracy(out, b.Labels) * n
		if top5 {
			correct5 += metrics.TopKAccuracy(out, b.Labels, 5) * n
		}
		total += n
	}
	if c != nil && world > 1 {
		buf := []float64{correct, correct5, total}
		if err := c.AllreduceSum(buf); err != nil {
			return 0, 0, err
		}
		correct, correct5, total = buf[0], buf[1], buf[2]
	}
	if total == 0 {
		return 0, 0, nil
	}
	return correct / total, correct5 / total, nil
}
