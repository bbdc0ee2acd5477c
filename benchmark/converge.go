package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/data"
	"repro/internal/kfac"
	"repro/internal/models"
	"repro/internal/nn"
	"repro/internal/optim"
	"repro/internal/trainer"
)

// convergeRun is what one trainer.RunSessionsOn run left behind: rank 0's
// per-step and per-epoch observations and every rank's final checksum.
type convergeRun struct {
	stepMS  []float64
	history []trainer.EpochStats
	sums    []uint64
	results []*trainer.Result
	fab     *countingFabric
}

// dataConfig is data.CIFARLike shrunk to the run length the benchmark can
// afford: fewer and smaller images, with the noise lowered to match (at
// 16×16 the stock noise of 2.4 leaves too few pixels to average over, and
// nothing converges within the epoch cap).
func (w workload) dataConfig(seed int64) data.SyntheticConfig {
	cfg := data.CIFARLike(seed)
	cfg.Train, cfg.Test, cfg.Size, cfg.Shift, cfg.Noise = w.Train, w.Test, w.Input, w.Input/4, 1.6
	return cfg
}

func (w workload) kfacOptions() kfac.Options {
	return kfac.Options{FactorUpdateFreq: w.FactorFreq, InvUpdateFreq: w.InvFreq, Damping: 1e-3}
}

// train runs the workload's session on every rank through the real trainer
// path. With useKFAC false it is the plain SGD baseline of the same session.
func (w workload) train(o runOpts, trainSet, testSet *data.Dataset, useKFAC bool, onFinal trainer.CheckpointHook) (*convergeRun, error) {
	run := &convergeRun{sums: make([]uint64, w.World)}
	run.fab, _ = newCountingFabric(w.World, false, o.seed, o.trace)
	opts := []trainer.SessionOption{
		trainer.WithEpochs(w.Epochs),
		trainer.WithBatchPerRank(w.Batch),
		trainer.WithLRSchedule(optim.LRSchedule{BaseLR: convergeLR, WarmupEpochs: 1,
			Milestones: []int{w.Epochs * 2 / 3, w.Epochs * 5 / 6}}),
		trainer.WithMomentum(0.9),
		trainer.WithSeed(o.seed),
		trainer.OnStep(func(s *trainer.Session, info trainer.StepInfo) error {
			if math.IsNaN(info.Loss) || math.IsInf(info.Loss, 0) {
				return fmt.Errorf("rank %d: non-finite loss at iteration %d", s.Rank(), info.Iteration)
			}
			if s.Rank() == 0 {
				run.stepMS = append(run.stepMS, ms(int64(info.StepDuration)))
			}
			return nil
		}),
		trainer.OnEpochEnd(func(s *trainer.Session, st trainer.EpochStats) error {
			if s.Rank() == 0 {
				run.history = append(run.history, st)
			}
			return nil
		}),
		trainer.OnCheckpoint(func(s *trainer.Session, info trainer.CheckpointInfo) error {
			run.sums[s.Rank()] = paramChecksum(s.Net())
			if onFinal != nil && s.Rank() == 0 {
				return onFinal(s, info)
			}
			return nil
		}),
	}
	if useKFAC {
		opts = append(opts, trainer.WithKFACOptions(w.kfacOptions()))
	}
	build := func(*rand.Rand) *nn.Sequential {
		// The trainer's rng is a fixed constant; the initial weights are an
		// input too, so they come from the benchmark seed.
		return models.BuildCIFARResNet(w.Blocks, w.Width, 3, 10, rand.New(rand.NewSource(o.seed)))
	}
	var err error
	run.results, err = trainer.RunSessionsOn(context.Background(), run.fab, w.World, build, trainSet, testSet, opts...)
	return run, err
}

// runConverge measures converge_w2: K-FAC training to the target validation
// accuracy through trainer.RunSessionsOn, and — traced — the SGD baseline of
// the same session plus the data and checkpoint layers.
func runConverge(w workload, o runOpts) (*record, error) {
	rec := &record{Workload: w.Name, Seed: o.seed, Seconds: o.seconds, Traced: o.trace, Smoke: o.smoke,
		Ranks: w.World, TailPct: tailPct}

	// Set-up: everything before the first step that the harness can call
	// itself — data generation, one replica, its preconditioner (plan and
	// eigensolver teams). The trainer repeats the last two per rank inside
	// the run, where they cannot be separated from it.
	setups := 5
	if o.trace || o.smoke {
		setups = 1
	}
	var trainSet, testSet *data.Dataset
	var setupS, generateS []float64
	for i := 0; i < setups; i++ {
		runtime.GC()
		t0 := time.Now()
		trainSet, testSet = data.GenerateSynthetic(w.dataConfig(o.seed))
		generateS = append(generateS, time.Since(t0).Seconds())
		net := models.BuildCIFARResNet(w.Blocks, w.Width, 3, 10, rand.New(rand.NewSource(o.seed)))
		prec := kfac.NewFromOptions(net, nil, w.kfacOptions())
		rec.Params, rec.KFACLayers = nn.ParamCount(net), prec.NumLayers()
		prec.Close()
		setupS = append(setupS, time.Since(t0).Seconds())
	}

	var ckptMS, ckptBytes float64
	var saveCheckpoint trainer.CheckpointHook
	if o.trace {
		saveCheckpoint = func(s *trainer.Session, info trainer.CheckpointInfo) error {
			if err := os.MkdirAll(o.scratch, 0o755); err != nil {
				return err
			}
			path := filepath.Join(o.scratch, w.Name+".ckpt")
			defer os.Remove(path)
			t0 := time.Now()
			if err := checkpoint.Snapshot(s.Net(), info.Epoch+1, info.Iterations).Save(path); err != nil {
				return err
			}
			ckptMS = ms(int64(time.Since(t0)))
			fi, err := os.Stat(path)
			if err != nil {
				return err
			}
			ckptBytes = float64(fi.Size())
			return nil
		}
	}

	cpuBefore := cpuNS()
	kf, err := w.train(o, trainSet, testSet, true, saveCheckpoint)
	if err != nil {
		return nil, fmt.Errorf("K-FAC run: %w", err)
	}
	cpu := cpuNS() - cpuBefore
	res := kf.results[0]
	steps := len(kf.stepMS)
	quiet := quietCycles(kf.stepMS, w.InvFreq)
	rec.Steps, rec.StepsKept, rec.StepP50MS, rec.StepMS = steps, len(quiet), median(quiet), kf.stepMS
	rec.Attempted = steps*w.World + len(kf.history)
	rec.ParamChecksum = fmt.Sprintf("%016x", kf.sums[0])

	stepSumMS := sum(kf.stepMS)
	var runS float64
	epochS := make([]float64, len(kf.history))
	for i, st := range kf.history {
		rec.ValAccByEpoch = append(rec.ValAccByEpoch, st.ValAcc)
		epochS[i] = st.Wall.Seconds()
		runS += epochS[i]
	}
	target := res.EpochsToReach(w.Target)
	var toTargetS float64
	for i := 0; i < target; i++ {
		toTargetS += epochS[i]
	}

	// Output checks.
	agree := true
	for _, s := range kf.sums {
		agree = agree && s == kf.sums[0]
	}
	rec.addCheck("ranks_agree", agree, "parameter checksum identical on all %d ranks", w.World)
	rec.addCheck("target_reached", target > 0 || o.smoke,
		"validation accuracy by epoch %.4f, target %.2f within %d epochs", rec.ValAccByEpoch, w.Target, w.Epochs)
	if target < 0 && !o.smoke {
		rec.Failed++ // the epoch that should have crossed the target
	}

	if !o.trace {
		m := newMetricSet(endToEnd)
		m.set("setup_s", median(setupS))
		m.set("samples_per_s", float64(len(quiet)*w.Batch*w.World)/(sum(quiet)/1e3))
		m.set("step_ms_p50", median(quiet))
		m.set("step_ms_tail", percentile(quiet, tailPct))
		rss, err := peakRSSMB()
		if err != nil {
			return nil, err
		}
		m.set("peak_rss_mb", rss)
		var peak int64
		for _, r := range kf.results {
			peak = max(peak, r.KFACStats.Snapshot().PeakFactorBytes)
		}
		m.set("peak_factor_mb_max_rank", float64(peak)/1e6)
		rec.Metrics = m
		rec.finish()
		return rec, nil
	}

	m := newMetricSet(perLayer)
	n := float64(steps)
	m.set("trainer.time_to_target_s", toTargetS)
	m.set("trainer.epochs_to_target", float64(max(target, 0)))
	m.set("trainer.val_acc_final", res.FinalValAcc)
	m.set("trainer.step_ms_p50", median(kf.stepMS))
	m.set("trainer.epoch_s_p50", median(epochS))
	m.set("trainer.nonstep_s_per_epoch", (runS-stepSumMS/1e3)/float64(len(epochS)))
	m.set("data.generate_s", median(generateS))
	m.set("checkpoint.save_ms", ckptMS)
	m.set("checkpoint.bytes", ckptBytes)

	// The trainer owns the loop here, so the K-FAC stages come from the
	// preconditioner's own profile (whole run, rank 0), not from spans.
	stats := res.KFACStats.Snapshot()
	facUpd, eigUpd := float64(stats.FactorUpdates), float64(stats.EigUpdates)
	facComm, eigComm := ms(int64(stats.FactorComm)), ms(int64(stats.EigComm))
	m.set("kfac.factor_compute_ms_per_update", per(ms(int64(stats.FactorCompute)), facUpd))
	m.set("kfac.factor_comm_ms_per_update", per(facComm, facUpd))
	m.set("kfac.eig_compute_ms_per_update", per(ms(int64(stats.EigCompute)), eigUpd))
	m.set("kfac.eig_comm_ms_per_update", per(eigComm, eigUpd))
	m.set("kfac.precondition_ms_per_step", ms(int64(stats.Precondition))/n)
	cycles := n / float64(w.InvFreq)
	m.set("kfac.factor_updates", facUpd/cycles)
	m.set("kfac.eig_updates", eigUpd/cycles)
	m.set("linalg.eig_tridiag_ms_per_update", per(ms(int64(stats.EigTridiag)), eigUpd))
	m.set("linalg.eig_backaccum_ms_per_update", per(ms(int64(stats.EigBackAccum)), eigUpd))
	m.set("linalg.eig_ql_ms_per_update", per(ms(int64(stats.EigQL)), eigUpd))

	// Wire counters cover the whole run: steps, the initial broadcast and
	// the per-epoch evaluation allreduces.
	wire := kf.fab.total()
	m.set("comm.wire_mb_per_step", float64(wire.bytes)/1e6/n)
	m.set("comm.send_calls_per_step", float64(wire.sends)/n)
	m.set("comm.bytes_per_send", per(float64(wire.bytes), float64(wire.sends)))
	m.set("comm.recv_wait_ms_per_step", ms(kf.fab.ends[0].counts().recvWaitNS)/n)
	m.set("sched.cpu_ms_per_step", ms(cpu)/n)
	m.set("sched.cpu_util", float64(cpu)/(runS*1e9*float64(runtime.GOMAXPROCS(0))))

	// data: one epoch's batching for rank 0, as the trainer calls it.
	shard := data.ShardSampler{N: trainSet.Len(), Rank: 0, World: w.World, Seed: o.seed}
	batchMS := timeCalls(0, func() { data.Batches(trainSet, shard.EpochIndices(0), w.Batch) }) * 1e3
	m.set("data.batches_ms_per_epoch", batchMS)

	// The plain baseline: the same session without the preconditioner, for
	// the same number of epochs.
	sgd, err := w.train(o, trainSet, testSet, false, nil)
	if err != nil {
		return nil, fmt.Errorf("SGD run: %w", err)
	}
	sgdEpochS := make([]float64, len(sgd.history))
	for i, st := range sgd.history {
		sgdEpochS[i] = st.Wall.Seconds()
	}
	m.set("trainer.sgd_epoch_s_p50", median(sgdEpochS))
	m.set("trainer.sgd_val_acc_at_budget", sgd.results[0].FinalValAcc)
	m.set("optim.sgd_step_ms_p50", median(sgd.stepMS))
	m.set("kfac.overhead_x", per(rec.StepP50MS, median(sgd.stepMS)))

	rec.Metrics = m
	rec.finish()
	return rec, nil
}
