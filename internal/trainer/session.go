package trainer

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/comm"
	"repro/internal/data"
	"repro/internal/kfac"
	"repro/internal/nn"
	"repro/internal/optim"
)

// ErrStop is returned by a hook to end training gracefully after the
// current epoch: the run finishes with Result.Stopped set and a nil error.
// In a distributed run every rank's hooks must reach the same decision at
// the same epoch (hooks observing only rank-averaged metrics, like the
// stock WithStopAtValAcc hook, satisfy this automatically) — diverging
// decisions desynchronize the collective schedule.
var ErrStop = errors.New("trainer: stop requested by hook")

// ErrResumeComplete is returned by Run when the resume checkpoint already
// covers every configured epoch — there is nothing left to train. Callers
// that treat the checkpoint as authoritative (RunElastic) interpret it as
// a clean finish; anyone else gets a loud signal instead of a silently
// zeroed Result.
var ErrResumeComplete = errors.New("trainer: resume checkpoint already covers all configured epochs")

// StepInfo describes one completed optimizer step.
type StepInfo struct {
	// Epoch is the zero-based epoch of the step.
	Epoch int
	// Iteration is the global optimizer-step count so far (1-based: the
	// value after this step).
	Iteration int
	// LR is the learning rate the step used.
	LR float64
	// Loss is this rank's training loss of the step, averaged over the
	// step's accumulation group. It is local (not rank-averaged): hooks
	// that need a cross-rank view must reduce it themselves, and any
	// cross-rank decision derived from it must still satisfy the
	// all-ranks-agree contract documented on the hook types.
	Loss float64
	// StepDuration is the wall time of the step on this rank:
	// forward/backward over the accumulation group, gradient exchange,
	// preconditioning, and the optimizer update — everything between two
	// iteration boundaries except the hooks themselves.
	StepDuration time.Duration
}

// CheckpointInfo describes a checkpoint boundary.
type CheckpointInfo struct {
	// Epoch is the zero-based epoch just completed.
	Epoch int
	// Iterations is the global optimizer-step count so far.
	Iterations int
}

// Hook signatures. Hooks run synchronously on the training goroutine of
// EVERY rank, in registration order; anything rank-specific (logging,
// checkpoint writing) must guard on Session.Rank itself. A hook returning
// ErrStop requests a graceful stop (honored at the epoch boundary for all
// hook kinds); any other non-nil error aborts the run with that error.
type (
	// EpochHook runs after each epoch's validation, observing the
	// rank-averaged EpochStats that will be appended to Result.History.
	EpochHook func(s *Session, e EpochStats) error
	// StepHook runs after each optimizer step (after the gradient
	// exchange, preconditioning, and parameter update).
	StepHook func(s *Session, info StepInfo) error
	// CheckpointHook runs after the epoch hooks of every WithCheckpointEvery
	// boundary epoch, and once more at the final epoch of the run.
	CheckpointHook func(s *Session, info CheckpointInfo) error
)

// Session is a configured training run over one rank's model replica. Build
// it with NewSession and functional options, register hooks, then call Run.
// The zero value is not usable.
//
// The paper's Listing 1 loop (synchronize → precondition → step) is the
// fixed skeleton, and everything scenario-specific — optimizer, K-FAC
// preconditioning, schedules, logging, early stopping, checkpointing,
// observation — attaches through options and typed hooks.
type Session struct {
	net         *nn.Sequential
	comm        *comm.Communicator
	train, test *data.Dataset
	cfg         config

	buildOpt   func(params []*nn.Param, initialLR float64) optim.Optimizer
	epochHooks []EpochHook
	stepHooks  []StepHook
	ckptHooks  []CheckpointHook
	ckptEvery  int
	resume     *checkpoint.File
}

// SessionOption configures a Session at construction. Options apply in
// argument order; for scalar settings the last option wins, while hook
// options accumulate in order.
type SessionOption func(*Session)

// WithEpochs sets the number of passes over the training set (required).
func WithEpochs(n int) SessionOption { return func(s *Session) { s.cfg.Epochs = n } }

// WithBatchPerRank sets the local mini-batch size (required); the effective
// global batch is BatchPerRank × world size.
func WithBatchPerRank(n int) SessionOption { return func(s *Session) { s.cfg.BatchPerRank = n } }

// WithLRSchedule sets the per-epoch learning-rate schedule (already scaled
// for the world size, per the paper's linear-scaling rule).
func WithLRSchedule(sched optim.LRSchedule) SessionOption {
	return func(s *Session) { s.cfg.LR = sched }
}

// WithMomentum sets the default SGD optimizer's momentum (ignored when
// WithOptimizer overrides the optimizer).
func WithMomentum(m float64) SessionOption { return func(s *Session) { s.cfg.Momentum = m } }

// WithWeightDecay sets the default SGD optimizer's L2 weight decay (ignored
// when WithOptimizer overrides the optimizer).
func WithWeightDecay(wd float64) SessionOption { return func(s *Session) { s.cfg.WeightDecay = wd } }

// WithLabelSmoothing sets the cross-entropy label-smoothing ε.
func WithLabelSmoothing(eps float64) SessionOption {
	return func(s *Session) { s.cfg.LabelSmoothing = eps }
}

// WithSeed drives data sharding; it must agree across ranks.
func WithSeed(seed int64) SessionOption { return func(s *Session) { s.cfg.Seed = seed } }

// WithAccumSteps accumulates gradients over this many micro-batches before
// each exchange and optimizer step (0/1 = off).
func WithAccumSteps(n int) SessionOption { return func(s *Session) { s.cfg.AccumSteps = n } }

// WithKFACOptions enables K-FAC preconditioning configured by o (zero
// fields select the paper defaults).
func WithKFACOptions(o kfac.Options) SessionOption {
	return func(s *Session) { s.cfg.KFAC = &o }
}

// WithDampingSchedule decays K-FAC damping at fixed epochs (§V-C).
func WithDampingSchedule(sched *kfac.ParamSchedule) SessionOption {
	return func(s *Session) { s.cfg.DampingSchedule = sched }
}

// WithFreqSchedule decays kfac-update-freq at fixed epochs (§V-C).
func WithFreqSchedule(sched *kfac.ParamSchedule) SessionOption {
	return func(s *Session) { s.cfg.FreqSchedule = sched }
}

// WithOptimizer replaces the default SGD update rule. build receives the
// model parameters and the schedule's epoch-0 learning rate; the session
// calls SetLR on the returned optimizer at every epoch boundary and
// ZeroGrad before every accumulation group.
func WithOptimizer(build func(params []*nn.Param, initialLR float64) optim.Optimizer) SessionOption {
	return func(s *Session) { s.buildOpt = build }
}

// WithTop5 additionally records top-5 validation accuracy in EpochStats.
func WithTop5() SessionOption { return func(s *Session) { s.cfg.TrackTop5 = true } }

// WithLogger installs the stock per-epoch logging hook: one line per epoch
// to w, written by rank 0 only.
func WithLogger(w io.Writer) SessionOption {
	return func(s *Session) {
		s.OnEpochEnd(func(s *Session, e EpochStats) error {
			if s.Rank() == 0 && w != nil {
				fmt.Fprintf(w, "epoch %3d  lr %.4f  loss %.4f  train-acc %.4f  val-acc %.4f  (%.1fs)\n",
					e.Epoch, e.LR, e.TrainLoss, e.TrainAcc, e.ValAcc, e.Wall.Seconds())
			}
			return nil
		})
	}
}

// WithStopAtValAcc installs the stock early-stopping hook: training ends at
// the first epoch whose (rank-averaged) validation accuracy reaches the
// threshold — the paper's time-to-baseline measurement. Non-positive
// thresholds install nothing.
func WithStopAtValAcc(acc float64) SessionOption {
	return func(s *Session) {
		if acc <= 0 {
			return
		}
		s.OnEpochEnd(func(s *Session, e EpochStats) error {
			if e.ValAcc >= acc {
				return ErrStop
			}
			return nil
		})
	}
}

// WithResume starts the run from a checkpoint instead of from scratch:
// Run restores the file's parameters and buffers into the model before the
// initial broadcast, begins at epoch f.Epoch (the checkpoint's count of
// completed epochs), and continues Result.Iterations from f.Step. The
// checkpoint may have been written at any world size — restore is
// world-size agnostic (see package checkpoint) and this session's shard
// sampler and K-FAC placement are built for the current world. All ranks
// must resume from an identical checkpoint (the broadcast enforces
// replica agreement regardless).
func WithResume(f *checkpoint.File) SessionOption {
	return func(s *Session) { s.resume = f }
}

// WithCheckpointEvery fires the OnCheckpoint hooks after every n-th epoch
// (and, regardless of alignment, after the final epoch of a completed or
// stopped run). n ≤ 0 fires them only at that final epoch.
func WithCheckpointEvery(n int) SessionOption {
	return func(s *Session) { s.ckptEvery = n }
}

// OnEpochEnd returns an option registering an epoch hook; see also the
// Session.OnEpochEnd method for post-construction registration.
func OnEpochEnd(h EpochHook) SessionOption { return func(s *Session) { s.OnEpochEnd(h) } }

// OnStep returns an option registering a step hook.
func OnStep(h StepHook) SessionOption { return func(s *Session) { s.OnStep(h) } }

// OnCheckpoint returns an option registering a checkpoint hook.
func OnCheckpoint(h CheckpointHook) SessionOption { return func(s *Session) { s.OnCheckpoint(h) } }

// NewSession builds a training session for this rank. c may be nil for
// single-process runs; all ranks must use identical options and datasets
// (each rank loads the full dataset and iterates its shard).
func NewSession(net *nn.Sequential, c *comm.Communicator, train, test *data.Dataset,
	opts ...SessionOption) (*Session, error) {
	if net == nil || train == nil || test == nil {
		return nil, fmt.Errorf("trainer: NewSession requires a model and datasets")
	}
	s := &Session{net: net, comm: c, train: train, test: test}
	for _, o := range opts {
		o(s)
	}
	if s.cfg.Epochs <= 0 || s.cfg.BatchPerRank <= 0 {
		return nil, fmt.Errorf("trainer: Epochs and BatchPerRank must be positive")
	}
	return s, nil
}

// OnEpochEnd appends an epoch hook (run after each epoch's validation, in
// registration order).
func (s *Session) OnEpochEnd(h EpochHook) { s.epochHooks = append(s.epochHooks, h) }

// OnStep appends a step hook (run after each optimizer step).
func (s *Session) OnStep(h StepHook) { s.stepHooks = append(s.stepHooks, h) }

// OnCheckpoint appends a checkpoint hook (run at WithCheckpointEvery
// boundaries and at the end of the run).
func (s *Session) OnCheckpoint(h CheckpointHook) { s.ckptHooks = append(s.ckptHooks, h) }

// Net returns the model replica this session trains.
func (s *Session) Net() *nn.Sequential { return s.net }

// Rank returns this session's rank (0 for single-process runs).
func (s *Session) Rank() int {
	if s.comm == nil {
		return 0
	}
	return s.comm.Rank()
}

// World returns the number of ranks (1 for single-process runs).
func (s *Session) World() int {
	if s.comm == nil {
		return 1
	}
	return s.comm.Size()
}

// checkCancelled decides — identically on every rank — whether the run has
// been cancelled. Local context observations may race (one rank can see
// cancellation an iteration before another), so each rank contributes a
// flag to a tiny allreduce and every rank acts on the agreed sum: either
// all ranks stop at this iteration boundary or none do. This is the
// cooperative half of the cancellation contract (docs/ARCHITECTURE.md);
// it never aborts a collective mid-protocol, so the SPMD schedule stays
// synchronized up to the common stopping point.
//
// The consensus collective is only issued for cancellable contexts: every
// rank must agree on cancellability (all pass a cancellable context or
// none do), which RunSessions guarantees by construction.
func (s *Session) checkCancelled(ctx context.Context) (bool, error) {
	if ctx.Done() == nil {
		return false, nil
	}
	flag := 0.0
	if ctx.Err() != nil {
		flag = 1
	}
	if s.comm != nil && s.comm.Size() > 1 {
		buf := []float64{flag}
		if err := s.comm.AllreduceSum(buf); err != nil {
			return false, fmt.Errorf("trainer: cancellation consensus: %w", err)
		}
		flag = buf[0]
	}
	if flag == 0 {
		return false, nil
	}
	// Report the local cause when this rank was cancelled itself; a rank
	// stopped purely by consensus reports context.Canceled.
	if err := ctx.Err(); err != nil {
		return true, err
	}
	return true, context.Canceled
}

// runHooks drives one hook list, folding ErrStop into a graceful-stop flag
// and propagating any other error.
func runHooks[T any, H ~func(*Session, T) error](s *Session, hooks []H, v T) (stop bool, err error) {
	for _, h := range hooks {
		switch herr := h(s, v); {
		case herr == nil:
		case errors.Is(herr, ErrStop):
			stop = true
		default:
			return stop, herr
		}
	}
	return stop, nil
}

// Run trains until the configured epochs complete, a hook requests a stop,
// an error occurs, or ctx is cancelled. On cancellation it returns the
// partial Result together with the context's error (context.Canceled on
// ranks stopped by cross-rank consensus); every rank observes cancellation
// at the same iteration boundary, so the communicator remains synchronized
// and reusable.
func (s *Session) Run(ctx context.Context) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	cfg := &s.cfg
	rank, world := s.Rank(), s.World()
	c := s.comm
	params := s.net.Params()

	// The session consumes every layer output within the step that produced
	// it, so workspace recycling is safe here and removes the per-step heap
	// churn of forward/backward (see nn.BufferReuser). Results are
	// bit-identical either way. Restored on exit: callers that keep using
	// the net afterwards (inference loops comparing outputs across forward
	// passes) get the default fresh-tensor contract back.
	nn.SetBufferReuse(s.net, true)
	defer nn.SetBufferReuse(s.net, false)

	// Mixed precision: when K-FAC is configured for float32 kernels, switch
	// the layers' forward/backward to the float32 compute path too, so the
	// preconditioner consumes native float32 captures with no narrowing
	// pass. Parameters, gradients, the allreduce payloads, and checkpoints
	// stay float64 (convert at the boundary). Restored on exit like buffer
	// reuse.
	if cfg.KFAC != nil && cfg.KFAC.Precision == kfac.F32 {
		nn.SetComputeF32(s.net, true)
		defer nn.SetComputeF32(s.net, false)
	}

	startEpoch, startStep := 0, 0
	if s.resume != nil {
		if err := s.resume.Restore(s.net); err != nil {
			return nil, fmt.Errorf("trainer: resume: %w", err)
		}
		startEpoch, startStep = s.resume.Epoch, s.resume.Step
		if startEpoch >= cfg.Epochs {
			return &Result{Iterations: startStep},
				fmt.Errorf("%w (checkpoint epoch %d, configured epochs %d)",
					ErrResumeComplete, startEpoch, cfg.Epochs)
		}
	}

	// Horovod convention: broadcast initial weights from rank 0 so all
	// replicas start identical regardless of construction seeds.
	if c != nil && world > 1 {
		for _, p := range params {
			if err := c.Broadcast(p.Value.Data, 0); err != nil {
				return nil, fmt.Errorf("trainer: initial broadcast: %w", err)
			}
		}
	}

	var opt optim.Optimizer
	if s.buildOpt != nil {
		opt = s.buildOpt(params, cfg.LR.At(0))
	} else {
		opt = optim.SGD(params, optim.WithLR(cfg.LR.At(0)),
			optim.WithMomentum(cfg.Momentum), optim.WithWeightDecay(cfg.WeightDecay))
	}
	var prec *kfac.Preconditioner
	if cfg.KFAC != nil {
		// The K-FAC options (including the step engine) pass through as-is.
		// Under kfac.EnginePipelined the preconditioner issues overlapping
		// async collectives inside Step; that is safe here because every
		// rank builds the identical model (so the per-layer schedule is
		// deterministic and identical) and the session performs no other
		// collective between Step's entry and return — the SPMD ordering
		// contract of docs/ARCHITECTURE.md.
		prec = kfac.NewFromOptions(s.net, c, *cfg.KFAC)
		defer prec.Close()
	}
	ce := nn.CrossEntropy{Smoothing: cfg.LabelSmoothing}
	sampler := data.ShardSampler{N: s.train.Len(), Rank: rank, World: world, Seed: cfg.Seed}
	// The gradient exchange owns its error-feedback accumulator, separate
	// from the preconditioner's factor-path residuals: the two streams
	// carry different tensors, so sharing slots would corrupt both. It
	// persists across iterations (and codec switches — see
	// comm.ErrorFeedback.SetCodec) so residual mass is never dropped.
	gradEF := comm.NewErrorFeedback(nil)

	res := &Result{Iterations: startStep}
	if prec != nil {
		res.KFACStats = prec.Stats()
	}
	fireCheckpoints := func(epoch int) (stop bool, err error) {
		if len(s.ckptHooks) == 0 {
			return false, nil
		}
		return runHooks(s, s.ckptHooks, CheckpointInfo{Epoch: epoch, Iterations: res.Iterations})
	}
	for epoch := startEpoch; epoch < cfg.Epochs; epoch++ {
		epochStart := time.Now()
		lr := cfg.LR.At(epoch)
		opt.SetLR(lr)
		if prec != nil {
			if cfg.DampingSchedule != nil {
				prec.SetDamping(cfg.DampingSchedule.At(epoch))
			}
			if cfg.FreqSchedule != nil {
				prec.SetInvUpdateFreq(int(cfg.FreqSchedule.At(epoch) + 0.5))
			}
		}

		accum := cfg.AccumSteps
		if accum < 1 {
			accum = 1
		}
		batches := data.Batches(s.train, sampler.EpochIndices(epoch), cfg.BatchPerRank)
		// Truncate to a whole number of accumulation groups.
		batches = batches[:len(batches)/accum*accum]
		var lossSum, accSum float64
		var stopRequested bool
		for bi := 0; bi < len(batches); bi += accum {
			// Iteration boundary: the only point at which cancellation is
			// acted on, and only by cross-rank consensus.
			if cancelled, cerr := s.checkCancelled(ctx); cancelled || cerr != nil {
				return res, cerr
			}
			stepStart := time.Now()
			opt.ZeroGrad()
			stepLoss := 0.0
			for k := 0; k < accum; k++ {
				b := batches[bi+k]
				out := s.net.Forward(b.X, true)
				loss, grad := ce.Loss(out, b.Labels)
				stepLoss += loss / float64(accum)
				accSum += nn.Accuracy(out, b.Labels) / float64(accum)
				s.net.Backward(grad)
			}
			lossSum += stepLoss
			if accum > 1 {
				inv := 1 / float64(accum)
				for _, p := range params {
					p.Grad.Scale(inv)
				}
			}

			// Gradient exchange (optimizer.synchronize() in Listing 1).
			// With a preconditioner attached, the exchange is configured by
			// its Decision, exactly like the factor allreduce — read here,
			// before Step, so an autotune decision made during step k
			// reconfigures the exchange from step k+1: the same boundary on
			// every rank, because the decision itself is a consensus output.
			if c != nil && world > 1 {
				var fu *comm.Fuser
				if prec != nil {
					fu = prec.Decision().NewFuser(c, gradEF)
				} else {
					fu = comm.NewFuser(c, 0)
				}
				for _, p := range params {
					fu.Add(p.Grad)
				}
				if err := fu.Flush(); err != nil {
					return res, fmt.Errorf("trainer: gradient allreduce: %w", err)
				}
			}
			// preconditioner.step() before optimizer.step().
			if prec != nil {
				if err := prec.Step(lr); err != nil {
					return res, fmt.Errorf("trainer: kfac step: %w", err)
				}
			}
			opt.Step()
			res.Iterations++
			if len(s.stepHooks) > 0 {
				stop, err := runHooks(s, s.stepHooks,
					StepInfo{Epoch: epoch, Iteration: res.Iterations, LR: lr,
						Loss: stepLoss, StepDuration: time.Since(stepStart)})
				if err != nil {
					return res, err
				}
				// ErrStop from a step hook is honored at the epoch
				// boundary, keeping ranks synchronized through validation.
				stopRequested = stopRequested || stop
			}
		}

		st := EpochStats{Epoch: epoch, LR: lr}
		if groups := len(batches) / accum; groups > 0 {
			st.TrainLoss = lossSum / float64(groups)
			st.TrainAcc = accSum / float64(groups)
		}
		// Average the per-rank training metrics so logs agree across ranks.
		if c != nil && world > 1 {
			buf := []float64{st.TrainLoss, st.TrainAcc}
			if err := c.AllreduceMean(buf); err != nil {
				return res, err
			}
			st.TrainLoss, st.TrainAcc = buf[0], buf[1]
		}
		va, top5, err := evaluateTopK(s.net, c, s.test, cfg.BatchPerRank, cfg.Seed, cfg.TrackTop5)
		if err != nil {
			return res, err
		}
		st.ValAcc = va
		st.ValTop5 = top5
		st.Wall = time.Since(epochStart)
		res.TotalWall += st.Wall
		res.History = append(res.History, st)
		if va > res.BestValAcc {
			res.BestValAcc = va
		}
		res.FinalValAcc = va

		stop, err := runHooks(s, s.epochHooks, st)
		if err != nil {
			return res, err
		}
		stopRequested = stopRequested || stop
		atCheckpoint := s.ckptEvery > 0 && (epoch+1)%s.ckptEvery == 0
		lastEpoch := epoch == cfg.Epochs-1 || stopRequested
		if atCheckpoint || lastEpoch {
			stop, err := fireCheckpoints(epoch)
			if err != nil {
				return res, err
			}
			stopRequested = stopRequested || stop
		}
		if stopRequested {
			res.Stopped = true
			break
		}
	}
	return res, nil
}

// RunSessions builds one session per rank over an in-process fabric and
// runs them in parallel under a shared context, returning every rank's
// Result. buildNet is called once per rank with a rank-independent seed so
// replicas start identical (the initial broadcast enforces it regardless).
// The shared context satisfies the cancellation contract's requirement that every
// rank agree on cancellability.
func RunSessions(ctx context.Context, world int, buildNet func(rng *rand.Rand) *nn.Sequential,
	train, test *data.Dataset, opts ...SessionOption) ([]*Result, error) {
	if world < 1 {
		return nil, fmt.Errorf("trainer: world must be ≥ 1")
	}
	return RunSessionsOn(ctx, comm.NewInprocFabric(world), world, buildNet, train, test, opts...)
}

// RunSessionsOn is RunSessions over a caller-supplied fabric: one session
// per rank on fab.Endpoint(0..world-1). This is how a run is placed on a
// fault-injected world (comm.NewChaosFabric) or any other transport that
// hands out per-rank endpoints; the kfac-train CLI's -chaos mode and the
// chaos experiment both use it.
func RunSessionsOn(ctx context.Context, fab comm.Fabric, world int, buildNet func(rng *rand.Rand) *nn.Sequential,
	train, test *data.Dataset, opts ...SessionOption) ([]*Result, error) {
	if world < 1 {
		return nil, fmt.Errorf("trainer: world must be ≥ 1")
	}
	// abortCtx fires only when a rank fails: peers blocked mid-collective
	// on the broken rank (reachable on fault-injecting fabrics — exhausted
	// chaos retries, kills) are hard-aborted instead of hanging forever.
	// It is deliberately NOT derived from the run ctx: user cancellation
	// goes through the cooperative consensus path, which keeps the clean
	// all-ranks-stop-together semantics and bit-identical arithmetic.
	abortCtx, abort := context.WithCancel(context.Background())
	defer abort()
	results := make([]*Result, world)
	errs := make([]error, world)
	done := make(chan int, world)
	for r := 0; r < world; r++ {
		go func(r int) {
			defer func() { done <- r }()
			net := buildNet(rand.New(rand.NewSource(12345)))
			c := comm.NewCommunicator(fab.Endpoint(r)).WithContext(abortCtx)
			s, err := NewSession(net, c, train, test, opts...)
			if err != nil {
				errs[r] = err
				abort()
				return
			}
			results[r], errs[r] = s.Run(ctx)
			if errs[r] != nil && !errors.Is(errs[r], context.Canceled) {
				abort()
			}
		}(r)
	}
	for i := 0; i < world; i++ {
		<-done
	}
	// Prefer the originating failure over the context errors it induced in
	// peers through the abort.
	var ctxErr error
	for r, err := range errs {
		switch {
		case err == nil:
		case errors.Is(err, context.Canceled):
			if ctxErr == nil {
				ctxErr = fmt.Errorf("rank %d: %w", r, err)
			}
		default:
			return results, fmt.Errorf("rank %d: %w", r, err)
		}
	}
	if ctxErr != nil {
		return results, ctxErr
	}
	return results, nil
}
