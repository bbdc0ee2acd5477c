package trainer

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"sync"
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
// the same epoch (hooks observing only rank-averaged metrics, such as a
// validation-accuracy target, satisfy this automatically) — diverging
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
	// Loss is this rank's training loss of the step: the cross-entropy of
	// its local mini-batch. It is local (not rank-averaged): hooks
	// that need a cross-rank view must reduce it themselves, and any
	// cross-rank decision derived from it must still satisfy the
	// all-ranks-agree contract documented on the hook types.
	Loss float64
	// StepDuration is the wall time of the step on this rank:
	// forward/backward over the mini-batch, gradient exchange,
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
// The paper's Listing 1 loop (synchronize → precondition → step) over
// momentum SGD is the fixed skeleton, and everything scenario-specific —
// K-FAC preconditioning, schedules, logging, early stopping, checkpointing,
// observation — attaches through options and typed hooks.
type Session struct {
	net         *nn.Sequential
	comm        *comm.Communicator
	train, test *data.Dataset
	cfg         config

	epochHooks []EpochHook
	stepHooks  []StepHook
	ckptHooks  []CheckpointHook
	ckptEvery  int
	resume     *checkpoint.File

	prec *kfac.Preconditioner // the running K-FAC preconditioner, if any
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

// WithMomentum sets the SGD optimizer's momentum.
func WithMomentum(m float64) SessionOption { return func(s *Session) { s.cfg.Momentum = m } }

// WithWeightDecay sets the SGD optimizer's L2 weight decay.
func WithWeightDecay(wd float64) SessionOption { return func(s *Session) { s.cfg.WeightDecay = wd } }

// WithSeed drives data sharding; it must agree across ranks.
func WithSeed(seed int64) SessionOption { return func(s *Session) { s.cfg.Seed = seed } }

// WithKFACOptions enables K-FAC preconditioning configured by o (zero
// fields select the paper defaults).
func WithKFACOptions(o kfac.Options) SessionOption {
	return func(s *Session) { s.cfg.KFAC = &o }
}

// WithDampingSchedule decays K-FAC damping at fixed epochs (§V-C).
func WithDampingSchedule(sched *kfac.ParamSchedule) SessionOption {
	return func(s *Session) { s.cfg.DampingSchedule = sched }
}

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
// none do), which runWorld guarantees by construction: every rank's Run gets
// the one run context.
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

	opt := optim.SGD(params, optim.WithLR(cfg.LR.At(0)),
		optim.WithMomentum(cfg.Momentum), optim.WithWeightDecay(cfg.WeightDecay))
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
		s.prec = prec
		defer func() {
			prec.Close()
			s.prec = nil
		}()
	}
	ce := nn.CrossEntropy{}
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
		if prec != nil && cfg.DampingSchedule != nil {
			prec.SetDamping(cfg.DampingSchedule.At(epoch))
		}

		batches := data.Batches(s.train, sampler.EpochIndices(epoch), cfg.BatchPerRank)
		var lossSum, accSum float64
		var stopRequested bool
		for _, b := range batches {
			// Iteration boundary: the only point at which cancellation is
			// acted on, and only by cross-rank consensus.
			if cancelled, cerr := s.checkCancelled(ctx); cancelled || cerr != nil {
				return res, cerr
			}
			stepStart := time.Now()
			opt.ZeroGrad()
			out := s.net.Forward(b.X, true)
			loss, grad := ce.Loss(out, b.Labels)
			lossSum += loss
			accSum += nn.Accuracy(out, b.Labels)
			s.net.Backward(grad)

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
						Loss: loss, StepDuration: time.Since(stepStart)})
				if err != nil {
					return res, err
				}
				// ErrStop from a step hook is honored at the epoch
				// boundary, keeping ranks synchronized through validation.
				stopRequested = stopRequested || stop
			}
		}

		st := EpochStats{Epoch: epoch, LR: lr}
		if n := len(batches); n > 0 {
			st.TrainLoss = lossSum / float64(n)
			st.TrainAcc = accSum / float64(n)
		}
		// Average the per-rank training metrics so logs agree across ranks.
		if c != nil && world > 1 {
			buf := []float64{st.TrainLoss, st.TrainAcc}
			if err := c.AllreduceMean(buf); err != nil {
				return res, err
			}
			st.TrainLoss, st.TrainAcc = buf[0], buf[1]
		}
		va, err := Evaluate(s.net, c, s.test, cfg.BatchPerRank, cfg.Seed)
		if err != nil {
			return res, err
		}
		st.ValAcc = va
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

// replicaSeed seeds every rank's replica in every world the trainer
// launches (RunSessions, RunSessionsOn, RunElastic): replicas start
// identical (the initial broadcast enforces it regardless), and a one-rank
// run starts from the same weights as any larger world.
const replicaSeed = 12345

// RunSessions builds one session per rank over an in-process fabric and
// runs them in parallel under a shared context, returning every rank's
// Result. buildNet is called once per rank with a generator seeded from
// replicaSeed, the same at every world size, so a one-rank run is the
// single-process run from those weights. The shared context satisfies the
// cancellation contract's requirement that every rank agree on
// cancellability.
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
// hands out per-rank endpoints; the kfac-train CLI and the chaos
// experiment both use it. A fabric whose endpoints do not number
// 0..world-1 of world ranks is refused before any session starts.
func RunSessionsOn(ctx context.Context, fab comm.Fabric, world int, buildNet func(rng *rand.Rand) *nn.Sequential,
	train, test *data.Dataset, opts ...SessionOption) ([]*Result, error) {
	if world < 1 {
		return nil, fmt.Errorf("trainer: world must be ≥ 1")
	}
	results, errs := runWorld(ctx, fab, world, buildNet, train, test, opts, nil)
	return results, worldErr(errs)
}

// runWorld is the one launcher of a world of sessions: it checks that
// fab's endpoints 0..world-1 are ranks 0..world-1 of world, builds every
// rank's replica from replicaSeed, binds every communicator to one abort
// context and runs NewSession + Run on each rank, returning per-rank
// results and errors. A fabric mismatch is the error of the first
// mismatched rank, and no session starts.
//
// The abort context fires only when a rank fails for real — any error but
// context.Canceled, a chaos kill included: peers blocked mid-collective on
// the broken rank are hard-aborted instead of hanging. It is deliberately
// not derived from ctx: the sessions see ctx, whose cooperative consensus
// stop keeps the all-ranks-stop-together semantics and bit-identical
// arithmetic, and which the abort must not cut short.
//
// watch, when non-nil, is called with the endpoints and the abort after
// the fabric check and before any session starts (the elastic heartbeats).
func runWorld(ctx context.Context, fab comm.Fabric, world int, buildNet func(rng *rand.Rand) *nn.Sequential,
	train, test *data.Dataset, opts []SessionOption, watch func(eps []comm.Transport, abort func())) ([]*Result, []error) {
	results := make([]*Result, world)
	errs := make([]error, world)
	eps := make([]comm.Transport, world)
	for r := range eps {
		eps[r] = fab.Endpoint(r)
		if got, size := eps[r].Rank(), eps[r].Size(); got != r || size != world {
			errs[r] = fmt.Errorf("trainer: fabric endpoint %d is rank %d of %d, world is %d", r, got, size, world)
			return results, errs
		}
	}
	abortCtx, abort := context.WithCancel(context.Background())
	defer abort()
	if watch != nil {
		watch(eps, abort)
	}
	var wg sync.WaitGroup
	for r, ep := range eps {
		wg.Add(1)
		go func() {
			defer wg.Done()
			net := buildNet(rand.New(rand.NewSource(replicaSeed)))
			s, err := NewSession(net, comm.NewCommunicator(ep).WithContext(abortCtx), train, test, opts...)
			if err == nil {
				results[r], err = s.Run(ctx)
			}
			if errs[r] = err; err != nil && !errors.Is(err, context.Canceled) {
				abort()
			}
		}()
	}
	wg.Wait()
	return results, errs
}

// worldErr reports a world's outcome from its ranks' errors: the first
// rank's genuine failure, not the context.Canceled that failure's abort
// induced in its peers; context.Canceled only when no rank failed for real
// (a cooperative stop); nil when every rank finished.
func worldErr(errs []error) error {
	var cancelled error
	for r, err := range errs {
		switch {
		case err == nil:
		case !errors.Is(err, context.Canceled):
			return fmt.Errorf("rank %d: %w", r, err)
		case cancelled == nil:
			cancelled = fmt.Errorf("rank %d: %w", r, err)
		}
	}
	return cancelled
}
