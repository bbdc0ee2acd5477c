package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/comm"
	"repro/internal/data"
	"repro/internal/kfac"
	"repro/internal/models"
	"repro/internal/nn"
	"repro/internal/optim"
	"repro/internal/tensor"
)

// runOpts is what the command line fixes for one run of one workload.
type runOpts struct {
	seed    int64
	seconds float64
	trace   bool
	smoke   bool
	scratch string // directory for files the run writes and removes
}

// Span names of the step loop, "<layer>.<call>". The stage spans partition
// the step: each begins where the previous one ended.
const (
	spanStep     = "step"
	spanZeroGrad = "optim.zero_grad"
	spanForward  = "nn.forward"
	spanLoss     = "nn.loss"
	spanBackward = "nn.backward"
	spanExchange = "comm.grad_exchange"
	spanKFAC     = "kfac.step"
	spanOptim    = "optim.step"
)

type stageIDs struct {
	step, zeroGrad, forward, loss, backward, exchange, kfac, optim uint16
}

// rank is one replica: the state trainer.Session.Run keeps in locals.
type rank struct {
	id     int
	world  int
	net    *nn.Sequential
	params []*nn.Param
	comm   *comm.Communicator
	prec   *kfac.Preconditioner // nil in the SGD-only window
	opt    optim.Optimizer
	pool   []data.Batch
	next   int // batches consumed; the pool is cycled

	// Timed phase. Rank 0 keeps the per-step series; every rank counts its
	// non-finite losses and checksums its parameters.
	stepMS           []float64
	losses           []float64
	failed           int
	fixedSum, endSum uint64

	// Traced runs only.
	spans          *spanBuf
	ids            stageIDs
	fwdIDs, bwdIDs []uint16  // per Sequential.Layers[i] child spans (rank 0)
	stageSumMS     []float64 // Σ stage spans of each timed step (rank 0)
}

// stager walks one step's stage boundaries with one clock read per
// boundary. With a nil buffer (untraced run) it does nothing.
type stager struct {
	buf    *spanBuf
	step   int
	parent int32
	t      int64
	sum    int64
}

func (s *stager) begin(id uint16) int32 {
	if s.buf == nil {
		return -1
	}
	return s.buf.open(id, s.step, s.parent, s.t)
}

func (s *stager) end(i int32) {
	if s.buf == nil {
		return
	}
	now := s.buf.now()
	s.buf.close(i, now)
	s.sum += now - s.t
	s.t = now
}

// step is the loop body of trainer.Session.Run re-expressed with public
// calls, so every stage can be timed from outside: zero grads → forward →
// loss → backward → gradient exchange → K-FAC step → optimizer step.
func (r *rank) step(stepNo int) (loss float64, stageSum int64, err error) {
	b := &r.pool[r.next%len(r.pool)]
	r.next++
	st := stager{buf: r.spans, step: stepNo, parent: -1}
	if r.spans != nil {
		st.t = r.spans.now()
		st.parent = r.spans.open(r.ids.step, stepNo, -1, st.t)
	}

	sp := st.begin(r.ids.zeroGrad)
	r.opt.ZeroGrad()
	st.end(sp)

	sp = st.begin(r.ids.forward)
	out := r.forward(b.X, stepNo, sp)
	st.end(sp)

	sp = st.begin(r.ids.loss)
	loss, grad := nn.CrossEntropy{}.Loss(out, b.Labels)
	st.end(sp)

	sp = st.begin(r.ids.backward)
	r.backward(grad, stepNo, sp)
	st.end(sp)

	if r.world > 1 {
		sp = st.begin(r.ids.exchange)
		fu := comm.NewFuser(r.comm, 0)
		for _, p := range r.params {
			fu.Add(p.Grad)
		}
		err = fu.Flush()
		st.end(sp)
		if err != nil {
			return loss, st.sum, fmt.Errorf("gradient exchange: %w", err)
		}
	}

	if r.prec != nil {
		sp = st.begin(r.ids.kfac)
		err = r.prec.Step(stepLR)
		st.end(sp)
		if err != nil {
			return loss, st.sum, fmt.Errorf("kfac step: %w", err)
		}
	}

	sp = st.begin(r.ids.optim)
	r.opt.Step()
	st.end(sp)

	if r.spans != nil {
		r.spans.close(st.parent, st.t)
	}
	return loss, st.sum, nil
}

// forward is net.Forward; on the traced rank 0 it runs Sequential's own
// loop so each top-level layer gets a child span.
func (r *rank) forward(x *tensor.Tensor, stepNo int, parent int32) *tensor.Tensor {
	if r.fwdIDs == nil {
		return r.net.Forward(x, true)
	}
	for i, l := range r.net.Layers {
		t0 := r.spans.now()
		x = l.Forward(x, true)
		r.spans.add(r.fwdIDs[i], stepNo, parent, t0, r.spans.now())
	}
	return x
}

func (r *rank) backward(grad *tensor.Tensor, stepNo int, parent int32) {
	if r.bwdIDs == nil {
		r.net.Backward(grad)
		return
	}
	for i := len(r.net.Layers) - 1; i >= 0; i-- {
		t0 := r.spans.now()
		grad = r.net.Layers[i].Backward(grad)
		r.spans.add(r.bwdIDs[i], stepNo, parent, t0, r.spans.now())
	}
}

// stepEnv is one set-up of a step workload: the fabric and the ranks on it.
type stepEnv struct {
	w     workload
	o     runOpts
	ranks []*rank
	fab   *countingFabric
	chaos *comm.ChaosFabric // nil on a clean fabric
	train *data.Dataset
	base  time.Time

	abortCtx context.Context
	abort    context.CancelFunc
	bar      *barrier

	// Timed phase, written by rank 0.
	budget    time.Duration
	minCycles int
	stopAt    atomic.Int64
	tStart    time.Time
	tEnd      time.Time
	cycles    int
}

// eachRank runs fn once per rank, one goroutine each, and waits for all. A
// failing rank cancels the shared context so peers blocked in a collective
// or at the barrier return instead of hanging; the first failure that is
// not that induced cancellation is returned.
func (e *stepEnv) eachRank(fn func(id int) error) error {
	errs := make([]error, e.w.World)
	var wg sync.WaitGroup
	for id := 0; id < e.w.World; id++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			if errs[id] = fn(id); errs[id] != nil {
				e.abort()
			}
		}(id)
	}
	wg.Wait()
	var induced error
	for id, err := range errs {
		switch {
		case err == nil:
		case errors.Is(err, context.Canceled):
			induced = fmt.Errorf("rank %d: %w", id, err)
		default:
			return fmt.Errorf("rank %d: %w", id, err)
		}
	}
	return induced
}

func (e *stepEnv) close() {
	e.abort()
	for _, r := range e.ranks {
		if r != nil && r.prec != nil {
			r.prec.Close()
		}
	}
}

// setupStep is what setup_s times: data generation, model build,
// preconditioner construction and the warm-up steps (the first factor and
// eigendecomposition update, and every reuse workspace settling).
func setupStep(w workload, o runOpts) (*stepEnv, error) {
	e := &stepEnv{w: w, o: o, base: time.Now(), ranks: make([]*rank, w.World)}
	e.abortCtx, e.abort = context.WithCancel(context.Background())
	e.bar = newBarrier(e.abortCtx, w.World)
	e.fab, e.chaos = newCountingFabric(w.World, w.Link, o.seed, o.trace)
	e.train, _ = data.GenerateSynthetic(data.SyntheticConfig{
		Train: e.poolBatches() * w.Batch * w.World, Test: 1, Classes: 10,
		Channels: 3, Size: w.Input, Noise: 2.4, Shift: w.Input / 4, Seed: o.seed,
	})
	err := e.eachRank(func(id int) error {
		r := e.newRank(id, true)
		e.ranks[id] = r
		if o.trace {
			r.attachTrace(e.base)
		}
		for i := 0; i < warmupSteps; i++ {
			if _, _, err := r.step(-1 - i); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		e.close()
		return nil, err
	}
	return e, nil
}

func (e *stepEnv) poolBatches() int {
	if e.o.smoke {
		return 3
	}
	return poolBatches
}

// newRank builds rank id's replica. Every rank draws the same initial
// weights (seed) and its own shard of the batch pool.
func (e *stepEnv) newRank(id int, withKFAC bool) *rank {
	w := e.w
	net := models.BuildCIFARResNet(w.Blocks, w.Width, 3, 10, rand.New(rand.NewSource(e.o.seed)))
	nn.SetBufferReuse(net, true)
	r := &rank{id: id, world: w.World, net: net}
	r.comm = comm.NewCommunicator(e.fab.Endpoint(id)).WithContext(e.abortCtx)
	if w.F32Pipelined {
		nn.SetComputeF32(net, true)
	}
	if withKFAC {
		opts := kfac.Options{FactorUpdateFreq: w.FactorFreq, InvUpdateFreq: w.InvFreq, Damping: 1e-3, DistMode: w.Dist}
		if w.F32Pipelined {
			opts.Precision, opts.Engine = kfac.F32, kfac.EnginePipelined
		}
		r.prec = kfac.NewFromOptions(net, r.comm, opts)
	}
	r.params = net.Params()
	r.opt = optim.SGD(r.params, optim.WithLR(stepLR), optim.WithMomentum(0.9))
	shard := data.ShardSampler{N: e.train.Len(), Rank: id, World: w.World, Seed: e.o.seed}
	r.pool = data.Batches(e.train, shard.EpochIndices(0), w.Batch)
	return r
}

// attachTrace gives the rank its preallocated span buffer. Every rank
// records the stage spans; rank 0 also the per-layer child spans.
func (r *rank) attachTrace(base time.Time) {
	capacity := 1 << 14
	if r.id == 0 {
		capacity = 1 << 18
	}
	r.spans = newSpanBuf(r.id, base, capacity)
	r.ids = stageIDs{
		step: r.spans.id(spanStep), zeroGrad: r.spans.id(spanZeroGrad),
		forward: r.spans.id(spanForward), loss: r.spans.id(spanLoss),
		backward: r.spans.id(spanBackward), exchange: r.spans.id(spanExchange),
		kfac: r.spans.id(spanKFAC), optim: r.spans.id(spanOptim),
	}
	if r.id == 0 {
		for _, l := range r.net.Layers {
			r.fwdIDs = append(r.fwdIDs, r.spans.id("nn.forward."+l.Name()))
			r.bwdIDs = append(r.bwdIDs, r.spans.id("nn.backward."+l.Name()))
		}
	}
}

// timedPhase runs whole inverse-update cycles on rank id until the time box
// is used up (and at least minCycles). Rank 0 owns the clock: it decides to
// stop before it arrives at the cycle barrier, so every rank reads the same
// decision after the barrier.
func (e *stepEnv) timedPhase(id int) error {
	r := e.ranks[id]
	for cycle := 0; ; cycle++ {
		if id == 0 && cycle >= e.minCycles && time.Since(e.tStart) >= e.budget {
			e.stopAt.Store(int64(cycle))
		}
		if err := e.bar.wait(); err != nil {
			return err
		}
		if id == 0 {
			e.tEnd = time.Now()
			if cycle == 0 {
				e.tStart = e.tEnd
			}
			e.cycles = cycle
		}
		if e.stopAt.Load() == int64(cycle) {
			return nil
		}
		for i := 0; i < e.w.InvFreq; i++ {
			stepNo := cycle*e.w.InvFreq + i
			t0 := time.Now()
			loss, stageSum, err := r.step(stepNo)
			d := time.Since(t0)
			if err != nil {
				return fmt.Errorf("step %d: %w", stepNo, err)
			}
			if math.IsNaN(loss) || math.IsInf(loss, 0) {
				r.failed++
			}
			if id == 0 {
				r.stepMS = append(r.stepMS, ms(int64(d)))
				r.losses = append(r.losses, loss)
				r.stageSumMS = append(r.stageSumMS, ms(stageSum))
			}
		}
		if cycle == 0 {
			r.fixedSum = paramChecksum(r.net)
		}
	}
}

// runStep measures one step workload: set-up (several times when untraced,
// the median is setup_s), the timed phase, the output checks and — traced —
// the per-layer windows that follow.
func runStep(w workload, o runOpts) (*record, error) {
	rec := &record{Workload: w.Name, Seed: o.seed, Seconds: o.seconds, Traced: o.trace, Smoke: o.smoke,
		Ranks: w.World, TailPct: tailPct}
	setups := 5
	if o.trace || o.smoke {
		setups = 1
	}
	var e *stepEnv
	var setupS []float64
	for i := 0; i < setups; i++ {
		if e != nil {
			e.close()
			e = nil
			runtime.GC()
		}
		t0 := time.Now()
		var err error
		if e, err = setupStep(w, o); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setupS = append(setupS, time.Since(t0).Seconds())
	}
	defer e.close()
	r0 := e.ranks[0]
	rec.Params, rec.KFACLayers = nn.ParamCount(r0.net), r0.prec.NumLayers()

	minSteps := minTimedSteps
	if o.smoke {
		minSteps = 2 * w.InvFreq
	}
	e.minCycles = (minSteps + w.InvFreq - 1) / w.InvFreq
	e.budget = time.Duration(o.seconds * float64(time.Second))
	e.stopAt.Store(-1)
	// Preallocated, like the span buffers: nothing grows in the timed phase.
	r0.stepMS, r0.losses, r0.stageSumMS = make([]float64, 0, 1<<14), make([]float64, 0, 1<<14), make([]float64, 0, 1<<14)

	statsBefore := r0.prec.Stats().Snapshot()
	wireBefore, wire0Before := e.fab.total(), e.fab.ends[0].counts()
	var linkBefore comm.DeliveryMetrics
	if e.chaos != nil {
		linkBefore = e.chaos.TotalMetrics()
	}
	cpuBefore := cpuNS()
	if err := e.eachRank(e.timedPhase); err != nil {
		return nil, fmt.Errorf("timed phase: %w", err)
	}
	cpu := cpuNS() - cpuBefore
	stats := r0.prec.Stats().Snapshot()
	wire, wire0 := e.fab.total().sub(wireBefore), e.fab.ends[0].counts().sub(wire0Before)
	wall := e.tEnd.Sub(e.tStart)
	stepMS := r0.stepMS
	steps := len(stepMS)
	rec.Steps = steps
	rec.Attempted = steps * w.World
	for _, r := range e.ranks {
		r.endSum = paramChecksum(r.net)
		rec.Failed += r.failed
	}
	rec.ParamChecksum = fmt.Sprintf("%016x", r0.fixedSum)

	// Output checks.
	rec.addCheck("loss_finite", rec.Failed == 0, "%d of %d steps had a non-finite loss", rec.Failed, rec.Attempted)
	pool := e.poolBatches()
	first, last := mean(r0.losses[:pool]), mean(r0.losses[steps-pool:])
	rec.addCheck("loss_decreased", last < first || o.smoke, "mean loss of the last pool cycle %.4f vs the first %.4f", last, first)
	if w.World > 1 {
		agree := true
		for _, r := range e.ranks {
			agree = agree && r.endSum == r0.endSum && r.fixedSum == r0.fixedSum
		}
		rec.addCheck("ranks_agree", agree, "parameter checksum identical on all %d ranks", w.World)
	} else {
		total := e.fab.total()
		rec.addCheck("no_wire_traffic", total.sends == 0, "%d transport sends on a world-1 workload", total.sends)
	}

	quiet := quietCycles(stepMS, w.InvFreq)
	p50 := median(quiet)
	rec.StepsKept, rec.StepP50MS, rec.StepMS = len(quiet), p50, stepMS

	if !o.trace {
		m := newMetricSet(endToEnd)
		m.set("setup_s", median(setupS))
		m.set("samples_per_s", float64(len(quiet)*w.Batch*w.World)/(sum(quiet)/1e3))
		m.set("step_ms_p50", p50)
		m.set("step_ms_tail", percentile(quiet, tailPct))
		rss, err := peakRSSMB()
		if err != nil {
			return nil, err
		}
		m.set("peak_rss_mb", rss)
		var peak int64
		for _, r := range e.ranks {
			peak = max(peak, r.prec.Stats().Snapshot().PeakFactorBytes)
		}
		m.set("peak_factor_mb_max_rank", float64(peak)/1e6)
		rec.Metrics = m
		rec.finish()
		return rec, nil
	}

	// Stage-sum check: the stage spans must account for the step wall the
	// outer clock pair saw.
	gaps := make([]float64, steps)
	for i := range gaps {
		gaps[i] = math.Abs(r0.stageSumMS[i]-stepMS[i]) / stepMS[i]
	}
	rec.addCheck("stage_sum", median(gaps) < 0.05, "median |Σ stage spans − step wall| is %.3f%% of the step wall", 100*median(gaps))
	if r0.spans.dropped > 0 {
		rec.addCheck("trace_complete", false, "span buffer full: %d spans dropped", r0.spans.dropped)
	}

	m := newMetricSet(perLayer)
	n := float64(steps)
	spanMS := func(name string) float64 { return ms(r0.spans.totalNS(name)) / n }
	m.set("nn.forward_ms_per_step", spanMS(spanForward))
	m.set("nn.loss_ms_per_step", spanMS(spanLoss))
	m.set("nn.backward_ms_per_step", spanMS(spanBackward))
	m.set("optim.step_ms_per_step", spanMS(spanOptim))
	m.set("optim.zero_grad_ms_per_step", spanMS(spanZeroGrad))
	m.set("comm.grad_exchange_ms_per_step", spanMS(spanExchange))
	m.set("kfac.step_ms_per_step", spanMS(spanKFAC))

	facUpd := float64(stats.FactorUpdates - statsBefore.FactorUpdates)
	eigUpd := float64(stats.EigUpdates - statsBefore.EigUpdates)
	pipeUpd := float64(stats.PipelineUpdates - statsBefore.PipelineUpdates)
	dms := func(after, before time.Duration) float64 { return ms(int64(after - before)) }
	facComp, facComm := dms(stats.FactorCompute, statsBefore.FactorCompute), dms(stats.FactorComm, statsBefore.FactorComm)
	eigComp, eigComm := dms(stats.EigCompute, statsBefore.EigCompute), dms(stats.EigComm, statsBefore.EigComm)
	precond := dms(stats.Precondition, statsBefore.Precondition)
	m.set("kfac.factor_compute_ms_per_update", per(facComp, facUpd))
	m.set("kfac.factor_comm_ms_per_update", per(facComm, facUpd))
	m.set("kfac.eig_compute_ms_per_update", per(eigComp, eigUpd))
	m.set("kfac.eig_comm_ms_per_update", per(eigComm, eigUpd))
	m.set("kfac.precondition_ms_per_step", precond/n)
	m.set("kfac.factor_updates", per(facUpd, float64(e.cycles)))
	m.set("kfac.eig_updates", per(eigUpd, float64(e.cycles)))
	m.set("linalg.eig_tridiag_ms_per_update", per(dms(stats.EigTridiag, statsBefore.EigTridiag), eigUpd))
	m.set("linalg.eig_backaccum_ms_per_update", per(dms(stats.EigBackAccum, statsBefore.EigBackAccum), eigUpd))
	m.set("linalg.eig_ql_ms_per_update", per(dms(stats.EigQL, statsBefore.EigQL), eigUpd))
	if w.F32Pipelined {
		// Under the pipelined engine the stage columns above are summed task
		// time, not wall; self time of the step is not derivable from them.
		overlap := dms(stats.PipelineWork-stats.PipelineWall, statsBefore.PipelineWork-statsBefore.PipelineWall)
		m.set("kfac.pipeline_overlap_ms_per_update", per(max(overlap, 0), pipeUpd))
		m.set("kfac.pipeline_idle_ms_per_update", per(dms(stats.PipelineIdle, statsBefore.PipelineIdle), pipeUpd))
	} else {
		m.set("kfac.other_ms_per_step", spanMS(spanKFAC)-(facComp+facComm+eigComp+eigComm+precond)/n)
	}

	m.set("comm.wire_mb_per_step", float64(wire.bytes)/1e6/n)
	m.set("comm.send_calls_per_step", float64(wire.sends)/n)
	m.set("comm.bytes_per_send", per(float64(wire.bytes), float64(wire.sends)))
	m.set("comm.recv_wait_ms_per_step", ms(wire0.recvWaitNS)/n)
	if e.chaos != nil {
		link := e.chaos.TotalMetrics()
		m.set("comm.injected_delay_ms_per_step", dms(link.InjectedDelay, linkBefore.InjectedDelay)/n)
		m.set("comm.dropped", float64(link.Dropped-linkBefore.Dropped))
		m.set("comm.retried", float64(link.Retried-linkBefore.Retried))
		rec.addCheck("link_lossless", link.Dropped == 0 && link.Retried == 0, "%d dropped, %d retried sends", link.Dropped, link.Retried)
	}
	m.set("comm.exposed_share", (ms(r0.spans.totalNS(spanExchange))+facComm+eigComm)/sum(stepMS))

	m.set("sched.cpu_ms_per_step", ms(cpu)/n)
	m.set("sched.cpu_util", float64(cpu)/(float64(wall)*float64(runtime.GOMAXPROCS(0))))

	allocs, bytes, err := e.staleAllocWindow()
	if err != nil {
		return nil, fmt.Errorf("stale-step window: %w", err)
	}
	m.set("kfac.step_allocs_per_step", allocs)
	m.set("kfac.step_bytes_per_step", bytes)

	sgdP50, err := e.sgdWindow()
	if err != nil {
		return nil, fmt.Errorf("SGD window: %w", err)
	}
	m.set("optim.sgd_step_ms_p50", sgdP50)
	m.set("kfac.overhead_x", per(p50, sgdP50))

	replayKernels(m, w, r0.prec.FactorRefs(), o)

	rec.Metrics = m
	for _, r := range e.ranks {
		rec.Spans = append(rec.Spans, r.spans.summarize()...)
		rec.spanBufs = append(rec.spanBufs, r.spans)
	}
	rec.finish()
	return rec, nil
}

// staleAllocWindow freezes the factor and eigendecomposition updates and
// counts heap allocations over stale-only steps — the common iteration,
// expected to allocate nothing on world 1. The counts are process-wide,
// divided by steps × ranks.
func (e *stepEnv) staleAllocWindow() (allocs, bytes float64, err error) {
	const window = 10
	var m0, m1 runtime.MemStats
	err = e.eachRank(func(id int) error {
		r := e.ranks[id]
		r.prec.SetFactorUpdateFreq(1 << 30)
		r.prec.SetInvUpdateFreq(1 << 30)
		for i := 0; i < 1+window; i++ {
			if i == 1 { // one step to re-settle after the frequency change
				if err := e.bar.wait(); err != nil {
					return err
				}
				if id == 0 {
					runtime.ReadMemStats(&m0)
				}
				if err := e.bar.wait(); err != nil {
					return err
				}
			}
			// Negative step numbers, like the warm-up: in the trace file, not
			// in the timed phase's summaries.
			if _, _, err := r.step(-100 - i); err != nil {
				return err
			}
		}
		if err := e.bar.wait(); err != nil {
			return err
		}
		if id == 0 {
			runtime.ReadMemStats(&m1)
		}
		return nil
	})
	ops := float64(window * e.w.World)
	return float64(m1.Mallocs-m0.Mallocs) / ops, float64(m1.TotalAlloc-m0.TotalAlloc) / ops, err
}

// sgdWindow is the plain baseline: a fresh identical net per rank, the same
// loop without a preconditioner, 20 timed steps after the warm-up. It
// returns rank 0's median step in milliseconds.
func (e *stepEnv) sgdWindow() (float64, error) {
	const window = 20
	var stepMS []float64
	err := e.eachRank(func(id int) error {
		r := e.newRank(id, false)
		for i := 0; i < warmupSteps+window; i++ {
			t0 := time.Now()
			if _, _, err := r.step(0); err != nil {
				return err
			}
			if id == 0 && i >= warmupSteps {
				stepMS = append(stepMS, ms(int64(time.Since(t0))))
			}
		}
		return nil
	})
	return median(stepMS), err
}
