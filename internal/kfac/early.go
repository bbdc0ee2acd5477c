package kfac

import (
	"runtime"
	"sync"
	"time"

	"repro/internal/sched"
	"repro/internal/tensor"
)

// The early start of the precondition stage. A layer's inputs to Equations
// 13–15 are final as soon as its own Backward has accumulated its
// parameter gradients: the gradient, the kept eigenbases and γ. On a step
// that keeps its eigenbases, the backward reaches the last layers first, and
// they hold most of the rotation flops. So each K-FAC layer's gradient hook
// (nn.KFACCapturable.SetGradHook) hands the layer to a runner on the shared
// pool, which preconditions it beside the rest of the backward; Step then
// runs only the layers the runner has not started, as its grouped stages,
// and joins the runner. The same stages implementation runs at both start
// points, over different subsets of the layers (stages.run), so a step's
// bits do not depend on which layers started early.
//
// A layer starts early only when all of these hold:
//   - the world size is 1: at world > 1 the gradient exchange follows the
//     backward and changes the gradient, so nothing may start before it,
//     and no hook is installed;
//   - the coming Step does not decompose, so the eigenbases the runner
//     reads stay as they are until Step has joined it;
//   - both of the layer's eigenbases exist.
//
// Step reads the parameter gradients as they stand when it is called, as it
// always has, so a gradient a caller changes between Backward and Step —
// clipping, scaling, a test's injected NaN — must be seen. The hook
// therefore copies the layer's combined gradient into its pcBuf, and the
// runner reads only that snapshot, never the live accumulators; Step
// adopts an early result only if the live combined gradient still equals
// the snapshot bit for bit and the result was formed at the current γ, and
// preconditions the layer itself otherwise. A Backward that runs again
// before Step (gradient accumulation) calls the hook again, which takes the
// layer back, or waits for the batch it is in, and snapshots it afresh.
//
// The runner is one pool task at a time that claims every queued layer as
// a batch, runs it, and repeats until none is queued. It never blocks on
// other pool work (see sched.Shared on ForEach inside a pool task), it
// allocates nothing in steady state, and it holds no goroutine of its own:
// once the queue is empty the task returns. Step and the hook wait only for
// layers the runner has claimed, that is work a core has started.

// Early states of a layer, guarded by earlyRun.mu.
const (
	earlyIdle    uint8 = iota // nothing handed over since the last Step
	earlyQueued               // snapshot taken, waiting for the runner
	earlyRunning              // in the runner's current batch
	earlyDone                 // result kept in wB, its dot in layerState.dot
)

// earlyRun is a preconditioner's early-start state. Its slices are indexed
// by layer and allocated once, by replan; st, the runner's stages, exists
// only at world 1, the one world that installs hooks.
type earlyRun struct {
	mu     sync.Mutex
	wake   sync.Cond // signalled when a batch finishes; L is &mu
	state  []uint8
	γ      []float64 // the damping each layer's snapshot was taken under
	active bool      // a runner task is submitted and has not returned
	busy   int       // layers in state earlyRunning

	st    precondStages    // the runner's stages (keep set)
	batch []*tensor.Tensor // the runner's grads: a claimed layer's snapshot, else nil
	task  func()           // p.runEarly, bound once
	// started is Step's per-layer record of what the runner had claimed
	// when Step took the rest back; adopt is Step's pass over them.
	started []bool
	adopt   earlyAdopt
	// adopted counts the early results Step has adopted; the tests read it.
	adopted int
}

// earlyAdopt is Step's pooled pass over the layers the runner finished, one
// layer per chunk: each layer's live combined gradient is formed and its
// early result adopted (layerKernels.adopt) if it was formed at γ, else the
// live gradient is left in grads for Step to precondition. Every chunk
// touches only its own layer's buffers and grads entry.
type earlyAdopt struct {
	p      *Preconditioner
	layers []int // the started layers
	grads  []*tensor.Tensor
	γ      float64
}

// RunRange implements sched.Ranger over layers [lo, hi) of the list.
func (a *earlyAdopt) RunRange(lo, hi int) {
	p := a.p
	for _, i := range a.layers[lo:hi] {
		s := p.states[i]
		live := p.combinedGrad(s)
		a.grads[i] = nil
		if p.early.γ[i] != a.γ || !s.k.adopt(live) {
			a.grads[i] = live
		}
	}
}

// init sizes the state for n layers and binds the runner's stages, nil
// where nothing may start early.
func (e *earlyRun) init(p *Preconditioner, n int, st precondStages) {
	e.wake.L = &e.mu
	e.state, e.γ = make([]uint8, n), make([]float64, n)
	e.batch, e.started = make([]*tensor.Tensor, n), make([]bool, n)
	e.adopt = earlyAdopt{p: p, layers: make([]int, 0, n)}
	e.st, e.task = st, p.runEarly
}

// hookGrads installs every layer's gradient hook at world 1; at world > 1
// the layers get none.
func (p *Preconditioner) hookGrads() {
	if p.early.st == nil {
		return
	}
	for i, s := range p.states {
		s.layer.SetGradHook(func() { p.gradLanded(i) })
	}
}

// gradLanded is layer i's gradient hook, called on the goroutine running
// its Backward once its parameter gradients are final for the pass.
func (p *Preconditioner) gradLanded(i int) {
	s, e := p.states[i], &p.early
	if p.step%p.opts.InvUpdateFreq == 0 || s.eigA == nil || s.eigG == nil {
		return
	}
	e.mu.Lock()
	for e.state[i] == earlyRunning {
		e.wake.Wait()
	}
	// An earlier Backward's snapshot, queued or finished, is dropped.
	e.state[i] = earlyIdle
	e.mu.Unlock()

	da, dg := FactorDims(s.layer)
	s.layer.CombinedGradInto(tensor.Ensure(&s.pcBuf, dg, da))

	e.mu.Lock()
	e.state[i], e.γ[i] = earlyQueued, p.opts.Damping
	submit := !e.active
	e.active = true
	e.mu.Unlock()
	if submit {
		sched.Shared().Submit(e.task)
	}
}

// runEarly is the runner: it claims the queued layers as one batch, runs
// the stages over their snapshots, and repeats until none is queued. The
// layers of one batch may have been snapshotted under different γ only if
// SetDamping ran between their Backwards; each then runs at the batch's
// first γ, and Step redoes whichever it does not match.
func (p *Preconditioner) runEarly() {
	e := &p.early
	for {
		e.mu.Lock()
		n, γ := 0, 0.0
		for i, st := range e.state {
			e.batch[i] = nil
			if st != earlyQueued {
				continue
			}
			if n == 0 {
				γ = e.γ[i]
			}
			e.state[i], e.γ[i] = earlyRunning, γ
			e.batch[i] = p.states[i].pcBuf
			n++
		}
		if n == 0 {
			e.active = false
			e.mu.Unlock()
			return
		}
		e.busy += n
		e.mu.Unlock()

		start := time.Now()
		e.st.run(e.batch, γ)
		p.stats.add(&p.stats.PreconditionEarly, time.Since(start))

		e.mu.Lock()
		for i, g := range e.batch {
			if g != nil {
				e.state[i] = earlyDone
			}
		}
		e.busy -= n
		e.wake.Broadcast()
		e.mu.Unlock()
	}
}

// takeBack returns every queued layer to Step and records in e.started the
// layers the runner has claimed, running or done.
func (e *earlyRun) takeBack() {
	e.mu.Lock()
	for i, st := range e.state {
		if st == earlyQueued {
			e.state[i] = earlyIdle
		}
		e.started[i] = st == earlyRunning || st == earlyDone
	}
	e.mu.Unlock()
}

// join waits for the runner's batch in flight, if any, and returns every
// layer to idle: the next Step starts from nothing handed over.
func (e *earlyRun) join() {
	e.mu.Lock()
	for e.busy > 0 {
		e.wake.Wait()
	}
	clear(e.state)
	e.mu.Unlock()
}

// cancel drops whatever was handed over: queued layers are taken back and
// a batch in flight is waited for and discarded. Step calls it before a
// decomposition rewrites the eigenbases, Close before it removes the hooks.
func (e *earlyRun) cancel() {
	e.takeBack()
	e.join()
}

// preconditionLocal preconditions every layer this rank computes into its
// pcBuf and dot, adopting what the runner finished: it takes back the
// layers the runner has not started, runs them and the rest of Step's
// layers as the grouped stages, joins the runner, and adopts each early
// result whose snapshot and γ still hold, preconditioning the others in a
// second grouped run. When nothing started early — always at world > 1 —
// grads holds every layer's combined gradient on return.
func (p *Preconditioner) preconditionLocal(grads []*tensor.Tensor) {
	e := &p.early
	e.takeBack()
	a := &e.adopt
	a.layers = a.layers[:0]
	for i, s := range p.states {
		grads[i] = nil
		if e.started[i] {
			a.layers = append(a.layers, i)
		} else {
			grads[i] = p.combinedGrad(s)
		}
	}
	p.pcStages.run(grads, p.opts.Damping)
	e.join()
	if len(a.layers) == 0 {
		return
	}

	// The runner is done and every early layer's buffers are Step's again.
	clear(grads)
	a.grads, a.γ = grads, p.opts.Damping
	if runtime.GOMAXPROCS(0) > 1 {
		sched.Shared().ForEach(len(a.layers), len(a.layers), a)
	} else {
		a.RunRange(0, len(a.layers))
	}
	a.grads = nil
	redo := false
	for _, i := range a.layers {
		if grads[i] != nil {
			redo = true
		} else {
			e.adopted++
		}
	}
	if redo {
		p.pcStages.run(grads, p.opts.Damping)
	}
}
