package kfac

import (
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/comm"
	"repro/internal/linalg"
	"repro/internal/sched"
)

// Engine selects the schedule of the K-FAC update stage graph (update.go).
// There is one implementation of every stage; the engines differ only in
// when a stage may start.
type Engine int

const (
	// EngineSync runs the stage graph with a barrier after each stage and
	// covariance computation inline on the Step goroutine: compute all
	// factors → fused allreduce → decompose owned factors → exchange
	// decompositions. Nothing overlaps, so the four stage windows tile the
	// update. The default.
	EngineSync Engine = iota
	// EnginePipelined runs the same graph with per-layer dependencies and no
	// barriers: covariance tasks run on an internal sched.Pool, the fused
	// allreduce of layer i overlaps the covariance of layer i+1, a factor
	// is decomposed as soon as its layer is averaged, and each layer's
	// decomposition exchange is issued as soon as its decompositions land.
	// Both engines produce bit-identical preconditioned gradients (see
	// TestPipelinedMatchesSync*): chunk boundaries, collective payloads and
	// every floating-point reduction order belong to the stages, not to the
	// schedule.
	EnginePipelined
)

// String names the engine for logs and experiment tables.
func (e Engine) String() string {
	if e == EnginePipelined {
		return "pipelined"
	}
	return "sync"
}

// executorWidth is how many covariance tasks of an update can run at once
// under engine e: one under EngineSync, which runs them inline on the Step
// goroutine, and the worker count of the pool EnginePipelined runs them on.
// NewFromOptions allocates one covariance slot per lane.
func executorWidth(e Engine) int {
	if e == EnginePipelined {
		return runtime.GOMAXPROCS(0)
	}
	return 1
}

// ensurePool lazily creates the worker pool the overlapped schedule runs
// leaf compute on, one worker per covariance slot. Step is invoked from a
// single goroutine per rank, so no locking is needed.
func (p *Preconditioner) ensurePool() *sched.Pool {
	if p.pool == nil {
		p.pool = sched.NewPool(cap(p.covSlots))
	}
	return p.pool
}

// Close removes the layers' gradient hooks, after dropping and waiting for
// any precondition they started (early.go), and releases the pipelined
// engine's worker pool. It is safe to call on any preconditioner, more than
// once, and after Close the preconditioner may still Step — the pool is
// recreated on demand, and every layer is preconditioned inside Step.
func (p *Preconditioner) Close() {
	p.early.cancel()
	for _, s := range p.states {
		s.layer.SetGradHook(nil)
	}
	if p.pool != nil {
		p.pool.Close()
		p.pool = nil
	}
}

// stageWindow times one stage of one update as the wall-clock span from
// the first unit of work started to the last one finished. A span cannot
// double-count intervals where several units were in flight at once, so
// under the barrier schedule the four windows sum to the update's wall
// time, and under the overlapped schedule their excess over the wall time
// is exactly the time the stages overlapped (StageStats.Overlap).
type stageWindow struct {
	mu      sync.Mutex
	started bool
	start   time.Time
	last    time.Time
}

// begin records the stage start at the first call; later calls are no-ops.
func (w *stageWindow) begin() {
	w.mu.Lock()
	if !w.started {
		w.started = true
		w.start = time.Now()
		w.last = w.start
	}
	w.mu.Unlock()
}

// end extends the stage end to now.
func (w *stageWindow) end() {
	w.mu.Lock()
	if t := time.Now(); t.After(w.last) {
		w.last = t
	}
	w.mu.Unlock()
}

// duration returns the measured span (zero if the stage never began).
func (w *stageWindow) duration() time.Duration {
	w.mu.Lock()
	defer w.mu.Unlock()
	if !w.started {
		return 0
	}
	return w.last.Sub(w.start)
}

// stageEvent fires (ch closes) once left completions have been counted.
type stageEvent struct {
	ch   chan struct{}
	left atomic.Int32
}

// stageEvents holds one stage's completion event per layer: the edges of
// the stage graph. Under the overlapped schedule every layer has its own
// event, so layer i's next stage starts when layer i clears this one.
// Under the barrier schedule all layers share a single event that fires
// when the last layer clears the stage — which is all "a barrier after the
// stage" means. A nil stageEvents is a stage that does not run this update:
// waiting on it succeeds at once.
type stageEvents []*stageEvent

// newStageEvents builds the events of a stage over n layers, each layer
// counting perLayer completions.
func newStageEvents(n, perLayer int, barrier bool) stageEvents {
	ev := make(stageEvents, n)
	for i := range ev {
		if barrier && i > 0 {
			ev[i] = ev[0]
		} else {
			ev[i] = &stageEvent{ch: make(chan struct{})}
		}
		ev[i].left.Add(int32(perLayer))
	}
	return ev
}

// done counts one completion toward layer i's event.
func (ev stageEvents) done(i int) {
	if ev != nil && ev[i].left.Add(-1) == 0 {
		close(ev[i].ch)
	}
}

// updateRun carries the transient state of one factor and/or decomposition
// update: the stage graph
//
//	cov(i) → fused factor allreduce → decompose(A_i), decompose(G_i) on
//	their owners → per-layer decomposition exchange → consume
//
// with its events, goroutines and stage windows.
type updateRun struct {
	p           *Preconditioner
	doFactors   bool
	doDecomp    bool
	distributed bool
	mine        int
	// pool runs covariance tasks under the overlapped schedule; nil under
	// the barrier schedule, where they run inline.
	pool *sched.Pool

	covDone    stageEvents // layer's local factors folded into the running averages
	averaged   stageEvents // layer's running averages equal on every rank
	decomposed stageEvents // layer's locally owned decompositions finished

	// failed is closed on the first error so stage waiters unblock promptly
	// instead of deadlocking on events that will never fire.
	failed   chan struct{}
	failOnce sync.Once

	// grp holds every goroutine that may block (gates, decomposition jobs,
	// the collective issuer, completion waiters); tasks tracks pool tasks,
	// so a failing run drains them before Step returns — an abandoned
	// covariance task must not mutate layer state behind the caller.
	grp   sched.Group
	tasks sync.WaitGroup

	facComp, facComm, eigComp, eigComm stageWindow
	// idleNS is the time the collective issuer spent blocked on upstream
	// per-layer events — the "pipeline stalled waiting for compute" measure.
	idleNS atomic.Int64
	// fused counts the tensors handed to chunk waiters, in Fuser.Add order
	// (A₀, G₀, A₁, …): tensor k belongs to layer k/2.
	fused int
}

// spawn runs fn on its own goroutine; an error fails the run.
func (r *updateRun) spawn(fn func() error) {
	r.grp.Go(func() error {
		err := fn()
		if err != nil {
			r.failOnce.Do(func() { close(r.failed) })
		}
		return err
	})
}

// wait blocks until layer i's event of stage ev fires or the run fails; it
// reports whether the caller should proceed.
func (r *updateRun) wait(ev stageEvents, i int) bool {
	if ev == nil {
		return true
	}
	select {
	case <-ev[i].ch:
		return true
	case <-r.failed:
		return false
	}
}

// waitIdle is wait with the blocked time charged to the idle counter. Only
// the collective issuer uses it; gates block by design.
func (r *updateRun) waitIdle(ev stageEvents, i int) bool {
	start := time.Now()
	ok := r.wait(ev, i)
	r.idleNS.Add(int64(time.Since(start)))
	return ok
}

// update runs the factor and/or decomposition update (Algorithm 1, steps 1
// and 2) as one stage graph and folds the stage windows into the stats.
// Options.Engine picks the schedule here — the executor of covariance
// tasks and whether stage events are per-layer or barriers — and no stage
// body below reads it.
func (p *Preconditioner) update(doFactors, doDecomp bool) error {
	overlap := p.opts.Engine == EnginePipelined
	r := &updateRun{
		p:           p,
		doFactors:   doFactors,
		doDecomp:    doDecomp,
		distributed: p.comm != nil && p.comm.Size() > 1,
		mine:        p.rank(),
		failed:      make(chan struct{}),
	}
	if overlap {
		r.pool = p.ensurePool()
	}
	wallStart := time.Now()
	err := r.run(!overlap)

	facComp, facComm := r.facComp.duration(), r.facComm.duration()
	eigComp, eigComm := r.eigComp.duration(), r.eigComm.duration()
	st := &p.stats
	st.mu.Lock()
	st.FactorCompute += facComp
	st.FactorComm += facComm
	st.EigCompute += eigComp
	st.EigComm += eigComm
	if doFactors {
		st.FactorUpdates++
	}
	if doDecomp {
		st.EigUpdates++
	}
	if overlap {
		st.PipelineWall += time.Since(wallStart)
		st.PipelineWork += facComp + facComm + eigComp + eigComm
		st.PipelineIdle += time.Duration(r.idleNS.Load())
		st.PipelineUpdates++
	}
	st.mu.Unlock()
	if err == nil {
		st.noteFactorMem(p.factorMemBytes())
	}
	return err
}

// run launches every stage of the graph and waits for it to drain.
func (r *updateRun) run(barrier bool) error {
	p := r.p
	n := len(p.states)
	if r.doFactors {
		r.covDone = newStageEvents(n, 1, barrier)
		r.averaged = r.covDone
		if r.distributed {
			r.averaged = newStageEvents(n, 2, barrier)
		}
		for i, s := range p.states {
			r.exec(func() {
				slot := <-p.covSlots
				r.facComp.begin()
				s.k.computeCov(slot)
				r.facComp.end()
				p.covSlots <- slot
				r.covDone.done(i)
			})
		}
	}
	if r.doDecomp {
		if r.distributed {
			r.decomposed = newStageEvents(n, 2, barrier)
		}
		r.scheduleDecompositions(barrier)
	}
	if r.distributed {
		r.spawn(r.issue)
	}
	err := r.grp.Wait()
	r.tasks.Wait()
	return err
}

// exec runs one leaf compute task: on the pool under the overlapped
// schedule, inline under the barrier schedule.
func (r *updateRun) exec(fn func()) {
	if r.pool == nil {
		fn()
		return
	}
	r.tasks.Add(1)
	r.pool.Submit(func() {
		defer r.tasks.Done()
		fn()
	})
}

// scheduleDecompositions is the eig scheduler. A gate waits for its layers'
// factors to be averaged and requests one slot of a GOMAXPROCS-slot
// eigSlots per locally owned factor, largest first, spawning a job that
// decomposes the factor once its slot is granted.
// Under the overlapped schedule every layer has its own gate, so a factor
// is ready as soon as its layer is averaged; where all layers share one
// event — the barrier schedule, or an update that refreshes no factors —
// one gate requests them all, so the update is granted in (dimension desc,
// FactorRefs order). A job holds one slot whatever its size: a factor of at
// least EigTeamMinDim columns only offers its solver's chunks to the shared
// pool, whose idle workers join, so a big factor runs beside the small ones
// and takes over their cores as they finish. Factor results are per-layer
// state and bitwise team-invariant, so the schedule only shapes wall time,
// never values.
func (r *updateRun) scheduleDecompositions(barrier bool) {
	p := r.p
	slots := newEigSlots(runtime.GOMAXPROCS(0))
	p.eigSlots = slots
	shared := barrier || r.averaged == nil // every layer ready at one event
	var gates [][]int                      // each gate's layers
	for i := range p.states {
		if i == 0 || !shared {
			gates = append(gates, nil)
		}
		gates[len(gates)-1] = append(gates[len(gates)-1], i)
	}
	for _, layers := range gates {
		r.spawn(func() error {
			if !r.wait(r.averaged, layers[0]) {
				return nil
			}
			var refs []int // FactorRefs indices of the owned factors
			for _, i := range layers {
				s := p.states[i]
				for k, isG := range factorSides {
					if r.distributed && s.side(isG).owner != r.mine {
						r.decomposed.done(i)
						continue
					}
					refs = append(refs, 2*i+k)
				}
			}
			dim := func(ref int) int { return p.factorDim(ref/2, ref%2 == 1) }
			// Stable: equal dimensions keep FactorRefs order.
			slices.SortStableFunc(refs, func(a, b int) int { return dim(b) - dim(a) })
			for _, ref := range refs {
				i, isG := ref/2, ref%2 == 1
				granted := slots.acquire(dim(ref), ref)
				r.spawn(func() error {
					<-granted
					r.eigComp.begin()
					err := p.decompose(p.states[i], isG)
					r.eigComp.end()
					slots.release(ref)
					if err != nil {
						return fmt.Errorf("kfac: layer %d %s: %w", i, sideName(isG), err)
					}
					r.decomposed.done(i)
					return nil
				})
			}
			return nil
		})
	}
}

// issue is the single goroutine that issues every collective of an update.
// Order is deterministic and identical on all ranks: fused factor allreduce
// chunks in layer order, then the decomposition exchange in layer order (A
// before G). This is what keeps overlapping async collectives from
// cross-matching: tag namespaces are reserved at call time in the same
// sequence everywhere, whatever order the upstream events fire in.
func (r *updateRun) issue() error {
	p := r.p
	if r.doFactors {
		fu := p.dec.NewFuser(p.comm, p.factorEF)
		for i, s := range p.states {
			if !r.waitIdle(r.covDone, i) {
				return nil
			}
			r.facComm.begin()
			fu.AddSymmetric(s.A)
			fu.AddSymmetric(s.G)
			r.awaitChunks(fu.TakeLaunched())
		}
		r.awaitChunks(fu.FlushAsync())
	}
	if r.doDecomp {
		r.issueExchange()
	}
	return nil
}

// awaitChunks waits on each launched fused-allreduce chunk on its own
// goroutine; when a chunk lands its tensors have been scattered back and
// each counts toward its layer's averaged event.
func (r *updateRun) awaitChunks(chunks []*comm.Chunk) {
	for _, ch := range chunks {
		lo := r.fused
		r.fused += len(ch.Tensors())
		hi := r.fused
		r.spawn(func() error {
			err := ch.Wait()
			r.facComm.end()
			if err != nil {
				return err
			}
			for k := lo; k < hi; k++ {
				r.averaged.done(k / 2)
			}
			return nil
		})
	}
}

// issueExchange distributes the decompositions per the plan (Algorithm 1,
// line 18), layer by layer as they land: each factor is broadcast from its
// owner to its recipient group — the layer's gradient workers plus the
// owner. Under a fully replicated plan (COMM-OPT) the recipients are simply
// everyone; under MEM-OPT/HYBRID the remaining ranks receive preconditioned
// gradients each iteration instead (§VI-C3). Recipient groups of one (the
// owner is the only recipient) move nothing and reserve no tags; every
// rank, member or not, calls every other broadcast in the same order, and
// the schedule is a pure function of the shared plan, so every rank issues
// identically.
func (r *updateRun) issueExchange() {
	p := r.p
	for i, s := range p.states {
		if !r.waitIdle(r.decomposed, i) {
			return
		}
		r.eigComm.begin()
		for _, isG := range factorSides {
			f := s.side(isG)
			if f.recv.Size() <= 1 {
				continue
			}
			var buf []float64
			receives := f.owner != r.mine && f.recv.Contains(r.mine)
			if f.owner == r.mine {
				buf = p.appendRecord(nil, i, isG)
			} else if receives {
				buf = make([]float64, p.recordLen(i, isG))
			}
			h := f.recv.BroadcastAsync(buf, f.owner)
			r.spawn(func() error {
				err := h.Wait()
				if err == nil && receives {
					err = p.consumeRecord(i, isG, buf)
				}
				r.eigComm.end()
				return err
			})
		}
	}
}

// factorSides enumerates a layer's factors in record and issue order.
var factorSides = [2]bool{false, true}

// sideName names a factor side in errors.
func sideName(isG bool) string {
	if isG {
		return "G"
	}
	return "A"
}

// recordLen returns the serialized record length of one factor's
// decomposition (see appendRecord).
func (p *Preconditioner) recordLen(layer int, isG bool) int {
	n := p.factorDim(layer, isG)
	return n + n*n
}

// factorDim returns the dimension of one factor of a layer.
func (p *Preconditioner) factorDim(layer int, isG bool) int {
	da, dg := FactorDims(p.states[layer].layer)
	if isG {
		return dg
	}
	return da
}

// appendRecord serializes one factor's decomposition onto buf as a float64
// stream: [values…, Q…]. The layer, side and dimension travel in the
// schedule, not on the wire: every rank issues the same broadcast for the
// same factor.
func (p *Preconditioner) appendRecord(buf []float64, layer int, isG bool) []float64 {
	f := p.states[layer].side(isG)
	buf = append(buf, (*f.eig).Values...)
	return append(buf, (*f.eig).Q.Data...)
}

// consumeRecord decodes the record of one factor's decomposition, received
// from its owner, into the local state. It touches only that factor's
// slots — a layer's A and G records are consumed on concurrent goroutines
// — and refuses a record of any length but the factor's.
func (p *Preconditioner) consumeRecord(layer int, isG bool, rec []float64) error {
	n := p.factorDim(layer, isG)
	if want := p.recordLen(layer, isG); len(rec) != want {
		return fmt.Errorf("kfac: layer %d %s decomposition record of %d values, want %d", layer, sideName(isG), len(rec), want)
	}
	s := p.states[layer]
	f := s.side(isG)
	if *f.eig == nil {
		*f.eig = &linalg.Eigen{}
	}
	(*f.eig).SetFrom(rec[:n], rec[n:], n)
	s.k.refresh(isG)
	return nil
}
