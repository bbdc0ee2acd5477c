// Package sched provides the concurrency primitives the K-FAC update stage
// graph and the blocked kernels are built from, kept generic so any layer
// of the codebase can use them: a bounded worker Pool for CPU-bound tasks
// and an error-collecting Group for wait-bound goroutines (communication
// waiters, stage gates, collective issuers).
//
// The split matters for deadlock freedom: Pool workers must never block on
// other tasks (they run leaf compute), while Group goroutines are unbounded
// and may block on channels, semaphores, or collective handles.
package sched

import (
	"runtime"
	"sync"
)

// Pool is a bounded worker pool for CPU-bound tasks. Submitted functions are
// executed by at most `workers` goroutines; Submit never blocks the caller.
type Pool struct {
	tasks chan func()
	rjobs chan rangeJob
	wg    sync.WaitGroup // tracks in-flight + queued tasks

	mu      sync.Mutex
	closed  bool
	workers int
}

// NewPool creates a pool with the given concurrency; workers <= 0 selects
// runtime.GOMAXPROCS(0).
func NewPool(workers int) *Pool {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	p := &Pool{
		// Buffer a healthy queue so producers rarely need the overflow path.
		tasks:   make(chan func(), 4*workers),
		rjobs:   make(chan rangeJob, 4*workers),
		workers: workers,
	}
	for i := 0; i < workers; i++ {
		go p.worker()
	}
	return p
}

func (p *Pool) worker() {
	for {
		select {
		case fn, ok := <-p.tasks:
			if !ok {
				return
			}
			fn()
			p.wg.Done()
		case rj := <-p.rjobs:
			rj.r.RunRange(rj.lo, rj.hi)
			rj.done.Done()
			p.wg.Done()
		}
	}
}

// Ranger is a leaf compute kernel over a half-open row range. Implementations
// are typically small reusable structs (recycled by the caller)
// carrying the kernel's operands, so a ForEach dispatch allocates nothing.
type Ranger interface {
	RunRange(lo, hi int)
}

// rangeJob is one ForEach chunk. It travels by value through a buffered
// channel, so dispatching a chunk performs no heap allocation.
type rangeJob struct {
	r      Ranger
	lo, hi int
	done   *sync.WaitGroup
}

// ForEach splits [0, m) into up to nchunks contiguous ranges, runs them on
// the pool's workers, and blocks until all complete. done is caller-provided
// scratch (usually embedded in the Ranger) and must have a zero count on
// entry. When the job queue is full the caller runs the chunk inline, so
// ForEach never spawns goroutines and never allocates — the property the
// zero-allocation tensor kernels rely on.
//
// Like all pool tasks, ranges must be pure leaf compute: a RunRange that
// itself called ForEach on the same pool could leave every worker blocked
// waiting for chunks nobody can run.
func (p *Pool) ForEach(m, nchunks int, r Ranger, done *sync.WaitGroup) {
	if m <= 0 {
		return
	}
	if nchunks > m {
		nchunks = m
	}
	if nchunks <= 1 {
		r.RunRange(0, m)
		return
	}
	chunk := (m + nchunks - 1) / nchunks
	for lo := 0; lo < m; lo += chunk {
		hi := lo + chunk
		if hi > m {
			hi = m
		}
		done.Add(1)
		p.wg.Add(1)
		select {
		case p.rjobs <- rangeJob{r: r, lo: lo, hi: hi, done: done}:
		default:
			// Queue full: run inline rather than block or spawn.
			r.RunRange(lo, hi)
			done.Done()
			p.wg.Done()
		}
	}
	done.Wait()
}

// Workers returns the pool's concurrency bound.
func (p *Pool) Workers() int { return p.workers }

// Submit enqueues fn for execution. It never blocks: when the queue is full
// the task is handed to a transient goroutine that feeds it into the queue,
// preserving the concurrency bound while keeping producers (e.g. collective
// issuers that must maintain SPMD ordering) free-running. Submitting to a
// closed pool panics, as sending on a closed channel would.
func (p *Pool) Submit(fn func()) {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		panic("sched: Submit on closed Pool")
	}
	p.wg.Add(1)
	select {
	case p.tasks <- fn:
		p.mu.Unlock()
	default:
		p.mu.Unlock()
		go func() { p.tasks <- fn }()
	}
}

// Wait blocks until every task submitted so far has finished.
func (p *Pool) Wait() { p.wg.Wait() }

// Close waits for outstanding tasks and stops the workers. The pool cannot
// be reused afterwards. Close is idempotent.
func (p *Pool) Close() {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return
	}
	p.closed = true
	p.mu.Unlock()
	p.wg.Wait()
	close(p.tasks)
}

var (
	sharedOnce sync.Once
	sharedPool *Pool
)

// Shared returns the process-wide compute pool used by the blocked
// linear-algebra kernels in internal/tensor and internal/linalg. It is
// created on first use with GOMAXPROCS workers and is never closed.
//
// Tasks submitted to the shared pool must be pure leaf compute: they must
// not themselves submit to (and wait on) the shared pool, or a full queue
// could leave every worker blocked waiting for subtasks that can no longer
// be scheduled. Blocking work belongs on a Group or a dedicated Pool.
func Shared() *Pool {
	sharedOnce.Do(func() { sharedPool = NewPool(0) })
	return sharedPool
}

// Group runs goroutines that may block (on channels or network handles)
// and collects the first error — errgroup with no external dependency. The
// zero value is ready to use.
type Group struct {
	wg  sync.WaitGroup
	mu  sync.Mutex
	err error
}

// Go runs fn on its own goroutine.
func (g *Group) Go(fn func() error) {
	g.wg.Add(1)
	go func() {
		defer g.wg.Done()
		if err := fn(); err != nil {
			g.mu.Lock()
			if g.err == nil {
				g.err = err
			}
			g.mu.Unlock()
		}
	}()
}

// Err returns the first recorded error without waiting.
func (g *Group) Err() error {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.err
}

// Wait blocks until every goroutine started with Go has returned, then
// reports the first error.
func (g *Group) Wait() error {
	g.wg.Wait()
	return g.Err()
}
