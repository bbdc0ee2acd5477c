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
	"sync/atomic"
	"time"
)

// spinWindow is how long a ForEach participant with nothing to do stays
// awake before it parks: an idle worker polling for a token or a task, and
// a caller polling for its last helper to leave. Each poll that finds
// nothing calls runtime.Gosched, so a spinning goroutine hands its P to any
// runnable one (the caller it would wake, another rank) rather than
// holding it. A step makes dozens of fan-outs a few µs apart, and a parked
// worker joins 10–30 µs after its token is offered, by when the caller has
// claimed most chunks itself. Measured on a 2-CPU host (docs/PERFORMANCE.md,
// "Fan-outs without a wake-up"): with BenchmarkForEachFanOut, fan-outs of
// 5–20 µs chunks gained 1.0–1.4× over serial when parking at once, and
// 1.27–1.69× at 20 µs, 1.42–1.75× at 50 µs and 1.33–1.76× at 200 µs of
// spin; on the benchmark, 20 µs read 1.025× of 50 µs's stale_w1 step and
// 200 µs read 0.945× of it there but 1.12× on converge_w2, whose two
// ranks share both cores.
const spinWindow = 50 * time.Microsecond

// Pool is a bounded worker pool for CPU-bound tasks. Submitted functions are
// executed by at most `workers` goroutines; Submit never blocks the caller.
type Pool struct {
	tasks  chan func()
	tokens chan forToken
	wg     sync.WaitGroup // tracks in-flight + queued tasks and helper tokens
	parked atomic.Int32   // goroutines blocked in the pool: idle workers, callers on drained

	mu      sync.Mutex
	closed  bool
	workers int

	// free recycles ForEach job descriptors; it holds as many as callers
	// were ever inside ForEach at once.
	freeMu sync.Mutex
	free   []*forJob
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
		tokens:  make(chan forToken, 4*workers),
		workers: workers,
	}
	for i := 0; i < workers; i++ {
		go p.worker()
	}
	return p
}

// worker runs tasks and helper tokens. Out of work, it polls both queues
// for spinWindow, yielding between polls, before it parks.
func (p *Pool) worker() {
	var idle time.Time // when the current run of empty polls began
	for {
		select {
		case fn, ok := <-p.tasks:
			if !p.runTask(fn, ok) {
				return
			}
		case t := <-p.tokens:
			p.runToken(t)
		default:
			if idle.IsZero() {
				idle = time.Now()
			}
			if time.Since(idle) < spinWindow {
				runtime.Gosched()
				continue
			}
			if !p.park() {
				return
			}
		}
		idle = time.Time{}
	}
}

// park blocks in a receive until a task or a token arrives and runs it; it
// reports false once the task queue is closed.
func (p *Pool) park() bool {
	p.parked.Add(1)
	select {
	case fn, ok := <-p.tasks:
		p.parked.Add(-1)
		return p.runTask(fn, ok)
	case t := <-p.tokens:
		p.parked.Add(-1)
		p.runToken(t)
		return true
	}
}

// runTask runs a dequeued task; it reports false once the queue is closed.
func (p *Pool) runTask(fn func(), ok bool) bool {
	if !ok {
		return false
	}
	fn()
	p.wg.Done()
	return true
}

// runToken takes up a dequeued helper token.
func (p *Pool) runToken(t forToken) {
	t.j.help(t.gen)
	p.wg.Done()
}

// Ranger is a leaf compute kernel over a half-open row range. Implementations
// are typically small reusable structs (recycled by the caller)
// carrying the kernel's operands, so a ForEach dispatch allocates nothing.
type Ranger interface {
	RunRange(lo, hi int)
}

// forJob is one ForEach in flight: the range, its fixed chunk grid, and the
// cursor every participant claims chunks from. state packs the generation
// (high 32 bits) with the count of helpers currently inside the job (low 32
// bits); a helper may join only while the generation is the one its token
// was issued under, and the caller closes the job by advancing it.
// Descriptors are recycled through Pool.free.
type forJob struct {
	r        Ranger
	m, chunk int
	nchunks  int64
	next     atomic.Int64
	state    atomic.Uint64
	drained  chan struct{} // the last helper out after close signals here
}

// forToken offers one helper's seat in a job. It travels by value through
// a buffered channel, so offering it performs no heap allocation.
type forToken struct {
	j   *forJob
	gen uint32
}

// claim runs chunks until none are left.
func (j *forJob) claim() {
	for {
		c := j.next.Add(1) - 1
		if c >= j.nchunks {
			return
		}
		lo := int(c) * j.chunk
		j.r.RunRange(lo, min(lo+j.chunk, j.m))
	}
}

// help is a worker's side of a token: join the job if the token's
// generation is still open, claim chunks, and leave. A token dequeued after
// its ForEach returned finds the generation advanced and does nothing.
func (j *forJob) help(gen uint32) {
	for {
		s := j.state.Load()
		if uint32(s>>32) != gen {
			return
		}
		if j.state.CompareAndSwap(s, s+1) {
			break
		}
	}
	j.claim()
	// Leaving after the caller closed the job, the last helper out wakes it.
	if s := j.state.Add(^uint64(0)); uint32(s>>32) != gen && uint32(s) == 0 {
		j.drained <- struct{}{}
	}
}

// ForEach splits [0, m) into up to nchunks contiguous ranges and runs them,
// returning when all are done. Chunk boundaries are a pure function of (m,
// nchunks); which goroutine runs a chunk is not, so a Ranger whose output
// elements each belong to one chunk gives the same result however the
// chunks were shared out.
//
// Dispatch is claim-based: ForEach offers up to min(workers, chunks−1)
// helper tokens without blocking, then claims chunks itself until none are
// left, and waits only for the helpers that actually joined. A caller is
// never parked behind queued chunks, so it completes even when every worker
// is busy, and ForEach never spawns goroutines and never allocates — the
// property the zero-allocation tensor kernels rely on.
//
// Like all pool tasks, ranges must be pure leaf compute: a RunRange must not
// block on other pool work.
func (p *Pool) ForEach(m, nchunks int, r Ranger) {
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
	count := (m + chunk - 1) / chunk
	j := p.getJob()
	j.r, j.m, j.chunk, j.nchunks = r, m, chunk, int64(count)
	j.next.Store(0)
	gen := uint32(j.state.Load() >> 32)
offer:
	for i := min(p.workers, count-1); i > 0; i-- {
		p.wg.Add(1)
		select {
		case p.tokens <- forToken{j: j, gen: gen}:
		default:
			p.wg.Done()
			break offer
		}
	}
	j.claim()
	// Close: advance the generation so no further token joins, and wait for
	// the helpers already inside, polling for spinWindow before parking.
	if s := j.state.Add(1 << 32); uint32(s) != 0 {
		p.wait(j)
	}
	j.r = nil
	p.putJob(j)
}

// wait returns once the last helper out of j has signalled drained. It
// polls the signal for spinWindow, yielding between polls, then parks on
// it: a helper still inside usually leaves within a chunk's time, and a
// caller that parked would pay a wake-up on every fan-out.
func (p *Pool) wait(j *forJob) {
	start := time.Now()
	for time.Since(start) < spinWindow {
		select {
		case <-j.drained:
			return
		default:
			runtime.Gosched()
		}
	}
	p.parked.Add(1)
	<-j.drained
	p.parked.Add(-1)
}

// getJob pops a recycled descriptor, or makes one.
func (p *Pool) getJob() *forJob {
	p.freeMu.Lock()
	defer p.freeMu.Unlock()
	if n := len(p.free); n > 0 {
		j := p.free[n-1]
		p.free = p.free[:n-1]
		return j
	}
	return &forJob{drained: make(chan struct{}, 1)}
}

// putJob returns j for reuse.
func (p *Pool) putJob(j *forJob) {
	p.freeMu.Lock()
	p.free = append(p.free, j)
	p.freeMu.Unlock()
}

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
