package sched

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestPoolRunsAllTasks(t *testing.T) {
	p := NewPool(4)
	defer p.Close()
	var n atomic.Int64
	for i := 0; i < 100; i++ {
		p.Submit(func() { n.Add(1) })
	}
	p.wg.Wait()
	if n.Load() != 100 {
		t.Fatalf("ran %d tasks, want 100", n.Load())
	}
}

func TestPoolBoundsConcurrency(t *testing.T) {
	const workers = 3
	p := NewPool(workers)
	defer p.Close()
	var cur, peak atomic.Int64
	for i := 0; i < 50; i++ {
		p.Submit(func() {
			c := cur.Add(1)
			for {
				pk := peak.Load()
				if c <= pk || peak.CompareAndSwap(pk, c) {
					break
				}
			}
			time.Sleep(time.Millisecond)
			cur.Add(-1)
		})
	}
	p.wg.Wait()
	if peak.Load() > workers {
		t.Fatalf("observed %d concurrent tasks, bound is %d", peak.Load(), workers)
	}
}

func TestPoolSubmitNeverBlocks(t *testing.T) {
	// A single worker stuck behind a slow task must not block producers.
	p := NewPool(1)
	defer p.Close()
	release := make(chan struct{})
	p.Submit(func() { <-release })
	done := make(chan struct{})
	go func() {
		for i := 0; i < 1000; i++ {
			p.Submit(func() {})
		}
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Submit blocked with a busy worker")
	}
	close(release)
	p.wg.Wait()
}

func TestPoolCloseIdempotent(t *testing.T) {
	p := NewPool(2)
	p.Submit(func() {})
	p.Close()
	p.Close()
}

func TestPoolDefaultWorkers(t *testing.T) {
	p := NewPool(0)
	defer p.Close()
	if p.workers != runtime.GOMAXPROCS(0) {
		t.Fatalf("NewPool(0) has %d workers, want GOMAXPROCS = %d", p.workers, runtime.GOMAXPROCS(0))
	}
}

func TestGroupCollectsFirstError(t *testing.T) {
	var g Group
	boom := errors.New("boom")
	g.Go(func() error { return nil })
	g.Go(func() error { return boom })
	g.Go(func() error { return errors.New("later") })
	// First error wins; either could be first, but nil is wrong.
	err := g.Wait()
	if err == nil {
		t.Fatal("Wait returned nil despite failures")
	}
	if !errors.Is(err, boom) && err.Error() != "later" {
		t.Fatalf("Wait returned %v, want boom or later", err)
	}
}

// chunkCounter records every range ForEach hands it: how often each index
// ran, and whether each range was exactly one chunk of the grid (m, nchunks)
// defines.
type chunkCounter struct {
	m, chunk int
	hits     []atomic.Int32
	misfit   atomic.Int32
}

func newChunkCounter(m, nchunks int) *chunkCounter {
	c := &chunkCounter{m: m, hits: make([]atomic.Int32, m)}
	if n := min(max(nchunks, 1), max(m, 1)); m > 0 {
		c.chunk = (m + n - 1) / n
	}
	return c
}

func (c *chunkCounter) RunRange(lo, hi int) {
	if lo%c.chunk != 0 || hi != min(lo+c.chunk, c.m) {
		c.misfit.Add(1)
	}
	for i := lo; i < hi; i++ {
		c.hits[i].Add(1)
	}
}

func (c *chunkCounter) check(t *testing.T, label string) {
	t.Helper()
	if c.misfit.Load() != 0 {
		t.Errorf("%s: %d ranges were not chunks of the (m, nchunks) grid", label, c.misfit.Load())
	}
	for i := range c.hits {
		if n := c.hits[i].Load(); n != 1 {
			t.Errorf("%s: index %d ran %d times, want 1", label, i, n)
			return
		}
	}
}

// TestForEachRunsEveryChunkOnce sweeps m and nchunks (m < nchunks
// included) with several callers sharing one pool at once: every index runs
// exactly once, and every range handed out is exactly one chunk of the grid
// (m, nchunks) defines, whoever ran it.
func TestForEachRunsEveryChunkOnce(t *testing.T) {
	p := NewPool(3)
	defer p.Close()
	ms := []int{0, 1, 2, 3, 7, 16, 100, 1000}
	ns := []int{0, 1, 2, 3, 5, 8, 64, 2000}
	var g Group
	for caller := 0; caller < 4; caller++ {
		g.Go(func() error {
			for rep := 0; rep < 5; rep++ {
				for _, m := range ms {
					for _, n := range ns {
						c := newChunkCounter(m, n)
						p.ForEach(m, n, c)
						c.check(t, fmt.Sprintf("caller %d m=%d nchunks=%d", caller, m, n))
					}
				}
			}
			return nil
		})
	}
	g.Wait()
}

// TestForEachCompletesWithEveryWorkerBusy: the caller claims its own chunks,
// so a ForEach finishes while every worker is blocked in a Submit task. A
// dispatch that parked the caller behind queued chunks would hang here.
func TestForEachCompletesWithEveryWorkerBusy(t *testing.T) {
	const workers = 2
	p := NewPool(workers)
	defer p.Close()
	release := make(chan struct{})
	var started sync.WaitGroup
	started.Add(workers)
	for i := 0; i < workers; i++ {
		p.Submit(func() {
			started.Done()
			<-release
		})
	}
	started.Wait()
	done := make(chan struct{})
	c := newChunkCounter(64, 64)
	go func() {
		p.ForEach(64, 64, c)
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		close(release)
		t.Fatal("ForEach did not complete while every worker was busy")
	}
	close(release)
	c.check(t, "busy workers")
	p.wg.Wait()
}

// stallRanger blocks in chunk 0 until the pool has drained every queued
// token, and records any other chunk that ran meanwhile.
type stallRanger struct {
	p        *Pool
	inFirst  atomic.Bool
	intruded atomic.Int32
	release  chan struct{}
}

func (r *stallRanger) RunRange(lo, hi int) {
	if lo == 0 {
		r.inFirst.Store(true)
		close(r.release) // let the worker reach the stale tokens
		r.p.wg.Wait()    // ... and drain them all
		r.inFirst.Store(false)
		return
	}
	if r.inFirst.Load() {
		r.intruded.Add(1)
	}
}

// TestForEachStaleTokenRunsNothing: a helper token a worker dequeues after
// its ForEach returned must not join the next ForEach that reuses the same
// descriptor. The single worker is held in a Submit task while four
// ForEach calls complete on the caller alone and fill the token queue with
// their stale tokens; a fifth then reuses the descriptor, finds the queue
// full (it offers no token of its own), and in its first chunk releases the
// worker and waits for it to drain the queue. No other chunk of the fifth
// may run meanwhile.
func TestForEachStaleTokenRunsNothing(t *testing.T) {
	p := NewPool(1) // closed only on success: a failure may leave it wedged
	hold := make(chan struct{})
	var started sync.WaitGroup
	started.Add(1)
	p.Submit(func() {
		started.Done()
		<-hold
	})
	started.Wait()
	for i := 0; i < cap(p.tokens); i++ {
		c := newChunkCounter(8, 8)
		p.ForEach(8, 8, c)
		c.check(t, "stale-token producer")
	}
	if len(p.tokens) != cap(p.tokens) {
		t.Fatalf("token queue holds %d of %d", len(p.tokens), cap(p.tokens))
	}
	r := &stallRanger{p: p, release: hold}
	done := make(chan struct{})
	go func() {
		p.ForEach(8, 8, r)
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("ForEach did not complete")
	}
	if n := r.intruded.Load(); n != 0 {
		t.Fatalf("%d chunks ran on a stale token", n)
	}
	p.Close()
}

// TestForEachZeroAlloc: a warm pool dispatches without allocating, on the
// fan-out path and inline.
func TestForEachZeroAlloc(t *testing.T) {
	p := NewPool(2)
	defer p.Close()
	c := newChunkCounter(64, 16)
	run := func() {
		p.ForEach(64, 16, c)
		p.ForEach(64, 1, c)
	}
	run()
	if allocs := testing.AllocsPerRun(100, run); allocs != 0 {
		t.Fatalf("ForEach allocated %v times per run", allocs)
	}
}
