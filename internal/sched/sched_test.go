package sched

import (
	"errors"
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
	p.Wait()
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
	p.Wait()
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
	p.Wait()
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
	if p.Workers() < 1 {
		t.Fatalf("Workers() = %d", p.Workers())
	}
}

func TestGroupCollectsFirstError(t *testing.T) {
	var g Group
	boom := errors.New("boom")
	g.Go(func() error { return nil })
	g.Go(func() error { return boom })
	g.Go(func() error { time.Sleep(time.Millisecond); return errors.New("later") })
	if err := g.Wait(); !errors.Is(err, boom) && err.Error() != "later" {
		// First error wins; either could be first, but nil is wrong.
		if err == nil {
			t.Fatal("Wait returned nil despite failures")
		}
	}
}
