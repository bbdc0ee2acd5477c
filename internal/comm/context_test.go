package comm

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"
)

// A cancelled context must unblock a Recv that would otherwise wait forever.
func TestRecvUnblocksOnContextCancel(t *testing.T) {
	fab := NewInprocFabric(2)
	e := fab.Endpoint(0)
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := e.Recv(ctx, 1, 42)
		done <- err
	}()
	time.Sleep(10 * time.Millisecond) // let the receiver block
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("Recv returned %v, want context.Canceled", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Recv did not unblock on context cancellation")
	}
}

// A message arriving after an aborted Recv stays queued for the next Recv.
func TestAbortedRecvDoesNotConsumeMessage(t *testing.T) {
	fab := NewInprocFabric(2)
	a, b := fab.Endpoint(0), fab.Endpoint(1)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := b.Recv(ctx, 0, 7); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled Recv returned %v", err)
	}
	if err := a.Send(1, 7, []float64{3}); err != nil {
		t.Fatal(err)
	}
	got, err := b.Recv(context.Background(), 0, 7)
	if err != nil || got[0] != 3 {
		t.Fatalf("queued message lost after aborted Recv: %v %v", got, err)
	}
}

// A blocked collective on a context-bound communicator returns the context
// error on the rank whose peer never shows up.
func TestCollectiveAbortsOnContextCancel(t *testing.T) {
	fab := NewInprocFabric(2)
	ctx, cancel := context.WithCancel(context.Background())
	c0 := NewCommunicator(fab.Endpoint(0)).WithContext(ctx)
	done := make(chan error, 1)
	go func() {
		done <- c0.AllreduceSum([]float64{1, 2, 3}) // rank 1 never joins
	}()
	time.Sleep(10 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("allreduce returned %v, want context.Canceled", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("allreduce did not abort on cancellation")
	}
}

// Cancelling one rank's context must cascade: the aborted rank stops
// participating, and the remaining ranks' collectives (bound to the same
// context here) also unblock rather than deadlock.
func TestAllRanksUnblockOnSharedContextCancel(t *testing.T) {
	const p = 3
	fab := NewInprocFabric(p)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var wg sync.WaitGroup
	errs := make([]error, p)
	for r := 0; r < p; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			c := NewCommunicator(fab.Endpoint(r)).WithContext(ctx)
			if r == 0 {
				// Rank 0 never enters the collective; it just cancels.
				time.Sleep(20 * time.Millisecond)
				cancel()
				errs[r] = context.Canceled
				return
			}
			errs[r] = c.AllreduceSum(make([]float64, 128))
		}(r)
	}
	ok := make(chan struct{})
	go func() { wg.Wait(); close(ok) }()
	select {
	case <-ok:
	case <-time.After(5 * time.Second):
		t.Fatal("ranks deadlocked after cancellation")
	}
	for r := 1; r < p; r++ {
		if !errors.Is(errs[r], context.Canceled) {
			t.Errorf("rank %d returned %v, want context.Canceled", r, errs[r])
		}
	}
}

// cancelAtTagStep cancels the shared context instead of sending the first
// message of one tag step, so the world aborts partway through a collective.
type cancelAtTagStep struct {
	Transport
	step   uint64
	cancel context.CancelFunc
}

func (c *cancelAtTagStep) Send(to int, tag uint64, data []float64) error {
	if tag&0xffff == c.step {
		c.cancel()
		return context.Canceled
	}
	return c.Transport.Send(to, tag, data)
}

// The world-4 sibling of TestAllRanksUnblockOnSharedContextCancel: every
// rank enters the allreduce, rank 0 cancels the shared context in place of
// its second recursive-halving send, and every rank returns.
func TestAllRanksUnblockOnSharedContextCancelWorld4(t *testing.T) {
	const p = 4
	fab := NewInprocFabric(p)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var wg sync.WaitGroup
	errs := make([]error, p)
	for r := 0; r < p; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			tr := fab.Endpoint(r)
			if r == 0 {
				tr = &cancelAtTagStep{Transport: tr, step: 1, cancel: cancel}
			}
			errs[r] = NewCommunicator(tr).WithContext(ctx).AllreduceSum(make([]float64, 128))
		}(r)
	}
	ok := make(chan struct{})
	go func() { wg.Wait(); close(ok) }()
	select {
	case <-ok:
	case <-time.After(5 * time.Second):
		t.Fatal("ranks deadlocked after cancellation mid-halving")
	}
	for r, err := range errs {
		if !errors.Is(err, context.Canceled) {
			t.Errorf("rank %d returned %v, want context.Canceled", r, err)
		}
	}
}

// WithContext must share the tag sequence with its parent so collectives
// issued through either stay matched across ranks.
func TestWithContextSharesTagSequence(t *testing.T) {
	fab := NewInprocFabric(2)
	base0 := NewCommunicator(fab.Endpoint(0))
	base1 := NewCommunicator(fab.Endpoint(1))
	bound0 := base0.WithContext(context.Background())

	var wg sync.WaitGroup
	var err0, err1 error
	buf0, buf1 := []float64{1}, []float64{2}
	wg.Add(2)
	go func() {
		defer wg.Done()
		// Rank 0 alternates between parent and derived communicator.
		if err0 = base0.AllreduceSum(buf0); err0 != nil {
			return
		}
		err0 = bound0.AllreduceSum(buf0)
	}()
	go func() {
		defer wg.Done()
		if err1 = base1.AllreduceSum(buf1); err1 != nil {
			return
		}
		err1 = base1.AllreduceSum(buf1)
	}()
	wg.Wait()
	if err0 != nil || err1 != nil {
		t.Fatalf("allreduce errors: %v %v", err0, err1)
	}
	if buf0[0] != 6 || buf1[0] != 6 {
		t.Fatalf("results diverged: %v %v (derived communicator must share the tag sequence)", buf0[0], buf1[0])
	}
}
