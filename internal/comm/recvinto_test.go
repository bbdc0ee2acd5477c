package comm

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"
)

// runCancelOnError runs op on the listed ranks of a fresh in-process world
// of p under one context, cancelled as soon as any rank fails so the ranks
// a failure strands return too, and returns each rank's error. It fails
// the test if the ranks have not all returned within 5 s.
func runCancelOnError(t *testing.T, name string, p int, ranks []int, op func(c *Communicator) error) []error {
	t.Helper()
	fab := NewInprocFabric(p)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	errs := make([]error, p)
	var wg sync.WaitGroup
	for _, r := range ranks {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			if errs[r] = op(NewCommunicator(fab.Endpoint(r)).WithContext(ctx)); errs[r] != nil {
				cancel()
			}
		}(r)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatalf("%s: ranks did not return after a length mismatch", name)
	}
	return errs
}

// TestFixedLengthReceivesNameMismatch: every collective receive whose
// length the schedule fixes refuses a payload of the wrong length with
// errSegmentMismatch on the receiving rank. Hierarchical phase 3 cannot be
// reached by honest ranks with mismatched buffers (phase 1 fails first),
// so there rank 0 poses as the group leader and sends a short result
// straight at the phase-3 tag.
func TestFixedLengthReceivesNameMismatch(t *testing.T) {
	// length is rank r's buffer length: 10, or 11 on the rank named long.
	length := func(c *Communicator, long int) int {
		if c.Rank() == long {
			return 11
		}
		return 10
	}
	for _, tc := range []struct {
		name  string
		p     int
		ranks []int // ranks that run op
		recv  int   // the rank that must name the mismatch
		op    func(c *Communicator) error
	}{
		{"Broadcast", 4, []int{0, 1, 2, 3}, 3, func(c *Communicator) error {
			// Rank 3 receives from rank 1, a forwarder, not the root.
			return c.Broadcast(make([]float64, length(c, 3)), 0)
		}},
		{"Group.BroadcastAsync", 3, []int{0, 1, 2}, 2, func(c *Communicator) error {
			return c.Group([]int{0, 2}).BroadcastAsync(make([]float64, length(c, 2)), 0).Wait()
		}},
		{"Reduce", 2, []int{0, 1}, 0, func(c *Communicator) error {
			return c.Reduce(make([]float64, length(c, 1)), 0)
		}},
		{"hierarchical phase 1", 3, []int{0, 1, 2}, 0, func(c *Communicator) error {
			return c.HierarchicalAllreduceMeanAsync(make([]float64, length(c, 1)), 2).Wait()
		}},
		{"hierarchical phase 3", 3, []int{0, 1}, 1, func(c *Communicator) error {
			if c.Rank() == 0 {
				return c.t.Send(1, opTag(c.nextOp(), 4), make([]float64, 9))
			}
			return c.HierarchicalAllreduceMeanAsync(make([]float64, 10), 2).Wait()
		}},
	} {
		errs := runCancelOnError(t, tc.name, tc.p, tc.ranks, tc.op)
		if err := errs[tc.recv]; !errors.Is(err, errSegmentMismatch) {
			t.Errorf("%s: rank %d returned %v, want errSegmentMismatch", tc.name, tc.recv, err)
		}
	}
}
