package kfac

import (
	"slices"
	"sync"
)

// EigTeamMinDim is the threshold of the one eig-parallelism rule
// (Preconditioner.symEig): a factor of at least this many columns offers
// its solve's chunks to the whole shared pool (runtime.GOMAXPROCS(0) as the
// solver's team), a smaller one solves on the calling goroutine alone.
// Below it the blocked solver's passes are too short for a split to pay for
// its hand-offs; giving every factor the whole pool measured no faster, and
// it changes the schedule of rows whose factors sit between 128 and 192
// columns. The ceiling is not a reservation: the solve holds one eigSlots
// slot like any other, and only idle workers join its chunks.
const EigTeamMinDim = 192

// eigSlots is the decomposition stage's priority slot semaphore: every
// decomposition in flight holds exactly one slot, and there are GOMAXPROCS
// slots. A large factor's whole-pool chunk ceiling (EigTeamMinDim) is not
// reserved here — it only caps the chunks its solver's passes offer the
// shared pool, whose idle workers join them — so its solve runs beside the
// small ones and picks up their cores as they finish. A request that finds
// no free slot queues; a freed slot goes to the queued factor with the
// largest dimension, ties to the lower FactorRefs index, so the grants are a
// pure function of the order in which factors become ready. No request
// starves: the queue holds one update's finite set of decompositions and
// every release hands its slot on.
type eigSlots struct {
	mu    sync.Mutex
	free  int
	queue []eigSlotReq
	// history logs ref+1 at every grant and -(ref+1) at the matching
	// release, in order; tests replay it.
	history []int
}

// eigSlotReq is one queued request: the factor's dimension and FactorRefs
// index, and the channel closed when its slot is granted.
type eigSlotReq struct {
	dim, ref int
	granted  chan struct{}
}

// newEigSlots returns a semaphore of n ≥ 1 slots.
func newEigSlots(n int) *eigSlots {
	return &eigSlots{free: n}
}

// acquire requests a slot for the factor with FactorRefs index ref and
// dimension dim. The returned channel is closed once the slot is granted: at
// once if one is free, else when a release hands one over.
func (s *eigSlots) acquire(dim, ref int) <-chan struct{} {
	req := eigSlotReq{dim: dim, ref: ref, granted: make(chan struct{})}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.free > 0 {
		s.free--
		s.grant(req)
	} else {
		s.queue = append(s.queue, req)
	}
	return req.granted
}

// release returns ref's slot; the best queued request takes it.
func (s *eigSlots) release(ref int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.history = append(s.history, -(ref + 1))
	if len(s.queue) == 0 {
		s.free++
		return
	}
	best := 0
	for i, q := range s.queue {
		if b := s.queue[best]; q.dim > b.dim || (q.dim == b.dim && q.ref < b.ref) {
			best = i
		}
	}
	req := s.queue[best]
	s.queue = slices.Delete(s.queue, best, best+1)
	s.grant(req)
}

// grant hands req its slot; the caller holds mu.
func (s *eigSlots) grant(req eigSlotReq) {
	s.history = append(s.history, req.ref+1)
	close(req.granted)
}
