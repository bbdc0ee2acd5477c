package kfac

import (
	"slices"
	"sync"

	"repro/internal/linalg"
)

// EigTeamMinDim is the factor dimension below which a decomposition
// always runs on a single-worker team: the blocked solver falls back to
// the serial pair under linalg's own small-dimension threshold anyway,
// and launch overhead would dominate any split.
const EigTeamMinDim = 192

// EigTeamSize decides the intra-factor worker team for decomposing one
// factor of dimension dim on a rank with procs schedulable workers,
// given rankLoad — the total eigendecomposition cost (linalg.EigFLOPs)
// this rank owns under the active plan (see Plan.EigTeams). The rule
// splits procs between inter-factor parallelism and intra-factor teams
// by cost share: a factor carrying the whole rank's load (the MEM-OPT
// one-big-factor case) gets the full machine as its ceiling, a factor that
// is one of many small ones gets a team of one and relies on the
// factor-level fan-out. The team is a ceiling, not a reservation: it caps
// how many chunks the solver's passes offer, and only idle workers join
// them (eigSlots). Deterministic — a pure function of its arguments — so
// every rank computes identical team tables without communication.
func EigTeamSize(dim, procs int, rankLoad float64) int {
	if procs <= 1 || dim < EigTeamMinDim {
		return 1
	}
	cost := linalg.EigFLOPs(dim)
	if rankLoad < cost {
		rankLoad = cost
	}
	t := int(cost / rankLoad * float64(procs))
	if float64(t) < cost/rankLoad*float64(procs) {
		t++ // ceil
	}
	if t < 1 {
		t = 1
	}
	if t > procs {
		t = procs
	}
	return t
}

// eigSlots is the decomposition stage's priority slot semaphore: every
// decomposition in flight holds exactly one slot, and there are GOMAXPROCS
// slots. A factor's team is not reserved here — it only caps the chunks its
// solver's passes offer the shared pool, whose idle workers join them — so a
// large factor's solve runs beside the small ones and picks up their cores as
// they finish. A request that finds no free slot queues; a freed slot goes to
// the queued factor with the largest dimension, ties to the lower FactorRefs
// index, so the grants are a pure function of the order in which factors
// become ready. No request starves: the queue holds one update's finite set
// of decompositions and every release hands its slot on.
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

// computeEigTeams records each factor's decomposition team from the active
// plan (Plan.EigTeams) into the per-layer state, consumed by the eig
// scheduler and decompose, and surfaces the table through
// StageStats.EigTeams. Called from replan, so the table tracks ownership
// changes.
func (p *Preconditioner) computeEigTeams(procs int) {
	refs := p.FactorRefs()
	teams := p.plan.EigTeams(refs, procs)
	table := make([]EigTeamAssign, len(refs))
	for i, f := range refs {
		table[i] = EigTeamAssign{Layer: f.Layer, IsG: f.IsG, Dim: f.Dim, Team: teams[i]}
	}
	for i, s := range p.states {
		s.aTeam, s.gTeam = teams[2*i], teams[2*i+1]
	}
	p.stats.recordEigTeams(table)
}
