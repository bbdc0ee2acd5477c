package kfac

import (
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
// one-big-factor case) gets the full machine, a factor that is one of
// many small ones gets a team of one and relies on the factor-level
// fan-out. Deterministic — a pure function of its arguments — so every
// rank computes identical team tables without communication.
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

// weightedSem is a counting semaphore with weighted acquisition: the
// decomposition fan-out sizes each factor's hold to its team so that the
// sum of concurrently running teams never exceeds the machine. Weights
// above the capacity are clamped at acquire (a full-machine team then
// simply runs alone). FIFO fairness is not guaranteed — the scheduler
// launches largest-first and correctness does not depend on ordering.
type weightedSem struct {
	mu    sync.Mutex
	cond  sync.Cond
	avail int
	cap   int
	peak  int // high-water mark of units held at once
}

// newWeightedSem returns a semaphore with the given capacity (≥ 1).
func newWeightedSem(capacity int) *weightedSem {
	if capacity < 1 {
		capacity = 1
	}
	s := &weightedSem{avail: capacity, cap: capacity}
	s.cond.L = &s.mu
	return s
}

// acquire blocks until w units (clamped to the capacity) are available
// and takes them. It returns the clamped weight for the matching release.
func (s *weightedSem) acquire(w int) int {
	if w < 1 {
		w = 1
	}
	if w > s.cap {
		w = s.cap
	}
	s.mu.Lock()
	for s.avail < w {
		s.cond.Wait()
	}
	s.avail -= w
	s.peak = max(s.peak, s.cap-s.avail)
	s.mu.Unlock()
	return w
}

// release returns w units taken by acquire.
func (s *weightedSem) release(w int) {
	s.mu.Lock()
	s.avail += w
	s.mu.Unlock()
	s.cond.Broadcast()
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
