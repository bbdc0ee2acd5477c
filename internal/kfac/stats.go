package kfac

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/linalg"
)

// StageStats accumulates wall-clock time per K-FAC stage of the *real*
// implementation — the measured analogue of the paper's Table V profile
// (factor computation vs communication, eigendecomposition vs
// communication) plus the per-iteration preconditioning cost. Each of the
// four update-stage columns is, per update, the span from that stage's
// first unit of work starting to its last finishing (update.go,
// stageWindow), under both engines.
type StageStats struct {
	mu sync.Mutex

	FactorCompute time.Duration
	FactorComm    time.Duration
	EigCompute    time.Duration
	EigComm       time.Duration
	Precondition  time.Duration

	// Per-kernel decomposition time of the blocked eigensolver, summed
	// across factors (zero for small factors on the serial fallback).
	// EigCompute is the decomposition stage's wall-clock window; these are
	// summed task time, so their total can exceed EigCompute when factors
	// decompose concurrently.
	EigTridiag   time.Duration
	EigBackAccum time.Duration
	EigQL        time.Duration

	FactorUpdates int
	EigUpdates    int
	Steps         int

	// Pipelined-engine metrics (zero under EngineSync, whose stages cannot
	// overlap). PipelineWall is the wall-clock spent inside updates;
	// PipelineWork is the sum of the four stage windows folded into the
	// columns above; PipelineIdle is the time the collective issuer spent
	// starved, blocked on upstream per-layer events. Work in excess of
	// wall is time the stages overlapped — see Overlap.
	PipelineWall    time.Duration
	PipelineWork    time.Duration
	PipelineIdle    time.Duration
	PipelineUpdates int

	// PeakFactorBytes is the high-water mark of this rank's resident K-FAC
	// factor state (running averages, workspaces, and the decompositions
	// the distribution plan placed here), in bytes — the per-rank memory
	// side of the MEM-OPT/COMM-OPT tradeoff, recorded at every plan build
	// and factor/decomposition update.
	PeakFactorBytes int64

	// TuneDecisions records every autotune consensus decision in step
	// order (empty when Options.Autotune is nil). Every field of every entry
	// is a consensus output or a pure function of one, so the slice must
	// be deep-equal across ranks — the determinism suite asserts exactly
	// that.
	TuneDecisions []TuneDecision

	// EigTeams records the eig scheduler's intra-factor team decision for
	// every factor under the active plan, in FactorRefs order (layer-major,
	// A before G); rewritten at every plan build. A pure function of
	// (plan, GOMAXPROCS), identical across same-shaped ranks.
	EigTeams []EigTeamAssign
}

// EigTeamAssign is one factor's decomposition team decision.
type EigTeamAssign struct {
	// Layer indexes the preconditioned layer; IsG selects the G factor.
	Layer int
	IsG   bool
	// Dim is the factor dimension; Team the assigned worker-team size.
	Dim  int
	Team int
}

// recordEigTeams replaces the team table (called at every plan build).
func (s *StageStats) recordEigTeams(teams []EigTeamAssign) {
	s.mu.Lock()
	s.EigTeams = teams
	s.mu.Unlock()
}

// addEigKernels folds one blocked decomposition's per-kernel times in.
func (s *StageStats) addEigKernels(tm *linalg.EigKernelTimes) {
	s.mu.Lock()
	s.EigTridiag += time.Duration(tm.TridiagNS)
	s.EigBackAccum += time.Duration(tm.BackAccumNS)
	s.EigQL += time.Duration(tm.QLNS)
	s.mu.Unlock()
}

// recordTune appends one autotune decision.
func (s *StageStats) recordTune(d TuneDecision) {
	s.mu.Lock()
	s.TuneDecisions = append(s.TuneDecisions, d)
	s.mu.Unlock()
}

// noteFactorMem raises the PeakFactorBytes high-water mark.
func (s *StageStats) noteFactorMem(cur int64) {
	s.mu.Lock()
	if cur > s.PeakFactorBytes {
		s.PeakFactorBytes = cur
	}
	s.mu.Unlock()
}

func (s *StageStats) add(dst *time.Duration, d time.Duration) {
	s.mu.Lock()
	*dst += d
	s.mu.Unlock()
}

// Snapshot returns a copy safe for concurrent readers.
func (s *StageStats) Snapshot() StageStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return StageStats{
		FactorCompute:   s.FactorCompute,
		FactorComm:      s.FactorComm,
		EigCompute:      s.EigCompute,
		EigComm:         s.EigComm,
		Precondition:    s.Precondition,
		EigTridiag:      s.EigTridiag,
		EigBackAccum:    s.EigBackAccum,
		EigQL:           s.EigQL,
		FactorUpdates:   s.FactorUpdates,
		EigUpdates:      s.EigUpdates,
		Steps:           s.Steps,
		PipelineWall:    s.PipelineWall,
		PipelineWork:    s.PipelineWork,
		PipelineIdle:    s.PipelineIdle,
		PipelineUpdates: s.PipelineUpdates,
		PeakFactorBytes: s.PeakFactorBytes,
		TuneDecisions:   append([]TuneDecision(nil), s.TuneDecisions...),
		EigTeams:        append([]EigTeamAssign(nil), s.EigTeams...),
	}
}

// overlapOf computes the overlap metric from already-snapshotted values.
func overlapOf(work, wall time.Duration) time.Duration {
	if d := work - wall; d > 0 {
		return d
	}
	return 0
}

// Overlap is the time the pipelined engine's update stages ran
// concurrently: the sum of the stage windows minus the wall-clock the
// updates actually took. Zero for the synchronous engine, whose stage
// windows tile the update by construction.
func (s *StageStats) Overlap() time.Duration {
	snap := s.Snapshot()
	return overlapOf(snap.PipelineWork, snap.PipelineWall)
}

// PerFactorUpdate returns mean (compute, comm) time per factor update.
func (s *StageStats) PerFactorUpdate() (comp, comm time.Duration) {
	snap := s.Snapshot()
	if snap.FactorUpdates == 0 {
		return 0, 0
	}
	n := time.Duration(snap.FactorUpdates)
	return snap.FactorCompute / n, snap.FactorComm / n
}

// PerEigUpdate returns mean (compute, comm) time per decomposition update.
func (s *StageStats) PerEigUpdate() (comp, comm time.Duration) {
	snap := s.Snapshot()
	if snap.EigUpdates == 0 {
		return 0, 0
	}
	n := time.Duration(snap.EigUpdates)
	return snap.EigCompute / n, snap.EigComm / n
}

// String renders the profile in the Table V layout.
func (s *StageStats) String() string {
	fc, fm := s.PerFactorUpdate()
	ec, em := s.PerEigUpdate()
	snap := s.Snapshot()
	perStep := time.Duration(0)
	if snap.Steps > 0 {
		perStep = snap.Precondition / time.Duration(snap.Steps)
	}
	out := fmt.Sprintf(
		"kfac profile: factor Tcomp=%v Tcomm=%v (×%d) | eig Tcomp=%v Tcomm=%v (×%d) | precond/step=%v (×%d)",
		fc.Round(time.Microsecond), fm.Round(time.Microsecond), snap.FactorUpdates,
		ec.Round(time.Microsecond), em.Round(time.Microsecond), snap.EigUpdates,
		perStep.Round(time.Microsecond), snap.Steps)
	if snap.EigTridiag+snap.EigBackAccum+snap.EigQL > 0 {
		out += fmt.Sprintf(" | eig kernels tridiag=%v backaccum=%v ql=%v",
			snap.EigTridiag.Round(time.Microsecond), snap.EigBackAccum.Round(time.Microsecond),
			snap.EigQL.Round(time.Microsecond))
	}
	if snap.PipelineUpdates > 0 {
		// Reuse the snapshot so the line is self-consistent even when
		// sampled mid-step.
		out += fmt.Sprintf(" | pipeline wall=%v work=%v idle=%v overlap=%v (×%d)",
			snap.PipelineWall.Round(time.Microsecond), snap.PipelineWork.Round(time.Microsecond),
			snap.PipelineIdle.Round(time.Microsecond),
			overlapOf(snap.PipelineWork, snap.PipelineWall).Round(time.Microsecond),
			snap.PipelineUpdates)
	}
	return out
}

// Stats returns the preconditioner's accumulated stage profile.
func (p *Preconditioner) Stats() *StageStats { return &p.stats }
