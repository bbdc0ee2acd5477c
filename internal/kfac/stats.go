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
	// Precondition is the wall time Step spends in the precondition stage:
	// the layers it runs itself, the wait for the early runner, adopting
	// its results, and the KL clip and write-back. At world 1, on a step
	// that keeps its eigenbases, the backward starts most layers early
	// (early.go), so this is what the stage still costs the step, not the
	// stage's work; the early part is PreconditionEarly.
	Precondition time.Duration
	// PreconditionEarly is the summed task time of the early runner's
	// batches, which run beside the backward on the shared pool; zero at
	// world > 1, where nothing starts early. The two overlap: the time
	// Step waits for the runner's last batch is in both.
	PreconditionEarly time.Duration

	// Per-kernel decomposition time of the blocked eigensolver, summed
	// across factors (zero for small factors on the serial fallback):
	// EigTridiag the tridiagonalization, EigQL the divide and conquer of
	// the tridiagonal, EigBackAccum the reflectors' application to its
	// eigenvectors (the names predate the last two kernels; see
	// linalg.EigKernelTimes). EigCompute is the decomposition stage's
	// wall-clock window; these are summed task time, so their total can
	// exceed EigCompute when factors decompose concurrently.
	EigTridiag   time.Duration
	EigBackAccum time.Duration
	EigQL        time.Duration

	FactorUpdates int
	EigUpdates    int
	Steps         int

	// The refresh tier of every factor this rank eigendecomposed (see
	// maxBasisAge): FullSolves ran the blocked eigensolver — the only tier
	// the per-kernel times above cover — and PowerRefreshes took one step
	// of orthogonal iteration from the previous basis (linalg.SymEigPowerInto).
	// Together they count this rank's
	// owned factors over every decomposition update.
	FullSolves     int
	PowerRefreshes int

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
}

// addEigKernels folds one blocked decomposition's per-kernel times in.
func (s *StageStats) addEigKernels(tm *linalg.EigKernelTimes) {
	s.mu.Lock()
	s.EigTridiag += time.Duration(tm.TridiagNS)
	s.EigBackAccum += time.Duration(tm.BackAccumNS)
	s.EigQL += time.Duration(tm.QLNS)
	s.mu.Unlock()
}

// count adds one to a counter field of s.
func (s *StageStats) count(dst *int) {
	s.mu.Lock()
	*dst++
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
		FactorCompute:     s.FactorCompute,
		FactorComm:        s.FactorComm,
		EigCompute:        s.EigCompute,
		EigComm:           s.EigComm,
		Precondition:      s.Precondition,
		PreconditionEarly: s.PreconditionEarly,
		EigTridiag:        s.EigTridiag,
		EigBackAccum:      s.EigBackAccum,
		EigQL:             s.EigQL,
		FactorUpdates:     s.FactorUpdates,
		EigUpdates:        s.EigUpdates,
		Steps:             s.Steps,
		FullSolves:        s.FullSolves,
		PowerRefreshes:    s.PowerRefreshes,
		PipelineWall:      s.PipelineWall,
		PipelineWork:      s.PipelineWork,
		PipelineIdle:      s.PipelineIdle,
		PipelineUpdates:   s.PipelineUpdates,
		PeakFactorBytes:   s.PeakFactorBytes,
		TuneDecisions:     append([]TuneDecision(nil), s.TuneDecisions...),
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
	if snap.PreconditionEarly > 0 && snap.Steps > 0 {
		out += fmt.Sprintf(" | early precond/step=%v",
			(snap.PreconditionEarly / time.Duration(snap.Steps)).Round(time.Microsecond))
	}
	if snap.PowerRefreshes > 0 {
		out += fmt.Sprintf(" | refreshes full=%d power=%d", snap.FullSolves, snap.PowerRefreshes)
	}
	if snap.EigTridiag+snap.EigBackAccum+snap.EigQL > 0 {
		out += fmt.Sprintf(" | eig kernels tridiag=%v dc=%v reflectors=%v",
			snap.EigTridiag.Round(time.Microsecond), snap.EigQL.Round(time.Microsecond),
			snap.EigBackAccum.Round(time.Microsecond))
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
