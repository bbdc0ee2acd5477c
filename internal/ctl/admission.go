package ctl

import (
	"fmt"

	"repro/internal/kfac"
	"repro/internal/simulate"
)

// Fleet declares the shared worker pool the daemon schedules over: how many
// workers exist and how much memory each one offers K-FAC's resident
// decomposition state.
type Fleet struct {
	// Workers is the total worker count; the sum of running jobs' World
	// quotas never exceeds it.
	Workers int `json:"workers"`
	// MemoryPerWorker is each worker's declared byte budget for resident
	// eigendecompositions. 0 disables the memory check (workers-only
	// admission).
	MemoryPerWorker int64 `json:"memory_per_worker,omitempty"`
}

// decompBytesPerElem is the storage width of one resident decomposition
// element. Decompositions are held in float64 even under the f32 compute
// path (only Gram products and preconditioning matmuls narrow), so
// admission always charges 8 bytes.
const decompBytesPerElem = 8

// AdmissionError reports why a job cannot fit the fleet. It is terminal:
// the job's footprint is a property of its spec, so waiting cannot cure it.
type AdmissionError struct {
	// Reason is the human-readable rejection, naming the numbers involved.
	Reason string
}

// Error returns the rejection reason.
func (e *AdmissionError) Error() string { return "ctl: admission rejected: " + e.Reason }

// Admit decides whether a validated spec can ever run on the fleet. It
// checks the worker quota (World ≤ fleet.Workers) and, when the fleet
// declares per-worker memory, models the job's exact K-FAC distribution
// plan via kfac.BuildPlan and rejects if any rank's resident decomposition
// footprint (Plan.DecompElemsPerRank × 8 bytes) exceeds the budget; a model
// whose parameters alone exceed the job's workers' budgets together is
// refused before the plan is built. Jobs without K-FAC skip the memory
// check. A nil return admits the job; a non-nil return is an
// *AdmissionError.
func Admit(spec *JobSpec, fleet Fleet) error {
	if fleet.Workers < 1 {
		return &AdmissionError{Reason: "fleet has no workers"}
	}
	if spec.World > fleet.Workers {
		return &AdmissionError{Reason: fmt.Sprintf(
			"job wants %d workers but the fleet has %d", spec.World, fleet.Workers)}
	}
	if spec.KFAC == nil || fleet.MemoryPerWorker <= 0 {
		return nil
	}
	// The plan comes from a throwaway instance of the model, so first
	// refuse, from the closed-form parameter count, a model the plan check
	// below must refuse anyway. A capturable layer with a dg×da weight
	// matrix has factors of dims da and dg, whose decompositions hold
	// da²+da+dg²+dg ≥ da·dg + 2·dg elements: its weights plus the scales
	// and shifts of the batch norm after it. Every factor resides on some
	// rank, so the ranks' footprints sum to at least 8 bytes per parameter.
	params := spec.Model.params()
	if need := decompBytesPerElem * params; need > float64(spec.World)*float64(fleet.MemoryPerWorker) {
		return &AdmissionError{Reason: fmt.Sprintf(
			"a %s model of %.4g parameters needs at least %.4g bytes of K-FAC decomposition memory "+
				"across its %d workers, which offer %d each; shrink the model",
			spec.Model.Kind, params, need, spec.World, fleet.MemoryPerWorker)}
	}
	refs, err := spec.Model.FactorRefs()
	if err != nil {
		return &AdmissionError{Reason: err.Error()}
	}
	mode, err := spec.KFAC.distMode()
	if err != nil {
		return &AdmissionError{Reason: err.Error()}
	}
	plan := kfac.BuildPlan(kfac.RoundRobin, mode, spec.KFAC.GradWorkerFrac, refs, spec.World)
	var worst int64
	var worstRank int
	for r, elems := range plan.DecompElemsPerRank(refs) {
		if b := elems * decompBytesPerElem; b > worst {
			worst, worstRank = b, r
		}
	}
	if worst > fleet.MemoryPerWorker {
		reason := fmt.Sprintf(
			"K-FAC plan (%s, world %d) needs %d bytes of decomposition memory on rank %d "+
				"but each worker offers %d",
			plan.Mode, spec.World, worst, worstRank, fleet.MemoryPerWorker)
		// The scale planner prices the full candidate grid with the same
		// memory arithmetic; when a configuration fits, name it so the
		// rejection is actionable in one spec edit.
		if hint, err := PlacementHint(spec, fleet, simulate.DefaultTopology()); err == nil && hint.FitsBudget {
			reason += fmt.Sprintf("; planner hint: dist_mode=%s", hint.DistMode)
			if hint.GradWorkerFrac > 0 {
				reason += fmt.Sprintf(" grad_worker_frac=%g", hint.GradWorkerFrac)
			}
			reason += fmt.Sprintf(" fits at %d bytes/worker", hint.PredictedMemBytes)
		} else {
			reason += "; use dist_mode memopt or hybrid, or shrink the model"
		}
		return &AdmissionError{Reason: reason}
	}
	return nil
}
