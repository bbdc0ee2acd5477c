package ctl

import (
	"fmt"

	"repro/internal/kfac"
	"repro/internal/simulate"
)

// Placement is the admission layer's topology-aware placement hint: the
// scale planner's pick for a job's distribution configuration, priced on a
// cluster topology against the fleet's per-worker memory budget. It is
// advisory — admission still judges the spec the operator submitted — but
// a rejected job's error carries the hint so the fix is one spec edit away.
type Placement struct {
	// DistMode is the suggested dist_mode (commopt, memopt or hybrid on the
	// wire).
	DistMode kfac.DistMode `json:"dist_mode"`
	// GradWorkerFrac is the suggested hybrid fraction (0 outside hybrid).
	GradWorkerFrac float64 `json:"grad_worker_frac,omitempty"`
	// GroupSize is the suggested hierarchical-allreduce group size (0 =
	// flat ring).
	GroupSize int `json:"group_size,omitempty"`
	// PredictedStepSec is the model's amortized per-iteration cost.
	PredictedStepSec float64 `json:"predicted_step_sec"`
	// PredictedMemBytes is the worst per-rank resident decomposition
	// footprint — the same arithmetic Admit charges (elements × 8 bytes).
	PredictedMemBytes int64 `json:"predicted_mem_bytes"`
	// FitsBudget reports whether the pick respects the fleet's per-worker
	// memory budget; false means even the minimum-memory configuration
	// exceeds it and the job can never fit.
	FitsBudget bool `json:"fits_budget"`
}

// PlacementHint runs the scale planner over a K-FAC job's exact factor
// geometry: candidates (DistMode × GradWorkerFrac × GroupSize) are priced
// on topo with the fleet's MemoryPerWorker as the budget, and the cheapest
// fitting configuration is returned. The memory side uses the identical
// plan arithmetic Admit enforces, so a hint with FitsBudget=true is
// guaranteed to pass admission. Jobs without K-FAC have no plan to hint.
func PlacementHint(spec *JobSpec, fleet Fleet, topo simulate.Topology) (*Placement, error) {
	if spec.KFAC == nil {
		return nil, fmt.Errorf("ctl: placement hints apply only to K-FAC jobs")
	}
	refs, err := spec.Model.FactorRefs()
	if err != nil {
		return nil, err
	}
	model := simulate.NewPlanModel(topo, simulate.DefaultV100Cluster())
	dec := kfac.ResolveAutoPlan(kfac.AutoPlannerConfig{
		Model:             model,
		MemoryBudgetBytes: fleet.MemoryPerWorker,
	}, kfac.RoundRobin, refs, spec.World)
	return &Placement{
		DistMode:          dec.Mode,
		GradWorkerFrac:    dec.GradWorkerFrac,
		GroupSize:         dec.GroupSize,
		PredictedStepSec:  dec.PredictedStepSec,
		PredictedMemBytes: dec.PredictedMemBytes,
		FitsBudget:        !dec.OverBudget,
	}, nil
}
