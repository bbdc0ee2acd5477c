package kfac

// Cost-model-driven plan selection, the offline/admission tool. The
// preconditioner's DistAuto is a two-case rule (ResolveDistMode: LayerWise
// → MemOpt, else CommOpt); at hundreds of ranks that rule is blind to the
// actual memory/communication tradeoff the paper's scaling story is about.
// ResolveAutoPlan instead enumerates candidate (DistMode, GradWorkerFrac,
// GroupSize) configurations, rejects those whose worst per-rank resident
// decomposition footprint exceeds a declared budget, and picks the cheapest
// under a PlanCostModel — for kfac-sim -plan-sweep and ctl.PlacementHint,
// which turn the pick into explicit options. The selection is a
// deterministic pure function of the BuildPlan inputs, exactly like
// BuildPlan itself (Algorithm 1, line 9). Without a model the two-case rule
// decides.

// PlanCandidate is one point of the auto-planner's configuration grid.
type PlanCandidate struct {
	// Mode is the distribution mode under evaluation (never DistAuto).
	Mode DistMode
	// GradWorkerFrac sizes Hybrid gradient-worker sets; 0 for the other
	// modes.
	GradWorkerFrac float64
	// GroupSize is the hierarchical-allreduce group size routed to the
	// factor (and gradient) collectives; 0 keeps the flat ring.
	GroupSize int
}

// PlanCostModel predicts what a candidate configuration costs. The
// canonical implementation is simulate.PlanModel, which prices the
// collectives on a node/rack Topology; anything deterministic in its
// arguments works. Implementations MUST be pure functions of their
// arguments: the decision is replicated independently on every rank.
type PlanCostModel interface {
	// CandidateCost returns the predicted amortized per-iteration cost in
	// seconds and the worst per-rank resident decomposition footprint in
	// bytes for the plan BuildPlan(strategy, cand.Mode, cand.GradWorkerFrac,
	// refs, world) driven with hierarchical group size cand.GroupSize.
	CandidateCost(strategy Strategy, refs []FactorRef, world int, cand PlanCandidate) (stepSec float64, maxMemBytes int64)
}

// AutoPlannerConfig configures cost-model-driven DistAuto resolution.
type AutoPlannerConfig struct {
	// Model prices candidates. nil disables the planner entirely: DistAuto
	// falls back to the legacy two-case rule (ResolveDistMode) and the
	// resulting plans are bit-identical to the pre-planner behavior.
	Model PlanCostModel
	// MemoryBudgetBytes is the per-worker budget for resident
	// decompositions. Candidates whose worst rank exceeds it are rejected.
	// 0 means unlimited.
	MemoryBudgetBytes int64
	// HybridFracs lists the Hybrid gradient-worker fractions to consider.
	// Empty selects DefaultHybridFracs.
	HybridFracs []float64
	// GroupSizes lists the hierarchical-allreduce group sizes to consider
	// (0 = flat ring is always considered first). Empty selects
	// DefaultGroupSizes.
	GroupSizes []int
}

// DefaultHybridFracs is the Hybrid gradient-worker-fraction grid the
// planner sweeps when the config leaves HybridFracs empty: enough points to
// trace the memory/communication interpolation without exploding the grid.
var DefaultHybridFracs = []float64{0.125, 0.25, 0.5}

// DefaultGroupSizes is the hierarchical group-size grid when the config
// leaves GroupSizes empty: the flat ring plus the common ranks-per-node
// counts of GPU clusters.
var DefaultGroupSizes = []int{0, 4, 8}

// PlanDecision records one auto-planner resolution for logs, CLI tables and
// the daemon's placement hints.
type PlanDecision struct {
	// PlanCandidate is the chosen configuration.
	PlanCandidate
	// PredictedStepSec is the model's amortized per-iteration cost of the
	// chosen candidate.
	PredictedStepSec float64
	// PredictedMemBytes is the worst per-rank resident decomposition
	// footprint of the chosen candidate.
	PredictedMemBytes int64
	// Candidates is the grid size enumerated.
	Candidates int
	// Rejected counts candidates discarded for exceeding the memory budget.
	Rejected int
	// OverBudget reports that NO candidate fit the budget; the decision is
	// then the minimum-memory candidate so training can still proceed (the
	// admission layer is where a hard rejection belongs).
	OverBudget bool
}

// PlanCandidates materializes the enumeration grid in its fixed,
// deterministic order: for each group size, CommOpt, each Hybrid fraction
// ascending, then MemOpt. Order matters — cost ties resolve to the earliest
// candidate, so it must be identical on every rank. Exported so CLI tables
// (kfac-sim -plan-sweep) can print the same grid the planner scores.
func PlanCandidates(cfg AutoPlannerConfig) []PlanCandidate {
	fracs := cfg.HybridFracs
	if len(fracs) == 0 {
		fracs = DefaultHybridFracs
	}
	sizes := cfg.GroupSizes
	if len(sizes) == 0 {
		sizes = DefaultGroupSizes
	}
	out := make([]PlanCandidate, 0, len(sizes)*(len(fracs)+2))
	for _, g := range sizes {
		out = append(out, PlanCandidate{Mode: CommOpt, GroupSize: g})
		for _, f := range fracs {
			out = append(out, PlanCandidate{Mode: Hybrid, GradWorkerFrac: f, GroupSize: g})
		}
		out = append(out, PlanCandidate{Mode: MemOpt, GroupSize: g})
	}
	return out
}

// ResolveAutoPlan runs the cost-model planner: enumerate the candidate
// grid, reject candidates over the memory budget, pick the cheapest
// (earliest grid position wins ties). A pure function of its arguments —
// identical on every rank and across repeated calls. When cfg.Model is nil
// the legacy two-case rule decides, with zero cost/memory predictions.
func ResolveAutoPlan(cfg AutoPlannerConfig, strategy Strategy, refs []FactorRef, world int) PlanDecision {
	if world < 1 {
		world = 1
	}
	if cfg.Model == nil {
		return PlanDecision{PlanCandidate: PlanCandidate{
			Mode: ResolveDistMode(DistAuto, strategy),
		}}
	}
	cands := PlanCandidates(cfg)
	d := PlanDecision{Candidates: len(cands)}
	var (
		bestSet    bool
		bestCost   float64
		bestMem    int64
		best       PlanCandidate
		minMemSet  bool
		minMem     int64
		minMemCand PlanCandidate
		minMemCost float64
	)
	for _, cand := range cands {
		cost, mem := cfg.Model.CandidateCost(strategy, refs, world, cand)
		if !minMemSet || mem < minMem {
			minMemSet, minMem, minMemCand, minMemCost = true, mem, cand, cost
		}
		if cfg.MemoryBudgetBytes > 0 && mem > cfg.MemoryBudgetBytes {
			d.Rejected++
			continue
		}
		if !bestSet || cost < bestCost {
			bestSet, bestCost, bestMem, best = true, cost, mem, cand
		}
	}
	if !bestSet {
		// Every candidate blew the budget: degrade to the minimum-memory
		// configuration rather than failing plan construction — admission
		// control (ctl.Admit) is the layer that rejects jobs outright.
		d.OverBudget = true
		d.PlanCandidate, d.PredictedStepSec, d.PredictedMemBytes = minMemCand, minMemCost, minMem
		return d
	}
	d.PlanCandidate, d.PredictedStepSec, d.PredictedMemBytes = best, bestCost, bestMem
	return d
}
