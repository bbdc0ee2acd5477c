package simulate

import (
	"slices"

	"repro/internal/comm"
	"repro/internal/kfac"
)

// PlanModel is the topology-aware plan/cost model behind kfac's auto
// planner: it prices one candidate (DistMode, GradWorkerFrac, GroupSize)
// configuration by resolving the *real* kfac.Plan over the factor list and
// walking the communication the step engines would issue under it, with
// each collective priced on the node/rack Topology. It implements
// kfac.PlanCostModel, and is a pure function of its inputs — the
// determinism contract auto-planning across ranks depends on.
type PlanModel struct {
	// Topology prices every collective.
	Topology Topology
	// BytesPerElem is the wire width of one payload element (4 models the
	// paper's FP32 fabric, 8 this repo's exact float64 wire format).
	BytesPerElem float64
	// EigFlopsPerSec is the effective symmetric-eigensolver throughput.
	EigFlopsPerSec float64
	// FactorFlopsPerSec is the GEMM throughput of the preconditioning
	// rotations.
	FactorFlopsPerSec float64
	// PerFactorOverheadSec is the fixed cost of launching one
	// eigendecomposition.
	PerFactorOverheadSec float64
	// EigWorkers is GOMAXPROCS of the modeled ranks: the worker budget the
	// kfac eig scheduler splits between inter-factor fan-out and
	// intra-factor teams. 0 preserves the pre-team model (every factor
	// priced at the flat EigFlopsPerSec), keeping old calibrations valid.
	EigWorkers int
	// BaseStepSec is the candidate-independent per-iteration compute
	// (forward+backward and bookkeeping). It shifts every candidate's total
	// equally; 0 is fine for planning, calibration sets it from a measured
	// forward/backward.
	BaseStepSec float64
	// GradBytes is the per-iteration gradient-exchange payload; the
	// candidate's hierarchical group size prices it too (the trainer routes
	// the gradient fusion buffer through the same group size). 0 skips the
	// term.
	GradBytes float64
	// FactorUpdateFreq and InvUpdateFreq amortize the factor and
	// decomposition stages the way training does (defaults 10 and 100).
	FactorUpdateFreq, InvUpdateFreq int
}

// NewPlanModel assembles a PlanModel from a topology and the calibrated
// cluster compute constants, with the paper's default update frequencies.
func NewPlanModel(topo Topology, cluster ClusterConfig) *PlanModel {
	return &PlanModel{
		Topology:             topo,
		BytesPerElem:         cluster.BytesPerElem,
		EigFlopsPerSec:       cluster.EigFlopsPerSec,
		FactorFlopsPerSec:    cluster.FactorFlopsPerSec,
		PerFactorOverheadSec: cluster.PerFactorOverheadSec,
		FactorUpdateFreq:     10,
		InvUpdateFreq:        100,
	}
}

// freqs returns the amortization intervals with defaults applied.
func (pm *PlanModel) freqs() (fac, inv float64) {
	fac, inv = float64(pm.FactorUpdateFreq), float64(pm.InvUpdateFreq)
	if fac < 1 {
		fac = 10
	}
	if inv < 1 {
		inv = 100
	}
	return fac, inv
}

const (
	// decompBytesPerElem is the resident width of one decomposition
	// element: the live engines hold decompositions in float64 on every
	// compute path, and ctl.Admit charges the same 8 bytes.
	decompBytesPerElem = 8
	// eigTeamEff is the marginal efficiency of each additional team worker
	// in the blocked solver's speedup model.
	eigTeamEff = 0.7
)

// eigTeamSpeedup models the blocked solver's scaling with team size t:
// 1 + eigTeamEff·(t−1), a fixed-marginal-efficiency line.
func eigTeamSpeedup(t int) float64 {
	if t <= 1 {
		return 1
	}
	return 1 + eigTeamEff*float64(t-1)
}

// PlanEval is one candidate's full predicted breakdown — what kfac-sim's
// predicted-vs-chosen table prints and CandidateCost condenses.
type PlanEval struct {
	// Candidate identifies the configuration.
	Candidate kfac.PlanCandidate
	// World is the rank count evaluated.
	World int
	// StepSec is the amortized per-iteration total.
	StepSec float64
	// GradAllreduceSec is the per-iteration gradient exchange.
	GradAllreduceSec float64
	// PrecondSec is the slowest rank's per-iteration preconditioning GEMMs.
	PrecondSec float64
	// ResultBcastSec sums the per-iteration preconditioned-gradient
	// broadcasts of a partially replicated plan, one per root.
	ResultBcastSec float64
	// FactorCommSec is the amortized factor allreduce.
	FactorCommSec float64
	// EigSecPerRank is each rank's eigendecomposition time for one
	// decomposition update (not amortized): the per-worker loads whose
	// spread Table VI reports.
	EigSecPerRank []float64
	// EigComputeSec is the amortized slowest-worker eigendecomposition
	// time.
	EigComputeSec float64
	// EigCommSec is the amortized decomposition distribution.
	EigCommSec float64
	// MemBytesPerRank is each rank's resident decomposition footprint
	// under the candidate's plan.
	MemBytesPerRank []int64
	// MaxMemBytes is the worst rank's footprint — what the planner's
	// memory budget gates on.
	MaxMemBytes int64
}

// memStats returns min/median/max of a per-rank byte list.
func memStats(b []int64) (min, median, max int64) {
	if len(b) == 0 {
		return 0, 0, 0
	}
	sorted := slices.Clone(b)
	slices.Sort(sorted)
	return sorted[0], sorted[len(sorted)/2], sorted[len(sorted)-1]
}

// MemStats returns the eval's min/median/max per-rank footprint.
func (e *PlanEval) MemStats() (min, median, max int64) { return memStats(e.MemBytesPerRank) }

// Evaluate prices one candidate configuration at the given world size: it
// builds the real plan, prices every collective the engines would issue on
// the topology, and totals the amortized per-iteration cost alongside the
// exact per-rank memory footprint.
func (pm *PlanModel) Evaluate(strategy kfac.Strategy, refs []kfac.FactorRef, world int, cand kfac.PlanCandidate) PlanEval {
	if world < 1 {
		world = 1
	}
	facFreq, invFreq := pm.freqs()
	plan := kfac.BuildPlan(strategy, cand.Mode, cand.GradWorkerFrac, refs, world)
	ev := PlanEval{Candidate: cand, World: world}

	// Per-rank resident decomposition memory: the budget side.
	elems := plan.DecompElemsPerRank(refs)
	ev.MemBytesPerRank = make([]int64, len(elems))
	for r, e := range elems {
		ev.MemBytesPerRank[r] = e * decompBytesPerElem
		if ev.MemBytesPerRank[r] > ev.MaxMemBytes {
			ev.MaxMemBytes = ev.MemBytesPerRank[r]
		}
	}

	// Factor allreduce: running averages of every factor matrix, fused as
	// packed upper triangles, through the candidate's hierarchical group
	// size.
	var factorElems float64
	for _, f := range refs {
		factorElems += float64(comm.SymPackedLen(f.Dim))
	}
	ev.FactorCommSec = pm.Topology.HierarchicalAllreduceCost(
		factorElems*pm.BytesPerElem, world, cand.GroupSize) / facFreq

	// Eigendecomposition stage: compute on the plan's owners (slowest
	// worker bounds it), each factor's cost shrunk by the modeled speedup of
	// the team the kfac eig scheduler grants it (Plan.EigTeams; every team
	// is 1 when EigWorkers is 0) — the MEM-OPT one-big-factor-per-rank case
	// is exactly where this diverges from the flat-throughput model — plus
	// one launch overhead per factor. Distribution is per-factor broadcasts
	// from the owner to the factor's recipient set.
	teams := plan.EigTeams(refs, pm.EigWorkers)
	flops := make([]float64, world)
	counts := make([]int, world)
	for i, f := range refs {
		flops[plan.Owners[i]] += f.Cost() / eigTeamSpeedup(teams[i])
		counts[plan.Owners[i]]++
	}
	ev.EigSecPerRank = make([]float64, world)
	for r := range flops {
		ev.EigSecPerRank[r] = flops[r]/pm.EigFlopsPerSec + float64(counts[r])*pm.PerFactorOverheadSec
	}
	ev.EigComputeSec = slices.Max(ev.EigSecPerRank) / invFreq
	var eigComm float64
	for i, f := range refs {
		recips := plan.Recipients(i/2, f.IsG)
		if len(recips) <= 1 {
			continue
		}
		bytes := (float64(f.Dim)*float64(f.Dim) + float64(f.Dim)) * pm.BytesPerElem
		eigComm += pm.Topology.BroadcastCost(bytes, recips[0], recips[len(recips)-1], len(recips))
	}
	ev.EigCommSec = eigComm / invFreq

	// Per-iteration preconditioning: each gradient worker preconditions the
	// layers it serves; the slowest rank bounds the stage. The results reach
	// the ranks outside the gradient-worker set as the plan's result
	// buckets, one broadcast each.
	perRank := make([]float64, world)
	for i, lp := range plan.Layers {
		da, dg := float64(refs[2*i].Dim), float64(refs[2*i+1].Dim)
		for _, r := range lp.GradWorkers {
			perRank[r] += 2 * 2 * (da*da*dg + da*dg*dg)
		}
	}
	for _, layers := range plan.ResultBuckets() {
		var bytes float64
		for _, i := range layers {
			bytes += float64(refs[2*i].Dim) * float64(refs[2*i+1].Dim) * pm.BytesPerElem
		}
		m := plan.Layers[layers[0]].BcastMembers
		ev.ResultBcastSec += pm.Topology.BroadcastCost(bytes, m[0], m[len(m)-1], len(m))
	}
	ev.PrecondSec = slices.Max(perRank) / pm.FactorFlopsPerSec

	if pm.GradBytes > 0 {
		ev.GradAllreduceSec = pm.Topology.HierarchicalAllreduceCost(pm.GradBytes, world, cand.GroupSize)
	}

	ev.StepSec = pm.BaseStepSec + ev.GradAllreduceSec + ev.PrecondSec + ev.ResultBcastSec +
		ev.FactorCommSec + ev.EigComputeSec + ev.EigCommSec
	return ev
}

// CandidateCost implements kfac.PlanCostModel.
func (pm *PlanModel) CandidateCost(strategy kfac.Strategy, refs []kfac.FactorRef, world int, cand kfac.PlanCandidate) (float64, int64) {
	ev := pm.Evaluate(strategy, refs, world, cand)
	return ev.StepSec, ev.MaxMemBytes
}

var _ kfac.PlanCostModel = (*PlanModel)(nil)
