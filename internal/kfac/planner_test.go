package kfac

import (
	"reflect"
	"testing"
	"testing/quick"
)

// stubPlanModel is a deterministic pure-function cost model for planner
// property tests: memory is the real plan's worst-rank decomposition
// footprint at 8 bytes/elem (exactly what simulate.PlanModel reports), cost
// is an arbitrary but stable arithmetic mix of the inputs so ordering is
// nontrivial across the grid.
type stubPlanModel struct{}

func (stubPlanModel) CandidateCost(strategy Strategy, refs []FactorRef, world int, cand PlanCandidate) (float64, int64) {
	plan := BuildPlan(strategy, cand.Mode, cand.GradWorkerFrac, refs, world)
	var maxMem int64
	for _, e := range plan.DecompElemsPerRank(refs) {
		if e*8 > maxMem {
			maxMem = e * 8
		}
	}
	cost := float64(maxMem)/1e6 + float64(cand.GroupSize)*0.01 +
		cand.GradWorkerFrac*float64(world)*0.001 + float64(int(cand.Mode))*0.1
	return cost, maxMem
}

var plannerWorlds = []int{1, 2, 3, 16, 64, 100, 256, 1024}

func TestResolveAutoPlanNeverExceedsBudget(t *testing.T) {
	// Property: whatever the budget, the decision's predicted memory fits it
	// — except when OverBudget reports that no candidate could.
	f := func(layerSeed int64, worldIdx uint8, budgetMB uint16) bool {
		refs := planRefs(3+int(layerSeed%8+8)%8, layerSeed)
		world := plannerWorlds[int(worldIdx)%len(plannerWorlds)]
		cfg := AutoPlannerConfig{
			Model:             stubPlanModel{},
			MemoryBudgetBytes: int64(budgetMB) * 1 << 20,
		}
		d := ResolveAutoPlan(cfg, RoundRobin, refs, world)
		if d.OverBudget {
			// Degraded decision must be the minimum-memory candidate.
			for _, cand := range PlanCandidates() {
				_, mem := cfg.Model.CandidateCost(RoundRobin, refs, world, cand)
				if mem < d.PredictedMemBytes {
					return false
				}
			}
			return d.Rejected == d.Candidates
		}
		return cfg.MemoryBudgetBytes == 0 || d.PredictedMemBytes <= cfg.MemoryBudgetBytes
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestResolveAutoPlanMatchesBruteForce(t *testing.T) {
	// Property: the decision is exactly the brute-force argmin over the
	// candidate grid restricted to the budget, first grid position winning
	// ties.
	f := func(layerSeed int64, worldIdx uint8, budgetMB uint16) bool {
		refs := planRefs(2+int(layerSeed%6+6)%6, layerSeed)
		world := plannerWorlds[int(worldIdx)%len(plannerWorlds)]
		cfg := AutoPlannerConfig{
			Model:             stubPlanModel{},
			MemoryBudgetBytes: int64(budgetMB) * 1 << 19,
		}
		d := ResolveAutoPlan(cfg, SizeGreedy, refs, world)
		var (
			found bool
			best  PlanCandidate
			bestC float64
		)
		for _, cand := range PlanCandidates() {
			cost, mem := cfg.Model.CandidateCost(SizeGreedy, refs, world, cand)
			if cfg.MemoryBudgetBytes > 0 && mem > cfg.MemoryBudgetBytes {
				continue
			}
			if !found || cost < bestC {
				found, best, bestC = true, cand, cost
			}
		}
		if !found {
			return d.OverBudget
		}
		return !d.OverBudget && d.PlanCandidate == best && d.PredictedStepSec == bestC
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestResolveAutoPlanDeterministicAcrossRanks(t *testing.T) {
	// SPMD contract: every rank resolves the identical decision from the
	// shared inputs, with no communication, at every world size up to 1024
	// — and repeated calls never drift.
	refs := planRefs(9, 17)
	cfg := AutoPlannerConfig{Model: stubPlanModel{}, MemoryBudgetBytes: 64 << 20}
	for _, world := range plannerWorlds {
		first := ResolveAutoPlan(cfg, RoundRobin, refs, world)
		// "Across ranks" is per-rank recomputation of the same pure function;
		// re-resolving models each rank's independent call.
		for rank := 0; rank < 5; rank++ {
			if again := ResolveAutoPlan(cfg, RoundRobin, refs, world); !reflect.DeepEqual(first, again) {
				t.Fatalf("world %d: decision differs across ranks: %+v vs %+v", world, first, again)
			}
		}
		// The plan the decision induces is itself deterministic.
		p1 := BuildPlan(RoundRobin, first.Mode, first.GradWorkerFrac, refs, world)
		p2 := BuildPlan(RoundRobin, first.Mode, first.GradWorkerFrac, refs, world)
		if !reflect.DeepEqual(p1, p2) {
			t.Fatalf("world %d: induced plan not deterministic", world)
		}
	}
}

func TestPlanCandidatesGridOrder(t *testing.T) {
	cands := PlanCandidates()
	wantLen := len(gridGroupSizes) * (len(gridFracs) + 2)
	if len(cands) != wantLen {
		t.Fatalf("default grid size %d, want %d", len(cands), wantLen)
	}
	// Fixed order per group size: CommOpt, Hybrid fracs ascending, MemOpt.
	i := 0
	for _, g := range gridGroupSizes {
		if cands[i] != (PlanCandidate{Mode: CommOpt, GroupSize: g}) {
			t.Fatalf("grid[%d] = %+v, want CommOpt g=%d", i, cands[i], g)
		}
		i++
		for _, f := range gridFracs {
			if cands[i] != (PlanCandidate{Mode: Hybrid, GradWorkerFrac: f, GroupSize: g}) {
				t.Fatalf("grid[%d] = %+v, want Hybrid f=%v g=%d", i, cands[i], f, g)
			}
			i++
		}
		if cands[i] != (PlanCandidate{Mode: MemOpt, GroupSize: g}) {
			t.Fatalf("grid[%d] = %+v, want MemOpt g=%d", i, cands[i], g)
		}
		i++
	}
}
