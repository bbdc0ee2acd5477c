package kfac

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

// planRefs builds a deterministic placement-order factor list.
func planRefs(layers int, seed int64) []FactorRef {
	rng := rand.New(rand.NewSource(seed))
	refs := make([]FactorRef, 0, 2*layers)
	for i := 0; i < layers; i++ {
		refs = append(refs, FactorRef{Layer: i, IsG: false, Dim: 8 + rng.Intn(120)})
		refs = append(refs, FactorRef{Layer: i, IsG: true, Dim: 8 + rng.Intn(120)})
	}
	return refs
}

func TestBuildPlanDeterministicAcrossCallsAndWorlds(t *testing.T) {
	refs := planRefs(7, 3)
	for world := 1; world <= 8; world++ {
		for _, strategy := range []Strategy{RoundRobin, LayerWise, SizeGreedy} {
			for _, mode := range []DistMode{DistAuto, CommOpt, MemOpt, Hybrid} {
				first := BuildPlan(strategy, mode, 0.5, refs, world)
				for call := 0; call < 5; call++ {
					again := BuildPlan(strategy, mode, 0.5, refs, world)
					if !reflect.DeepEqual(first, again) {
						t.Fatalf("world %d %v/%v: plan differs across repeated builds", world, strategy, mode)
					}
				}
			}
		}
	}
}

func TestBuildPlanGradWorkerSets(t *testing.T) {
	refs := planRefs(5, 9)
	const world = 8
	cases := []struct {
		mode DistMode
		frac float64
		want int
	}{
		{CommOpt, 0, 8},
		{MemOpt, 0, 1},
		{Hybrid, 0.25, 2},
		{Hybrid, 0.5, 4},
		{Hybrid, 0.01, 1}, // clamped up
		{Hybrid, 2.0, 8},  // clamped down
	}
	for _, tc := range cases {
		p := BuildPlan(RoundRobin, tc.mode, tc.frac, refs, world)
		if got := p.GradWorkersPerLayer(); got != tc.want {
			t.Errorf("%v f=%v: %d gradient workers, want %d", tc.mode, tc.frac, got, tc.want)
		}
		for i, lp := range p.Layers {
			if !containsSorted(lp.GradWorkers, lp.GOwner) {
				t.Errorf("%v layer %d: GOwner %d not a gradient worker %v", tc.mode, i, lp.GOwner, lp.GradWorkers)
			}
			if !containsSorted(lp.BcastMembers, lp.GOwner) {
				t.Errorf("%v layer %d: GOwner missing from broadcast group", tc.mode, i)
			}
			// Broadcast group = root + exactly the non-workers.
			wantLen := 1 + world - len(lp.GradWorkers)
			if len(lp.BcastMembers) != wantLen {
				t.Errorf("%v layer %d: broadcast group size %d, want %d", tc.mode, i, len(lp.BcastMembers), wantLen)
			}
			for _, r := range lp.GradWorkers {
				if r < 0 || r >= world {
					t.Errorf("%v layer %d: worker %d outside world", tc.mode, i, r)
				}
				if r != lp.GOwner && containsSorted(lp.BcastMembers, r) {
					t.Errorf("%v layer %d: non-root gradient worker %d inside broadcast group", tc.mode, i, r)
				}
			}
		}
		if (p.GradWorkersPerLayer() == world) != p.FullyReplicated() {
			t.Errorf("%v: FullyReplicated inconsistent", tc.mode)
		}
	}
}

func TestResolveDistModeAuto(t *testing.T) {
	if got := ResolveDistMode(DistAuto, LayerWise); got != MemOpt {
		t.Errorf("auto+LayerWise = %v, want MemOpt", got)
	}
	if got := ResolveDistMode(DistAuto, RoundRobin); got != CommOpt {
		t.Errorf("auto+RoundRobin = %v, want CommOpt", got)
	}
	if got := ResolveDistMode(MemOpt, RoundRobin); got != MemOpt {
		t.Errorf("explicit mode was overridden: %v", got)
	}
}

func TestBuildPlanDistAutoIsResolvedMode(t *testing.T) {
	// DistAuto is exactly the strategy's resolved mode: the plans are
	// bit-identical.
	refs := planRefs(6, 5)
	for _, strategy := range []Strategy{RoundRobin, LayerWise, SizeGreedy} {
		for _, world := range []int{1, 4, 64, 1024} {
			auto := BuildPlan(strategy, DistAuto, 0, refs, world)
			resolved := BuildPlan(strategy, ResolveDistMode(DistAuto, strategy), 0, refs, world)
			if !reflect.DeepEqual(auto, resolved) {
				t.Fatalf("%v w=%d: DistAuto plan differs from the resolved mode's", strategy, world)
			}
		}
	}
}

func TestDistModeString(t *testing.T) {
	seen := map[string]bool{}
	for _, m := range []DistMode{DistAuto, CommOpt, MemOpt, Hybrid, DistMode(42)} {
		s := m.String()
		if s == "" || seen[s] {
			t.Errorf("mode %d: empty or duplicate name %q", m, s)
		}
		seen[s] = true
	}
}

func TestPlanRecipientsAndMemoryModel(t *testing.T) {
	refs := planRefs(6, 21)
	const world = 4
	comm := BuildPlan(RoundRobin, CommOpt, 0, refs, world)
	mem := BuildPlan(RoundRobin, MemOpt, 0, refs, world)

	commElems := comm.DecompElemsPerRank(refs)
	memElems := mem.DecompElemsPerRank(refs)
	// COMM-OPT replicates everything: all ranks identical, and the per-rank
	// footprint equals the full decomposition set.
	var total int64
	for _, f := range refs {
		total += int64(f.Dim)*int64(f.Dim) + int64(f.Dim)
	}
	for r := 0; r < world; r++ {
		if commElems[r] != total {
			t.Errorf("COMM-OPT rank %d holds %d elems, want full set %d", r, commElems[r], total)
		}
		if memElems[r] > commElems[r] {
			t.Errorf("MEM-OPT rank %d holds more than COMM-OPT: %d > %d", r, memElems[r], commElems[r])
		}
	}
	// MEM-OPT must strictly reduce the per-rank footprint at world > 1.
	var memMax int64
	for _, v := range memElems {
		if v > memMax {
			memMax = v
		}
	}
	if memMax >= total {
		t.Errorf("MEM-OPT peak %d did not shrink below full replication %d", memMax, total)
	}
	// Recipients: owner always included, and under MemOpt nothing beyond
	// owner + the single gradient worker.
	for i := range mem.Layers {
		aRec := mem.Recipients(i, false)
		if !containsSorted(aRec, mem.Layers[i].AOwner) {
			t.Errorf("layer %d: A owner missing from recipients %v", i, aRec)
		}
		if len(aRec) > 2 {
			t.Errorf("layer %d: MEM-OPT A recipients %v exceed owner+worker", i, aRec)
		}
	}
}

// TestSizeGreedyLoadBalanceProperty is the placement property gate: for
// randomized factor-size distributions with bounded cost spread and enough
// factors per worker, longest-processing-time-first keeps the busiest
// owner within 2× of the idlest. (LPT guarantees max − min ≤ max item
// cost; the dimension range [64,128] bounds that cost at 8× the smallest
// item, and ≥12 factors per worker keeps the mean well above it.)
func TestSizeGreedyLoadBalanceProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		workers := 2 + rng.Intn(7) // 2..8
		nf := 12 * workers
		refs := make([]FactorRef, nf)
		for i := range refs {
			refs[i] = FactorRef{Layer: i / 2, IsG: i%2 == 1, Dim: 64 + rng.Intn(65)}
		}
		assign := Assign(SizeGreedy, refs, workers)
		minL, maxL, _ := LoadStats(WorkerLoads(refs, assign, workers))
		if minL <= 0 {
			t.Logf("seed %d: idle worker under SizeGreedy (workers=%d)", seed, workers)
			return false
		}
		if maxL > 2*minL {
			t.Logf("seed %d: max/min = %.3f (workers=%d)", seed, maxL/minL, workers)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
