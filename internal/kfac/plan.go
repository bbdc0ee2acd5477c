package kfac

import (
	"fmt"
	"math"
	"slices"
	"sort"
)

// DistMode selects where a resolved distribution plan places the
// per-iteration preconditioning work — the memory/communication tradeoff
// the paper leaves as future work and its KAISA lineage later formalized
// as MEM-OPT vs COMM-OPT.
type DistMode int

const (
	// DistAuto derives the mode from the placement strategy, reproducing
	// the pre-plan behavior exactly: LayerWise implies MemOpt (owners
	// precondition and broadcast every iteration), every other strategy
	// implies CommOpt (eigenbases are replicated, preconditioning is
	// local). This is the default.
	DistAuto DistMode = iota
	// CommOpt replicates every factor's eigenbasis to all ranks after each
	// decomposition update, so the per-iteration preconditioning runs
	// locally with zero communication — maximal memory, minimal traffic.
	CommOpt
	// MemOpt keeps each factor's eigenbasis on its owner (plus the layer's
	// single gradient worker when ownership is split); the gradient worker
	// computes the preconditioned gradient and the result is distributed to
	// the other ranks every iteration — minimal memory, per-iteration
	// traffic.
	MemOpt
	// Hybrid interpolates: each layer's gradient-worker set holds the
	// eigenbases and preconditions redundantly, sized by
	// Options.GradWorkerFrac. Larger sets spend memory to shrink the
	// per-iteration result broadcast.
	Hybrid
)

// String names the mode as the KAISA lineage does.
func (m DistMode) String() string {
	switch m {
	case DistAuto:
		return "auto"
	case CommOpt:
		return "COMM-OPT"
	case MemOpt:
		return "MEM-OPT"
	case Hybrid:
		return "HYBRID"
	}
	return "unknown"
}

// LayerPlan is one layer's slot of a resolved Plan.
type LayerPlan struct {
	// AOwner and GOwner are the ranks that eigendecompose (or invert) the
	// layer's A and G factors.
	AOwner, GOwner int
	// GradWorkers is the sorted set of ranks that hold both eigenbases and
	// compute the layer's preconditioned gradient. It always contains
	// GOwner (the designated root of the per-iteration result broadcast).
	GradWorkers []int
	// BcastMembers is the sorted per-iteration broadcast group: GOwner plus
	// every rank outside GradWorkers — the ranks that still need the
	// preconditioned gradient. len(BcastMembers) == 1 means no per-
	// iteration communication for this layer.
	BcastMembers []int
}

// Plan is a resolved distribution assignment: for every Kronecker factor an
// owner rank, and for every layer a gradient-worker set, built once per
// (strategy, mode, world) from the strategy's Assign and consumed uniformly
// by every update stage. Every rank builds the identical Plan from shared
// state, so no communication is needed to agree on it (Algorithm 1,
// line 9); elastic recovery re-plans by rebuilding it for the new world.
type Plan struct {
	// Strategy is the placement policy the owners came from.
	Strategy Strategy
	// Mode is the resolved distribution mode (never DistAuto).
	Mode DistMode
	// GradWorkerFrac is the resolved fraction of the world serving as
	// gradient workers per layer (1 under CommOpt, 1/World under MemOpt).
	GradWorkerFrac float64
	// World is the rank count the plan was built for.
	World int
	// Owners is the per-factor owner in placement order (A₀, G₀, A₁, …).
	Owners []int
	// Layers holds the per-layer views.
	Layers []LayerPlan
}

// gradWorkerCount resolves the per-layer gradient-worker set size.
func gradWorkerCount(mode DistMode, frac float64, world int) int {
	switch mode {
	case MemOpt:
		return 1
	case Hybrid:
		// ⌈f·world⌉, as Options.GradWorkerFrac documents: at least the
		// requested fraction of the world serves as gradient workers.
		n := int(math.Ceil(frac * float64(world)))
		if n < 1 {
			n = 1
		}
		if n > world {
			n = world
		}
		return n
	default: // CommOpt
		return world
	}
}

// ResolveDistMode maps DistAuto onto the strategy's implied mode and
// returns every explicit mode unchanged.
func ResolveDistMode(mode DistMode, strategy Strategy) DistMode {
	if mode != DistAuto {
		return mode
	}
	if strategy == LayerWise {
		return MemOpt
	}
	return CommOpt
}

// BuildPlan resolves a distribution plan: owners from Assign under the
// strategy, gradient-worker sets from the mode (frac is consulted
// only under Hybrid). refs must be in placement order (FactorRefs). The
// result is a deterministic pure function of the arguments — identical on
// every rank, and across repeated calls.
func BuildPlan(strategy Strategy, mode DistMode, frac float64, refs []FactorRef, world int) *Plan {
	if world < 1 {
		world = 1
	}
	mode = ResolveDistMode(mode, strategy)
	owners := Assign(strategy, refs, world)
	count := gradWorkerCount(mode, frac, world)
	nLayers := len(refs) / 2
	p := &Plan{
		Strategy:       strategy,
		Mode:           mode,
		GradWorkerFrac: float64(count) / float64(world),
		World:          world,
		Owners:         owners,
		Layers:         make([]LayerPlan, nLayers),
	}
	for i := 0; i < nLayers; i++ {
		lp := &p.Layers[i]
		lp.AOwner = owners[2*i]
		lp.GOwner = owners[2*i+1]
		lp.GradWorkers = make([]int, count)
		for k := 0; k < count; k++ {
			lp.GradWorkers[k] = (lp.GOwner + k) % world
		}
		sort.Ints(lp.GradWorkers)
		lp.BcastMembers = append(lp.BcastMembers, lp.GOwner)
		for r := 0; r < world; r++ {
			if !containsSorted(lp.GradWorkers, r) {
				lp.BcastMembers = append(lp.BcastMembers, r)
			}
		}
		sort.Ints(lp.BcastMembers)
	}
	return p
}

// containsSorted reports membership in a sorted int slice.
func containsSorted(s []int, v int) bool {
	i := sort.SearchInts(s, v)
	return i < len(s) && s[i] == v
}

// NumLayers returns the number of planned layers.
func (p *Plan) NumLayers() int { return len(p.Layers) }

// GradWorkersPerLayer returns the resolved gradient-worker set size.
func (p *Plan) GradWorkersPerLayer() int {
	if len(p.Layers) == 0 {
		return p.World
	}
	return len(p.Layers[0].GradWorkers)
}

// FullyReplicated reports whether every rank is a gradient worker for every
// layer — the COMM-OPT regime in which eigenbases are shared with everyone
// and the per-iteration step needs no communication.
func (p *Plan) FullyReplicated() bool { return p.GradWorkersPerLayer() == p.World }

// GradRoot returns the designated root of layer i's per-iteration result
// broadcast (its G-factor owner, always a gradient worker).
func (p *Plan) GradRoot(i int) int { return p.Layers[i].GOwner }

// IsGradWorker reports whether rank preconditions layer i's gradient.
func (p *Plan) IsGradWorker(i, rank int) bool {
	return containsSorted(p.Layers[i].GradWorkers, rank)
}

// Recipients returns the sorted rank set that must hold the given factor's
// decomposition: the layer's gradient workers plus the factor's owner.
func (p *Plan) Recipients(layer int, isG bool) []int {
	lp := &p.Layers[layer]
	owner := lp.AOwner
	if isG {
		owner = lp.GOwner
	}
	if containsSorted(lp.GradWorkers, owner) {
		return lp.GradWorkers
	}
	out := make([]int, 0, len(lp.GradWorkers)+1)
	out = append(out, lp.GradWorkers...)
	out = append(out, owner)
	sort.Ints(out)
	return out
}

// ResultBuckets groups the layers whose preconditioned gradients travel
// every iteration — those with a broadcast member beyond the root — into
// one broadcast per (GradRoot, BcastMembers) pair, in first-layer order.
// Each bucket lists its layers ascending; its root and members are those of
// any of its layers. Nil for a fully replicated plan. The preconditioner
// issues exactly these broadcasts and simulate.PlanModel prices exactly
// these.
func (p *Plan) ResultBuckets() [][]int {
	var buckets [][]int
	for i, lp := range p.Layers {
		if len(lp.BcastMembers) <= 1 {
			continue
		}
		b := slices.IndexFunc(buckets, func(layers []int) bool {
			first := &p.Layers[layers[0]]
			return first.GOwner == lp.GOwner && slices.Equal(first.BcastMembers, lp.BcastMembers)
		})
		if b < 0 {
			b = len(buckets)
			buckets = append(buckets, nil)
		}
		buckets[b] = append(buckets[b], i)
	}
	return buckets
}

// EigTeams returns every factor's decomposition worker team in refs order
// (the placement order the plan was built from): EigTeamSize against the
// owner's total decomposition load under this plan, on ranks with procs
// schedulable workers. A pure function of (plan, procs), so every rank
// computes the identical table; the eig scheduler runs these teams and
// simulate.PlanModel prices them.
func (p *Plan) EigTeams(refs []FactorRef, procs int) []int {
	loads := WorkerLoads(refs, p.Owners, p.World)
	teams := make([]int, len(refs))
	for i, f := range refs {
		teams[i] = EigTeamSize(f.Dim, procs, loads[p.Owners[i]])
	}
	return teams
}

// DecompElemsPerRank models the per-rank resident decomposition footprint
// of the plan in float elements: each factor of dimension n contributes
// n²+n (eigenbasis + eigenvalues) on every rank in its recipient set. This
// is the memory side of the MEM-OPT/COMM-OPT tradeoff; multiply by the
// element width (8 for the live float64 engines, 4 for the simulated FP32
// cluster) for bytes. refs must be the placement-order factor list the
// plan was built from.
func (p *Plan) DecompElemsPerRank(refs []FactorRef) []int64 {
	out := make([]int64, p.World)
	for i, f := range refs {
		layer := i / 2
		if layer >= len(p.Layers) {
			break
		}
		elems := int64(f.Dim)*int64(f.Dim) + int64(f.Dim)
		for _, r := range p.Recipients(layer, f.IsG) {
			out[r] += elems
		}
	}
	return out
}

// String summarizes the plan for logs and CLI banners.
func (p *Plan) String() string {
	return fmt.Sprintf("%s/%s: %d layers over %d ranks, %d gradient worker(s)/layer (f=%.2f)",
		p.Strategy, p.Mode, len(p.Layers), p.World,
		p.GradWorkersPerLayer(), p.GradWorkerFrac)
}
