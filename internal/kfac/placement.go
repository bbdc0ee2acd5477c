package kfac

import (
	"sort"

	"repro/internal/linalg"
)

// Strategy selects how K-FAC work is distributed across workers (§IV-B,
// §VI-C3).
type Strategy int

const (
	// RoundRobin assigns each factor (A and G independently) to workers in
	// a greedy round-robin order. This is the paper's K-FAC-opt scheme: A
	// and G of the same layer can land on different workers, doubling
	// worker utilization relative to layer-wise distribution.
	RoundRobin Strategy = iota
	// LayerWise assigns whole layers to workers (Osawa et al.; the paper's
	// K-FAC-lw baseline): one worker computes both eigendecompositions and
	// the preconditioned gradient for its layers, then broadcasts the
	// result every iteration.
	LayerWise
	// SizeGreedy is the placement policy the paper proposes in §VI-C4 as
	// future work: factors are sorted by estimated eigendecomposition cost
	// (descending) and each is assigned to the currently least-loaded
	// worker, balancing aggregate cost instead of factor counts.
	SizeGreedy
)

// String returns the scheme name used in the paper's figures.
func (s Strategy) String() string {
	switch s {
	case RoundRobin:
		return "K-FAC-opt"
	case LayerWise:
		return "K-FAC-lw"
	case SizeGreedy:
		return "K-FAC-greedy"
	}
	return "unknown"
}

// FactorRef identifies one Kronecker factor for placement purposes.
type FactorRef struct {
	Layer int  // layer index
	IsG   bool // false = A factor, true = G factor
	Dim   int  // matrix dimension
}

// Cost returns the modeled eigendecomposition cost of the factor.
func (f FactorRef) Cost() float64 { return linalg.EigFLOPs(f.Dim) }

// Assign maps each factor (placement order) to an owner in [0, workers)
// under the given strategy; an unknown strategy gets RoundRobin. The result
// is deterministic, so every rank computes the same assignment without
// communication (Algorithm 1, line 9).
func Assign(strategy Strategy, factors []FactorRef, workers int) []int {
	if workers < 1 {
		workers = 1
	}
	out := make([]int, len(factors))
	switch strategy {
	case LayerWise:
		// Both factors of a layer land on the same owner.
		for i, f := range factors {
			out[i] = f.Layer % workers
		}
	case SizeGreedy:
		// Descending modeled eigendecomposition cost, each factor to the
		// least-loaded owner (longest-processing-time-first).
		order := make([]int, len(factors))
		for i := range order {
			order[i] = i
		}
		sort.SliceStable(order, func(a, b int) bool {
			return factors[order[a]].Cost() > factors[order[b]].Cost()
		})
		load := make([]float64, workers)
		for _, idx := range order {
			best := 0
			for w := 1; w < workers; w++ {
				if load[w] < load[best] {
					best = w
				}
			}
			out[idx] = best
			load[best] += factors[idx].Cost()
		}
	default: // RoundRobin
		for i := range factors {
			out[i] = i % workers
		}
	}
	return out
}
