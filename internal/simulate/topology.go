package simulate

import (
	"fmt"
	"math"
)

// Node/rack topology for the scale model. The flat α–β constants in
// ClusterConfig price every byte identically; at worlds 64–1024 that hides
// exactly the structure the hierarchical allreduce in internal/comm
// exploits — fast intra-node links, slower inter-node fabric, oversubscribed
// rack-to-rack spine. Topology makes the three link classes explicit and
// prices the multi-level collectives the way comm executes them, so the
// plan cost model (plancost.go) can trade hierarchical group size against
// distribution mode with the same shape the real transport has.

// Link is one α–β link class: fixed per-message latency plus inverse
// bandwidth.
type Link struct {
	// AlphaSec is the per-message latency in seconds.
	AlphaSec float64
	// BetaBytesPerSec is the sustained point-to-point bandwidth.
	BetaBytesPerSec float64
}

// xfer returns the α–β time to move b bytes over the link once.
func (l Link) xfer(b float64) float64 {
	return l.AlphaSec + b/l.BetaBytesPerSec
}

// Topology describes the rank placement hierarchy: RanksPerNode consecutive
// ranks share a node (linked by IntraNode), NodesPerRack consecutive nodes
// share a rack (linked by InterNode), and racks talk over InterRack.
// Consecutive-rank placement matches both the hierarchical allreduce's
// consecutive grouping and how MPI launchers fill nodes.
type Topology struct {
	// RanksPerNode is the number of consecutive ranks per node (≥ 1).
	RanksPerNode int
	// NodesPerRack is the number of consecutive nodes per rack (≥ 1).
	NodesPerRack int
	// IntraNode prices rank pairs on the same node (e.g. NVLink/shared
	// memory).
	IntraNode Link
	// InterNode prices rank pairs on different nodes of one rack (e.g.
	// InfiniBand through the rack switch).
	InterNode Link
	// InterRack prices rank pairs in different racks (spine links,
	// typically oversubscribed).
	InterRack Link
}

// DefaultTopology returns constants consistent with the paper's platform
// (4×V100 nodes, EDR InfiniBand) extended with a modeled 16-node rack and
// a 2:1-oversubscribed spine: NVLink-class intra-node links, the
// ClusterConfig EDR numbers inter-node, and half that bandwidth with
// doubled latency across racks.
func DefaultTopology() Topology {
	return Topology{
		RanksPerNode: 4,
		NodesPerRack: 16,
		IntraNode:    Link{AlphaSec: 5e-6, BetaBytesPerSec: 60e9},
		InterNode:    Link{AlphaSec: 0.25e-3, BetaBytesPerSec: 10e9},
		InterRack:    Link{AlphaSec: 0.5e-3, BetaBytesPerSec: 5e9},
	}
}

// Validate reports a descriptive error for a malformed topology.
func (t Topology) Validate() error {
	if t.RanksPerNode < 1 || t.NodesPerRack < 1 {
		return fmt.Errorf("simulate: topology needs ≥1 rank/node and ≥1 node/rack (got %d, %d)",
			t.RanksPerNode, t.NodesPerRack)
	}
	for _, l := range []Link{t.IntraNode, t.InterNode, t.InterRack} {
		if l.AlphaSec < 0 || l.BetaBytesPerSec <= 0 {
			return fmt.Errorf("simulate: topology link needs α ≥ 0 and β > 0 (got α=%g β=%g)",
				l.AlphaSec, l.BetaBytesPerSec)
		}
	}
	return nil
}

// RanksPerRack returns the rank span of one rack.
func (t Topology) RanksPerRack() int { return t.RanksPerNode * t.NodesPerRack }

// node returns the node index of a rank.
func (t Topology) node(rank int) int { return rank / t.RanksPerNode }

// rack returns the rack index of a rank.
func (t Topology) rack(rank int) int { return rank / t.RanksPerRack() }

// LinkBetween returns the link class connecting two ranks: the slowest
// class on their path (same node → IntraNode, same rack → InterNode,
// else InterRack). For the ends of a consecutive rank interval it is the
// slowest class the interval spans — the class that bounds any collective
// whose communication pattern stays inside it.
func (t Topology) LinkBetween(a, b int) Link {
	switch {
	case t.node(a) == t.node(b):
		return t.IntraNode
	case t.rack(a) == t.rack(b):
		return t.InterNode
	default:
		return t.InterRack
	}
}

// RingAllreduceCost prices a flat ring allreduce of b bytes over ranks
// [0, world): 2(p−1) steps, each bounded by the slowest neighbor link in
// the ring (rank p−1 → rank 0 wraps the full span), moving b/p bytes per
// step.
func (t Topology) RingAllreduceCost(b float64, world int) float64 {
	if world <= 1 {
		return 0
	}
	l := t.slowestRingLink(0, world, 1)
	steps := float64(2 * (world - 1))
	return steps*l.AlphaSec + 2*float64(world-1)/float64(world)*b/l.BetaBytesPerSec
}

// slowestRingLink returns the slowest link among ring neighbors when
// `count` members start at rank `lo` with stride `stride` (the leader ring
// of the hierarchical allreduce has stride == groupSize).
func (t Topology) slowestRingLink(lo, count, stride int) Link {
	slowest := t.IntraNode
	for i := 0; i < count; i++ {
		a := lo + i*stride
		bk := lo + ((i+1)%count)*stride
		l := t.LinkBetween(a, bk)
		if l.BetaBytesPerSec < slowest.BetaBytesPerSec ||
			(l.BetaBytesPerSec == slowest.BetaBytesPerSec && l.AlphaSec > slowest.AlphaSec) {
			slowest = l
		}
	}
	return slowest
}

// HierarchicalAllreduceCost prices b bytes through the exact three-phase
// algorithm comm.HierarchicalAllreduceMean executes on `world` ranks with
// `groupSize` consecutive ranks per group:
//
//  1. members send to their group leader, which accumulates sequentially
//     — (groupSize−1) transfers of the full payload over the group's link;
//  2. ring allreduce over one leader per group, bounded by the slowest
//     leader-to-leader link;
//  3. leaders send the result back to members — another (groupSize−1)
//     sequential transfers.
//
// Degenerate group sizes (≤ 1 or ≥ world) collapse to the flat ring,
// matching the implementation's fallback.
func (t Topology) HierarchicalAllreduceCost(b float64, world, groupSize int) float64 {
	if world <= 1 {
		return 0
	}
	if groupSize <= 1 || groupSize >= world {
		return t.RingAllreduceCost(b, world)
	}
	numGroups := (world + groupSize - 1) / groupSize
	// Phases 1 and 3: the widest group bounds the sequential leader fan-in
	// and fan-out; a group spanning nodes pays the slower class for every
	// member transfer.
	groupLink := t.LinkBetween(0, groupSize-1)
	fan := float64(groupSize-1) * groupLink.xfer(b)
	// Phase 2: leader ring with stride groupSize.
	var ringCost float64
	if numGroups > 1 {
		l := t.slowestRingLink(0, numGroups, groupSize)
		steps := float64(2 * (numGroups - 1))
		ringCost = steps*l.AlphaSec + 2*float64(numGroups-1)/float64(numGroups)*b/l.BetaBytesPerSec
	}
	return 2*fan + ringCost
}

// BroadcastCost prices a binomial-tree broadcast of b bytes to a member
// set spanning ranks [lo, hi] with `count` members: ⌈log₂ count⌉ rounds,
// each bounded by the slowest link the span can force.
func (t Topology) BroadcastCost(b float64, lo, hi, count int) float64 {
	if count <= 1 {
		return 0
	}
	l := t.LinkBetween(lo, hi)
	rounds := math.Ceil(math.Log2(float64(count)))
	return rounds * l.xfer(b)
}

// AllgatherCost prices a ring allgather of b total bytes over ranks
// [0, world).
func (t Topology) AllgatherCost(b float64, world int) float64 {
	if world <= 1 {
		return 0
	}
	l := t.slowestRingLink(0, world, 1)
	steps := float64(world - 1)
	return steps*l.AlphaSec + float64(world-1)/float64(world)*b/l.BetaBytesPerSec
}
