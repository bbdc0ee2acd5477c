package simulate

import (
	"math"
	"testing"
)

func TestTopologyValidate(t *testing.T) {
	if err := DefaultTopology().Validate(); err != nil {
		t.Fatalf("default topology invalid: %v", err)
	}
	bad := DefaultTopology()
	bad.RanksPerNode = 0
	if bad.Validate() == nil {
		t.Error("zero ranks/node should fail validation")
	}
	bad = DefaultTopology()
	bad.InterRack.BetaBytesPerSec = 0
	if bad.Validate() == nil {
		t.Error("zero bandwidth should fail validation")
	}
	bad = DefaultTopology()
	bad.IntraNode.AlphaSec = -1
	if bad.Validate() == nil {
		t.Error("negative latency should fail validation")
	}
}

func TestLinkClassification(t *testing.T) {
	topo := DefaultTopology() // 4 ranks/node, 16 nodes/rack → 64 ranks/rack
	if topo.RanksPerRack() != 64 {
		t.Fatalf("ranks/rack = %d, want 64", topo.RanksPerRack())
	}
	cases := []struct {
		a, b int
		want Link
	}{
		{0, 3, topo.IntraNode},   // same node
		{0, 4, topo.InterNode},   // neighbor node, same rack
		{5, 63, topo.InterNode},  // far nodes, same rack
		{0, 64, topo.InterRack},  // first rank of next rack
		{63, 64, topo.InterRack}, // rack boundary neighbors
		{7, 7, topo.IntraNode},   // self
	}
	for _, c := range cases {
		if got := topo.LinkBetween(c.a, c.b); got != c.want {
			t.Errorf("LinkBetween(%d,%d) = %+v, want %+v", c.a, c.b, got, c.want)
		}
	}
	// Interval ends: the slowest class the interval can force.
	if topo.LinkBetween(0, 3) != topo.IntraNode {
		t.Error("span inside one node should be intra-node")
	}
	if topo.LinkBetween(0, 63) != topo.InterNode {
		t.Error("span inside one rack should be inter-node")
	}
	if topo.LinkBetween(0, 64) != topo.InterRack {
		t.Error("span across racks should be inter-rack")
	}
}

func TestRingAllreduceCost(t *testing.T) {
	topo := DefaultTopology()
	if topo.RingAllreduceCost(1e9, 1) != 0 {
		t.Error("single-rank allreduce should be free")
	}
	// Monotone in payload and in the latency term with world size.
	if !(topo.RingAllreduceCost(2e9, 16) > topo.RingAllreduceCost(1e9, 16)) {
		t.Error("cost should grow with bytes")
	}
	// A ring inside one node uses the fast link; spanning nodes pays the
	// slower class.
	intra := topo.RingAllreduceCost(1e8, 4) // one node
	inter := topo.RingAllreduceCost(1e8, 8) // two nodes
	if intra >= inter {
		t.Errorf("intra-node ring %.6f should undercut node-spanning ring %.6f", intra, inter)
	}
}

func TestHierarchicalDegeneratesToFlatRing(t *testing.T) {
	topo := DefaultTopology()
	b := 64e6
	for _, world := range []int{2, 8, 64, 256} {
		flat := topo.RingAllreduceCost(b, world)
		for _, g := range []int{0, 1, world, world + 5} {
			if got := topo.HierarchicalAllreduceCost(b, world, g); got != flat {
				t.Errorf("world=%d group=%d: %.6f != flat %.6f", world, g, got, flat)
			}
		}
	}
	if topo.HierarchicalAllreduceCost(b, 1, 4) != 0 {
		t.Error("single-rank hierarchical allreduce should be free")
	}
}

func TestHierarchicalGroupingWinsAtScale(t *testing.T) {
	// With node-sized groups, members aggregate over NVLink and only one
	// leader per node rides the slow fabric — the structural advantage the
	// comm package's hierarchical allreduce exists for. Assert the model
	// reproduces it at a multi-rack world with a bulk payload.
	topo := DefaultTopology()
	b := 256e6
	world := 256
	flat := topo.RingAllreduceCost(b, world)
	grouped := topo.HierarchicalAllreduceCost(b, world, topo.RanksPerNode)
	if grouped >= flat {
		t.Errorf("node-sized groups %.4f should beat the flat ring %.4f at world %d",
			grouped, flat, world)
	}
}

func TestHierarchicalLeaderRingPaysSpannedClass(t *testing.T) {
	// Leaders are groupSize apart: with node-sized groups at a two-node
	// world the leader ring crosses nodes, so the total must exceed the
	// pure intra-node fan-in/fan-out cost.
	topo := DefaultTopology()
	b := 1e6
	g := topo.RanksPerNode
	fan := 2 * float64(g-1) * (topo.IntraNode.AlphaSec + b/topo.IntraNode.BetaBytesPerSec)
	got := topo.HierarchicalAllreduceCost(b, 2*g, g)
	if got <= fan {
		t.Errorf("hierarchical cost %.6f should include a node-spanning leader ring beyond fan cost %.6f", got, fan)
	}
}

func TestBroadcastCost(t *testing.T) {
	topo := DefaultTopology()
	if topo.BroadcastCost(1e6, 0, 0, 1) != 0 {
		t.Error("single-member broadcast should be free")
	}
	// ⌈log₂count⌉ rounds over the spanned class.
	b := 4e6
	want := 3 * (topo.IntraNode.AlphaSec + b/topo.IntraNode.BetaBytesPerSec)
	if got := topo.BroadcastCost(b, 0, 3, 8); math.Abs(got-want) > 1e-12 {
		t.Errorf("broadcast = %.9f, want %.9f", got, want)
	}
	// A wider span can only cost more.
	if topo.BroadcastCost(b, 0, 64, 8) <= topo.BroadcastCost(b, 0, 3, 8) {
		t.Error("rack-spanning broadcast should cost more than node-local")
	}
}

func TestAllgatherCheaperThanAllreduce(t *testing.T) {
	topo := DefaultTopology()
	if topo.AllgatherCost(1e6, 1) != 0 {
		t.Error("single-rank allgather should be free")
	}
	if !(topo.AllgatherCost(1e9, 32) < topo.RingAllreduceCost(1e9, 32)) {
		t.Error("ring allgather moves half the payload of allreduce")
	}
}
