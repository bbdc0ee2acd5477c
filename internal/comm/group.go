package comm

import (
	"fmt"
	"sort"
)

// Group is a rank-subset sub-communicator: collectives over a sorted subset
// of the parent communicator's ranks, sharing its transport and tag
// sequence. K-FAC's distribution plans use groups to move eigenbases only
// to a factor's gradient workers (MEM-OPT/HYBRID placement) and to broadcast
// preconditioned gradients to the ranks that did not compute them.
//
// Contract — group collectives ride the parent's tag-range scheme, so the
// SPMD ordering rule extends to them unchanged: EVERY rank of the parent
// communicator must invoke every group collective, in the same program
// order, whether or not it is a member. Each call reserves exactly one tag
// namespace on every rank (keeping subsequent collectives aligned); ranks
// outside the group return immediately after the reservation and never
// touch the data argument, so non-members may pass nil.
type Group struct {
	c       *Communicator
	members []int // sorted, deduplicated transport ranks
	index   int   // this rank's position in members, -1 for non-members
}

// Group builds a sub-communicator over the given transport ranks. The
// member list is copied, sorted, and deduplicated; it must be non-empty
// and every rank must be within [0, Size). Invalid membership is a
// programming error (plans are validated at construction) and panics.
func (c *Communicator) Group(members []int) *Group {
	if len(members) == 0 {
		panic("comm: Group needs at least one member")
	}
	ms := append([]int(nil), members...)
	sort.Ints(ms)
	out := ms[:1]
	for _, m := range ms[1:] {
		if m != out[len(out)-1] {
			out = append(out, m)
		}
	}
	for _, m := range out {
		if m < 0 || m >= c.Size() {
			panic(fmt.Sprintf("comm: Group member %d outside world [0,%d)", m, c.Size()))
		}
	}
	g := &Group{c: c, members: out, index: -1}
	for i, m := range out {
		if m == c.Rank() {
			g.index = i
		}
	}
	return g
}

// Size returns the number of member ranks.
func (g *Group) Size() int { return len(g.members) }

// Contains reports whether the transport rank is a group member.
func (g *Group) Contains(rank int) bool {
	i := sort.SearchInts(g.members, rank)
	return i < len(g.members) && g.members[i] == rank
}

// indexOf returns rank's position in members, or -1.
func (g *Group) indexOf(rank int) int {
	i := sort.SearchInts(g.members, rank)
	if i < len(g.members) && g.members[i] == rank {
		return i
	}
	return -1
}

// mustContain panics when root is not a member — uniformly on every rank,
// member or not, since the member list is shared state.
func (g *Group) mustContain(root int) {
	if g.indexOf(root) < 0 {
		panic(fmt.Sprintf("comm: group broadcast root %d is not a member of %v", root, g.members))
	}
}

// BroadcastAsync starts an asynchronous broadcast of root's data to every
// group member (in place on non-root members) over the same binomial tree
// Communicator.Broadcast uses; a group spanning the whole world is
// wire-identical to it. root is a transport rank and must be a member — a
// non-member root is a programming error and panics identically on every
// rank (a divergent per-rank error would desynchronize the SPMD schedule).
// The tag namespace is reserved synchronously at call time on every rank
// (members and non-members alike), preserving the SPMD ordering contract
// for overlapping operations; K-FAC streams per-factor eigenbases with it.
// The caller must not touch data until Wait returns. Non-members get an
// already-completed handle (data may be nil there).
func (g *Group) BroadcastAsync(data []float64, root int) *Handle {
	base := g.c.nextOp()
	g.mustContain(root)
	if g.index < 0 || len(g.members) == 1 {
		return completedHandle()
	}
	return launch((*Group).broadcastTagged, g, data, root, base)
}

// broadcastTagged is the group broadcast body with an externally reserved
// tag base, run by members of a group of two or more; root is a member.
func (g *Group) broadcastTagged(data []float64, root int, base uint64) error {
	n := len(g.members)
	rootIdx := g.indexOf(root)
	rel := mod(g.index-rootIdx, n)
	return g.c.broadcastTree(data, base, rel, n, func(peerRel int) int {
		return g.members[mod(peerRel+rootIdx, n)]
	})
}
