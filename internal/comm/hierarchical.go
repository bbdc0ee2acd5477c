package comm

import (
	"fmt"
)

// HierarchicalAllreduceMeanAsync starts an asynchronous average of data
// across all ranks using a two-level algorithm that mirrors Horovod's
// hierarchical allreduce on multi-GPU nodes (the paper's platform has 4
// V100s per node):
//
//  1. intra-group reduce: every member sends to its group leader, which
//     accumulates (models fast intra-node links, e.g. NVLink);
//  2. inter-leader ring allreduce over one representative per group
//     (models the inter-node InfiniBand fabric);
//  3. intra-group broadcast of the result from each leader.
//
// groupSize is the number of consecutive ranks per group (a trailing group
// may be smaller). Every rank receives the identical leader-computed
// result. The sum is grouped differently than the flat allreduce's, so for
// arbitrary floating-point inputs the result agrees with AllreduceMean to
// rounding (and exactly — bit for bit — whenever the sums are exactly
// representable, e.g. integer-valued data; see
// TestHierarchicalBitEqualsFlatOnIntegerData). A groupSize ≤ 1 or ≥ the
// world size is the flat AllreduceMeanAsync. The gradient/factor fusion
// path uses it when a group size is configured (Fuser.SetGroupSize). The
// tag namespace is reserved synchronously at call time, like every other
// async collective.
func (c *Communicator) HierarchicalAllreduceMeanAsync(data []float64, groupSize int) *Handle {
	return launch((*Communicator).hierarchicalMeanTagged, c, data, groupSize, c.nextOp())
}

// hierarchicalMeanTagged is the hierarchical mean-allreduce body with an
// externally reserved tag base. Degenerate group sizes (≤1, or ≥ world)
// fall back to the flat allreduce within the same tag namespace, so exactly one
// namespace is consumed per call on every rank.
func (c *Communicator) hierarchicalMeanTagged(data []float64, groupSize int, base uint64) error {
	p := c.Size()
	if groupSize <= 1 || groupSize >= p {
		return c.meanTagged(data, base)
	}
	r := c.Rank()
	group := r / groupSize
	leader := group * groupSize
	numGroups := (p + groupSize - 1) / groupSize

	// Phase 1: members → leader.
	if r != leader {
		if err := c.t.Send(leader, opTag(base, 1), data); err != nil {
			return err
		}
	} else {
		end := leader + groupSize
		if end > p {
			end = p
		}
		for m := leader + 1; m < end; m++ {
			in, err := c.recv(m, opTag(base, 1))
			if err != nil {
				return err
			}
			if len(in) != len(data) {
				return fmt.Errorf("comm: hierarchical phase-1 size mismatch: %d != %d", len(in), len(data))
			}
			for i := range data {
				data[i] += in[i]
			}
		}
	}

	// Phase 2: ring allreduce among leaders, reusing the shared ring-phase
	// helpers over a ring indexed by group number.
	if r == leader && numGroups > 1 {
		counts, displs := split(len(data), numGroups)
		rg := ring{
			next:  mod(group+1, numGroups) * groupSize,
			prev:  mod(group-1, numGroups) * groupSize,
			index: group,
			size:  numGroups,
		}
		if err := c.ringReduceScatter(data, counts, displs, rg, base, uint16Step(2, 0)); err != nil {
			return err
		}
		if err := c.ringAllgatherChunks(data, counts, displs, rg, base, uint16Step(3, 0)); err != nil {
			return err
		}
	}

	// Phase 3: leader → members, with the mean scaling applied once on the
	// leader before distribution.
	if r == leader {
		inv := 1 / float64(p)
		for i := range data {
			data[i] *= inv
		}
		end := leader + groupSize
		if end > p {
			end = p
		}
		for m := leader + 1; m < end; m++ {
			if err := c.t.Send(m, opTag(base, 4), data); err != nil {
				return err
			}
		}
		return nil
	}
	in, err := c.recv(leader, opTag(base, 4))
	if err != nil {
		return err
	}
	copy(data, in)
	return nil
}

// uint16Step packs (phase, step) into a distinct tag step value.
func uint16Step(phase, s int) int { return phase*4096 + s }
