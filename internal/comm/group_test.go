package comm

import (
	"math/rand"
	"testing"

	"repro/internal/tensor"
)

func TestGroupBroadcastSubset(t *testing.T) {
	const p = 5
	members := []int{1, 3, 4}
	const root = 3
	got := make([][]float64, p)
	runRanks(t, p, func(c *Communicator) error {
		r := c.Rank()
		data := []float64{float64(10 * (r + 1)), float64(r)}
		g := c.Group(members)
		// Non-members pass nil: the call only reserves the tag namespace.
		var buf []float64
		if g.Contains(r) {
			buf = data
		}
		if err := g.BroadcastAsync(buf, root).Wait(); err != nil {
			return err
		}
		got[r] = data
		return nil
	})
	for _, m := range members {
		if got[m][0] != 40 || got[m][1] != 3 {
			t.Errorf("member %d = %v, want root 3's data", m, got[m])
		}
	}
	for _, r := range []int{0, 2} {
		if got[r][0] != float64(10*(r+1)) || got[r][1] != float64(r) {
			t.Errorf("non-member %d data disturbed: %v", r, got[r])
		}
	}
}

func TestGroupBroadcastFullWorldMatchesBroadcast(t *testing.T) {
	const p = 4
	rng := rand.New(rand.NewSource(7))
	payload := make([]float64, 37)
	for i := range payload {
		payload[i] = rng.NormFloat64()
	}
	viaGroup := make([][]float64, p)
	viaBcast := make([][]float64, p)
	run := func(out [][]float64, grouped bool) {
		runRanks(t, p, func(c *Communicator) error {
			data := make([]float64, len(payload))
			if c.Rank() == 2 {
				copy(data, payload)
			}
			var err error
			if grouped {
				err = c.Group([]int{0, 1, 2, 3}).BroadcastAsync(data, 2).Wait()
			} else {
				err = c.Broadcast(data, 2)
			}
			out[c.Rank()] = data
			return err
		})
	}
	run(viaGroup, true)
	run(viaBcast, false)
	for r := 0; r < p; r++ {
		for i := range payload {
			if viaGroup[r][i] != viaBcast[r][i] || viaGroup[r][i] != payload[i] {
				t.Fatalf("rank %d elem %d: group %v bcast %v want %v",
					r, i, viaGroup[r][i], viaBcast[r][i], payload[i])
			}
		}
	}
}

func TestGroupBroadcastAsyncOverlapped(t *testing.T) {
	// Two overlapping async group broadcasts on disjoint groups plus a full
	// collective afterwards: tags must stay aligned on every rank.
	const p = 4
	sum := make([]float64, p)
	runRanks(t, p, func(c *Communicator) error {
		r := c.Rank()
		g1 := c.Group([]int{0, 1})
		g2 := c.Group([]int{2, 3})
		d1 := []float64{float64(100 + r)}
		d2 := []float64{float64(200 + r)}
		var b1, b2 []float64
		if g1.Contains(r) {
			b1 = d1
		}
		if g2.Contains(r) {
			b2 = d2
		}
		h1 := g1.BroadcastAsync(b1, 0)
		h2 := g2.BroadcastAsync(b2, 3)
		if err := WaitAll(h1, h2); err != nil {
			return err
		}
		// Full-world collective after the group ops: misaligned tags would
		// deadlock or cross-match here.
		buf := []float64{d1[0] + d2[0]}
		if err := c.AllreduceSum(buf); err != nil {
			return err
		}
		sum[r] = buf[0]
		return nil
	})
	// After the broadcasts: ranks 0,1 have d1=100 (root 0); ranks 2,3 keep
	// their own d1 = 102, 103. d2: ranks 2,3 have 203 (root 3); ranks 0,1
	// keep 200, 201.
	want := (100.0 + 200) + (100 + 201) + (102 + 203) + (103 + 203)
	for r := 0; r < p; r++ {
		if sum[r] != want {
			t.Errorf("rank %d sum = %v, want %v", r, sum[r], want)
		}
	}
}

func TestGroupSingletonAndAccessors(t *testing.T) {
	runRanks(t, 3, func(c *Communicator) error {
		g := c.Group([]int{1, 1, 1})
		if g.Size() != 1 || g.members[0] != 1 {
			t.Errorf("dedup failed: %v", g.members)
		}
		if got, want := g.index, -1; c.Rank() == 1 {
			if g.index != 0 {
				t.Errorf("member index = %d, want 0", g.index)
			}
		} else if got != want {
			t.Errorf("non-member index = %d, want -1", got)
		}
		data := []float64{float64(c.Rank())}
		if err := g.BroadcastAsync(data, 1).Wait(); err != nil {
			return err
		}
		if data[0] != float64(c.Rank()) {
			t.Errorf("singleton group modified data: %v", data)
		}
		return nil
	})
}

func TestGroupInvalidMembershipPanics(t *testing.T) {
	fab := NewInprocFabric(2)
	c := NewCommunicator(fab.Endpoint(0))
	for name, members := range map[string][]int{
		"empty":        {},
		"out-of-range": {0, 5},
		"negative":     {-1},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s membership did not panic", name)
				}
			}()
			c.Group(members)
		}()
	}
}

func TestGroupBroadcastBadRootPanicsOnEveryRank(t *testing.T) {
	// A non-member root must fail identically on every rank — member or
	// not — because a divergent per-rank outcome would desynchronize the
	// SPMD collective schedule.
	runRanks(t, 3, func(c *Communicator) error {
		g := c.Group([]int{0, 1})
		var buf []float64
		if g.Contains(c.Rank()) {
			buf = []float64{1}
		}
		panicked := func() (p bool) {
			defer func() { p = recover() != nil }()
			_ = g.BroadcastAsync(buf, 2) // 2 is not a member
			return
		}()
		if !panicked {
			t.Errorf("rank %d: non-member root did not panic", c.Rank())
		}
		return nil
	})
}

// TestHierarchicalBitEqualsFlatOnIntegerData is the bit-equality gate for
// the grouped gradient path: on integer-valued data every partial sum is
// exactly representable, so the hierarchical algorithm's regrouped
// summation must agree with the flat ring bit for bit. (For arbitrary
// floats the two group additions differently and agree only to rounding —
// see HierarchicalAllreduceMeanAsync.)
func TestHierarchicalBitEqualsFlatOnIntegerData(t *testing.T) {
	const p = 6
	const n = 41
	rng := rand.New(rand.NewSource(11))
	inputs := make([][]float64, p)
	for r := range inputs {
		inputs[r] = make([]float64, n)
		for i := range inputs[r] {
			inputs[r][i] = float64(rng.Intn(2001) - 1000)
		}
	}
	run := func(groupSize int) [][]float64 {
		out := make([][]float64, p)
		runRanks(t, p, func(c *Communicator) error {
			data := append([]float64(nil), inputs[c.Rank()]...)
			var err error
			if groupSize == 0 {
				err = c.AllreduceMean(data)
			} else {
				err = c.HierarchicalAllreduceMeanAsync(data, groupSize).Wait()
			}
			out[c.Rank()] = data
			return err
		})
		return out
	}
	flat := run(0)
	for _, gs := range []int{2, 3, 4} {
		hier := run(gs)
		for r := 0; r < p; r++ {
			for i := 0; i < n; i++ {
				if hier[r][i] != flat[r][i] {
					t.Fatalf("groupSize %d rank %d elem %d: hierarchical %v != flat %v",
						gs, r, i, hier[r][i], flat[r][i])
				}
			}
		}
	}
}

// TestFuserGroupSizeBitEqualsFlatOnIntegerData: the fusion path with
// SetGroupSize must land the same (integer-exact) averages as the flat
// fused allreduce, chunk boundaries unchanged.
func TestFuserGroupSizeBitEqualsFlatOnIntegerData(t *testing.T) {
	const p = 4
	run := func(groupSize int) [][]float64 {
		out := make([][]float64, p)
		runRanks(t, p, func(c *Communicator) error {
			rng := rand.New(rand.NewSource(int64(31)))
			ts := makeIntTensors(rng, c.Rank())
			fu := NewFuser(c, 64) // tiny budget: several chunks
			fu.SetGroupSize(groupSize)
			for _, tt := range ts {
				fu.Add(tt)
			}
			if err := fu.Flush(); err != nil {
				return err
			}
			var flatOut []float64
			for _, tt := range ts {
				flatOut = append(flatOut, tt.Data...)
			}
			out[c.Rank()] = flatOut
			return nil
		})
		return out
	}
	flat := run(0)
	hier := run(2)
	for r := 0; r < p; r++ {
		for i := range flat[r] {
			if flat[r][i] != hier[r][i] {
				t.Fatalf("rank %d elem %d: grouped fuser %v != flat %v", r, i, hier[r][i], flat[r][i])
			}
		}
	}
}

// makeIntTensors builds a deterministic per-rank set of integer-valued
// tensors (exactly summable across ranks, so fused averages are exact).
func makeIntTensors(rng *rand.Rand, rank int) []*tensor.Tensor {
	sizes := []int{3, 9, 5, 14, 2}
	out := make([]*tensor.Tensor, 0, len(sizes))
	for _, n := range sizes {
		t := tensor.New(n)
		for i := range t.Data {
			t.Data[i] = float64(rng.Intn(201) - 100 + rank)
		}
		out = append(out, t)
	}
	return out
}
