package comm

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/tensor"
)

// scheduleInput is rank r's length-n allreduce input: non-integer values
// spread over seven decades, so every change of summation order shows in
// the bits of some element.
func scheduleInput(r, n int) []float64 {
	rng := rand.New(rand.NewSource(int64(7919*r + n)))
	x := make([]float64, n)
	for i := range x {
		x[i] = (rng.Float64() - 0.5) * math.Pow(10, float64(rng.Intn(7)-3))
	}
	return x
}

// pairwiseTree is element i summed over ranks [lo, hi) as the pairwise
// tree recursive halving builds: ((x₀+x₁)+(x₂+x₃))+((x₄+x₅)+(x₆+x₇)).
func pairwiseTree(xs [][]float64, i, lo, hi int) float64 {
	if hi-lo == 1 {
		return xs[lo][i]
	}
	mid := (lo + hi) / 2
	return pairwiseTree(xs, i, lo, mid) + pairwiseTree(xs, i, mid, hi)
}

// ringOrderSum is element i summed the way the ring allreduce sums it: its
// chunk c of split(n, p) starts on rank c and each later ring member adds
// its own value, ((x_c + x_{c+1}) + x_{c+2}) + … around the ring.
func ringOrderSum(xs [][]float64, i int) float64 {
	p := len(xs)
	counts, displs := split(len(xs[0]), p)
	c := 0
	for i >= displs[c]+counts[c] {
		c++
	}
	acc := xs[c][i]
	for j := 1; j < p; j++ {
		acc += xs[(c+j)%p][i]
	}
	return acc
}

// allreduceWorld runs AllreduceSum over a p-rank world on each rank's
// scheduleInput of length n and returns every rank's result and input.
func allreduceWorld(t *testing.T, p, n int) (got, xs [][]float64) {
	t.Helper()
	got = make([][]float64, p)
	xs = make([][]float64, p)
	for r := range xs {
		xs[r] = scheduleInput(r, n)
	}
	runWorld(t, p, func(c *Communicator) error {
		data := append([]float64(nil), xs[c.Rank()]...)
		if err := c.AllreduceSum(data); err != nil {
			return err
		}
		got[c.Rank()] = data
		return nil
	})
	return got, xs
}

// scheduleLengths are the buffer lengths the schedule tests cover: empty,
// one element, the consensus allreduce's two words, fewer elements than
// ranks (empty segments), odd, and large.
func scheduleLengths(p int) []int { return []int{0, 1, 2, p - 1, 37, 4099} }

// TestAllreduceHalvingDoublingPairwiseTree: on a power-of-two world every
// element, wherever it sits in the buffer, is the XOR-partner pairwise tree
// over ranks, bit-identical on every rank.
func TestAllreduceHalvingDoublingPairwiseTree(t *testing.T) {
	for _, p := range []int{2, 4, 8} {
		for _, n := range scheduleLengths(p) {
			t.Run(fmt.Sprintf("p%d_n%d", p, n), func(t *testing.T) {
				got, xs := allreduceWorld(t, p, n)
				orderShows := false
				for i := 0; i < n; i++ {
					want := pairwiseTree(xs, i, 0, p)
					orderShows = orderShows || want != ringOrderSum(xs, i)
					for r := 0; r < p; r++ {
						if math.Float64bits(got[r][i]) != math.Float64bits(want) {
							t.Fatalf("rank %d elem %d = %v, want pairwise tree %v", r, i, got[r][i], want)
						}
					}
				}
				// The inputs must tell the two orders apart, or the test
				// could not see a schedule change.
				if p >= 4 && n == 4099 && !orderShows {
					t.Fatal("inputs do not distinguish the pairwise tree from the ring's order")
				}
			})
		}
	}
}

// TestAllreduceWorld2MatchesRing: at p = 2 halving/doubling computes
// x₀+x₁ as the ring does, so the bits are the ring's, run here through the
// ring phases themselves.
func TestAllreduceWorld2MatchesRing(t *testing.T) {
	const p = 2
	for _, n := range scheduleLengths(p) {
		got, xs := allreduceWorld(t, p, n)
		ring := make([][]float64, p)
		runWorld(t, p, func(c *Communicator) error {
			data := append([]float64(nil), xs[c.Rank()]...)
			counts, displs := split(n, p)
			rg, base := c.fullRing(), c.nextOp()
			if err := c.ringReduceScatter(data, counts, displs, rg, base, 0); err != nil {
				return err
			}
			if err := c.ringAllgatherChunks(data, counts, displs, rg, base, p); err != nil {
				return err
			}
			ring[c.Rank()] = data
			return nil
		})
		for r := 0; r < p; r++ {
			for i := range ring[r] {
				if math.Float64bits(got[r][i]) != math.Float64bits(ring[r][i]) {
					t.Fatalf("n %d rank %d elem %d = %v, ring gives %v", n, r, i, got[r][i], ring[r][i])
				}
			}
		}
	}
}

// TestAllreduceRingBitsOtherWorlds: a world whose size is not a power of
// two keeps the ring, and its bits: element i is summed in ring order from
// the first rank of its chunk (ringOrderSum).
func TestAllreduceRingBitsOtherWorlds(t *testing.T) {
	for _, p := range []int{3, 5, 6, 7} {
		for _, n := range scheduleLengths(p) {
			t.Run(fmt.Sprintf("p%d_n%d", p, n), func(t *testing.T) {
				got, xs := allreduceWorld(t, p, n)
				for i := 0; i < n; i++ {
					want := ringOrderSum(xs, i)
					for r := 0; r < p; r++ {
						if math.Float64bits(got[r][i]) != math.Float64bits(want) {
							t.Fatalf("rank %d elem %d = %v, want ring order %v", r, i, got[r][i], want)
						}
					}
				}
			})
		}
	}
}

// countingTransport counts the sends leaving one endpoint.
type countingTransport struct {
	Transport
	sends atomic.Int64
}

func (c *countingTransport) Send(to int, tag uint64, data []float64) error {
	c.sends.Add(1)
	return c.Transport.Send(to, tag, data)
}

// TestAllreduceSendCounts: one allreduce sends 2·log₂p messages per rank on
// a power-of-two world and the ring's 2(p−1) on any other, at every length.
func TestAllreduceSendCounts(t *testing.T) {
	for _, tc := range []struct{ p, sends int }{
		{2, 2}, {4, 4}, {8, 6}, {3, 4}, {5, 8}, {6, 10},
	} {
		for _, n := range []int{0, 1, 1000} {
			fab := NewInprocFabric(tc.p)
			ends := make([]*countingTransport, tc.p)
			var wg sync.WaitGroup
			errs := make([]error, tc.p)
			for r := range ends {
				ends[r] = &countingTransport{Transport: fab.Endpoint(r)}
				wg.Add(1)
				go func(r int) {
					defer wg.Done()
					errs[r] = NewCommunicator(ends[r]).AllreduceSum(make([]float64, n))
				}(r)
			}
			wg.Wait()
			for r, e := range ends {
				if errs[r] != nil {
					t.Fatalf("p %d n %d rank %d: %v", tc.p, n, r, errs[r])
				}
				if got := e.sends.Load(); got != int64(tc.sends) {
					t.Errorf("p %d n %d rank %d: %d sends, want %d", tc.p, n, r, got, tc.sends)
				}
			}
		}
	}
}

// TestAllreduceSegmentMismatch: a rank passing a longer buffer than its
// peers makes the allreduce return errSegmentMismatch on some rank; the
// others, cancelled through their shared context, all return too.
func TestAllreduceSegmentMismatch(t *testing.T) {
	for _, p := range []int{2, 4, 3} {
		ranks := make([]int, p)
		for r := range ranks {
			ranks[r] = r
		}
		errs := runCancelOnError(t, fmt.Sprintf("p %d", p), p, ranks, func(c *Communicator) error {
			n := 10
			if c.Rank() == 0 {
				n++
			}
			return c.AllreduceSum(make([]float64, n))
		})
		named := false
		for r, err := range errs {
			if err == nil {
				t.Errorf("p %d rank %d: allreduce of mismatched buffers succeeded", p, r)
			}
			named = named || errors.Is(err, errSegmentMismatch)
		}
		if !named {
			t.Errorf("p %d: no rank returned errSegmentMismatch: %v", p, errs)
		}
	}
}

// TestFuserLayoutIndependentWorld4: at world 4 an element's average does
// not depend on where the fusion buffer puts it, so the same tensors
// through one chunk, one chunk per tensor and chunks cut mid-set average
// to the same bits.
func TestFuserLayoutIndependentWorld4(t *testing.T) {
	const p = 4
	shapes := [][]int{{37}, {9, 11}, {256}, {5}, {3, 3, 7}}
	limits := []int{0, 1, 8 * 300}
	out := make([][][]*tensor.Tensor, len(limits)) // [limit][rank][tensor]
	for li, limit := range limits {
		out[li] = make([][]*tensor.Tensor, p)
		runWorld(t, p, func(c *Communicator) error {
			ts := make([]*tensor.Tensor, len(shapes))
			for k, sh := range shapes {
				ts[k] = tensor.New(sh...)
				copy(ts[k].Data, scheduleInput(c.Rank(), 100*k+ts[k].Len()))
			}
			if err := allreduceMeanTensors(c, limit, ts...); err != nil {
				return err
			}
			out[li][c.Rank()] = ts
			return nil
		})
	}
	for li := range limits {
		for r := 0; r < p; r++ {
			for k, ts := range out[li][r] {
				if !ts.Equal(out[0][0][k], 0) {
					t.Errorf("limit %d rank %d tensor %d differs bitwise from one chunk on rank 0", limits[li], r, k)
				}
			}
		}
	}
}
