package comm

import (
	"fmt"
	"math"
	"sync"
	"testing"
)

func TestReduceToEachRoot(t *testing.T) {
	for _, p := range []int{2, 3, 4, 5, 8} {
		for root := 0; root < p; root++ {
			p, root := p, root
			t.Run(fmt.Sprintf("p%d_root%d", p, root), func(t *testing.T) {
				var mu sync.Mutex
				rootData := make([]float64, 3)
				runWorld(t, p, func(c *Communicator) error {
					data := []float64{float64(c.Rank()), 1, float64(c.Rank() * 2)}
					if err := c.Reduce(data, root); err != nil {
						return err
					}
					if c.Rank() == root {
						mu.Lock()
						copy(rootData, data)
						mu.Unlock()
					}
					return nil
				})
				sumR := float64(p * (p - 1) / 2)
				want := []float64{sumR, float64(p), 2 * sumR}
				for i := range want {
					if math.Abs(rootData[i]-want[i]) > 1e-9 {
						t.Fatalf("root data = %v, want %v", rootData, want)
					}
				}
			})
		}
	}
}

func TestReduceNonRootUnchanged(t *testing.T) {
	runWorld(t, 4, func(c *Communicator) error {
		data := []float64{float64(c.Rank())}
		if err := c.Reduce(data, 0); err != nil {
			return err
		}
		if c.Rank() != 0 && data[0] != float64(c.Rank()) {
			return fmt.Errorf("rank %d buffer clobbered: %v", c.Rank(), data)
		}
		return nil
	})
}

// reduceScatterPhase runs the ring allreduce's scatter-reduce phase alone
// over the full ring and returns the fully reduced chunk it leaves on this
// rank: chunk (rank+1) mod p of split's partition.
func reduceScatterPhase(c *Communicator, data []float64) ([]float64, error) {
	p := c.Size()
	counts, displs := split(len(data), p)
	if err := c.ringReduceScatter(data, counts, displs, c.fullRing(), c.nextOp(), 0); err != nil {
		return nil, err
	}
	return chunkOf(data, counts, displs, mod(c.Rank()+1, p)), nil
}

func TestReduceScatterMatchesAllreduce(t *testing.T) {
	for _, p := range []int{1, 2, 3, 4, 6} {
		for _, n := range []int{1, 7, 16, 100} {
			p, n := p, n
			t.Run(fmt.Sprintf("p%d_n%d", p, n), func(t *testing.T) {
				var mu sync.Mutex
				got := make(map[int][]float64)
				runWorld(t, p, func(c *Communicator) error {
					data := make([]float64, n)
					for i := range data {
						data[i] = float64(c.Rank()*100 + i)
					}
					chunk, err := reduceScatterPhase(c, data)
					if err != nil {
						return err
					}
					mu.Lock()
					got[c.Rank()] = chunk
					mu.Unlock()
					return nil
				})
				// Expected full sum: Σ_r (100r + i) = 100·p(p−1)/2 + p·i.
				full := make([]float64, n)
				for i := range full {
					full[i] = 100*float64(p*(p-1)/2) + float64(p*i)
				}
				counts, displs := split(n, p)
				for r := 0; r < p; r++ {
					own := ((r+1)%p + p) % p
					want := full[displs[own] : displs[own]+counts[own]]
					if len(got[r]) != len(want) {
						t.Fatalf("rank %d chunk len %d, want %d", r, len(got[r]), len(want))
					}
					for i := range want {
						if math.Abs(got[r][i]-want[i]) > 1e-9 {
							t.Fatalf("rank %d chunk = %v, want %v", r, got[r], want)
						}
					}
				}
			})
		}
	}
}

// TestOwnedChunkConsistentWithReduceScatter: the allgather phase starts
// from exactly the chunk the scatter-reduce phase leaves on each ring
// member, (index+1) mod size — poisoning every other chunk between the two
// phases must not reach the result.
func TestOwnedChunkConsistentWithReduceScatter(t *testing.T) {
	const p, n = 4, 10
	runWorld(t, p, func(c *Communicator) error {
		data := make([]float64, n)
		for i := range data {
			data[i] = float64(c.Rank()*100 + i)
		}
		counts, displs := split(n, p)
		rg, base := c.fullRing(), c.nextOp()
		if err := c.ringReduceScatter(data, counts, displs, rg, base, 0); err != nil {
			return err
		}
		for i := 0; i < p; i++ {
			if i != mod(c.Rank()+1, p) {
				chunk := chunkOf(data, counts, displs, i)
				for j := range chunk {
					chunk[j] = math.NaN()
				}
			}
		}
		if err := c.ringAllgatherChunks(data, counts, displs, rg, base, p); err != nil {
			return err
		}
		for i, v := range data {
			if want := 100*float64(p*(p-1)/2) + float64(p*i); v != want {
				return fmt.Errorf("rank %d elem %d = %v, want %v", c.Rank(), i, v, want)
			}
		}
		return nil
	})
}

func TestGatherVariableLengths(t *testing.T) {
	const p = 4
	const root = 2
	var mu sync.Mutex
	var gathered [][]float64
	runWorld(t, p, func(c *Communicator) error {
		mine := make([]float64, c.Rank()+1)
		for i := range mine {
			mine[i] = float64(c.Rank())
		}
		out, err := c.Gather(mine, root)
		if err != nil {
			return err
		}
		if c.Rank() == root {
			mu.Lock()
			gathered = out
			mu.Unlock()
		} else if out != nil {
			return fmt.Errorf("non-root got non-nil gather result")
		}
		return nil
	})
	if len(gathered) != p {
		t.Fatalf("gathered %d blocks", len(gathered))
	}
	for r := 0; r < p; r++ {
		if len(gathered[r]) != r+1 {
			t.Fatalf("block %d len %d", r, len(gathered[r]))
		}
		for _, v := range gathered[r] {
			if v != float64(r) {
				t.Fatalf("block %d value %v", r, v)
			}
		}
	}
}

func TestReduceScatterSingleRank(t *testing.T) {
	fab := NewInprocFabric(1)
	c := NewCommunicator(fab.Endpoint(0))
	out, err := reduceScatterPhase(c, []float64{1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 3 || out[0] != 1 {
		t.Errorf("single-rank reduce-scatter = %v", out)
	}
}

func TestHierarchicalAllreduceMatchesFlat(t *testing.T) {
	for _, tc := range []struct{ p, g, n int }{
		{4, 2, 10}, {8, 4, 17}, {6, 4, 5}, {9, 3, 100}, {5, 2, 8},
	} {
		tc := tc
		t.Run(fmt.Sprintf("p%d_g%d_n%d", tc.p, tc.g, tc.n), func(t *testing.T) {
			var mu sync.Mutex
			results := make(map[int][]float64)
			runWorld(t, tc.p, func(c *Communicator) error {
				data := make([]float64, tc.n)
				for i := range data {
					data[i] = float64(c.Rank()*100 + i)
				}
				if err := c.HierarchicalAllreduceMeanAsync(data, tc.g).Wait(); err != nil {
					return err
				}
				mu.Lock()
				results[c.Rank()] = data
				mu.Unlock()
				return nil
			})
			for i := 0; i < tc.n; i++ {
				want := (100*float64(tc.p*(tc.p-1)/2) + float64(tc.p*i)) / float64(tc.p)
				for r := 0; r < tc.p; r++ {
					if math.Abs(results[r][i]-want) > 1e-9 {
						t.Fatalf("rank %d elem %d = %v, want %v", r, i, results[r][i], want)
					}
				}
			}
		})
	}
}

func TestHierarchicalDegenerateGroupSizes(t *testing.T) {
	// groupSize 1 and ≥p fall back to the flat algorithm.
	for _, g := range []int{1, 4, 99} {
		g := g
		runWorld(t, 4, func(c *Communicator) error {
			data := []float64{float64(c.Rank())}
			if err := c.HierarchicalAllreduceMeanAsync(data, g).Wait(); err != nil {
				return err
			}
			if math.Abs(data[0]-1.5) > 1e-12 {
				return fmt.Errorf("g=%d: mean %v, want 1.5", g, data[0])
			}
			return nil
		})
	}
}
