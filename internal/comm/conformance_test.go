package comm

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/tensor"
	"repro/internal/testenv"
)

// SPMD conformance suite: every collective — synchronous, fused, and async
// — must produce identical results on every rank, equal to an
// independently computed reference, for world sizes 1–8, while a
// ChaosTransport injects latency (which reorders deliveries across tags)
// and retried drops. Inputs are small integers so all reductions are exact
// in float64 and "identical" means bit-identical.
//
// This is the test the SPMD ordering contract of docs/ARCHITECTURE.md was
// previously missing: the collectives were only exercised on a
// well-behaved in-memory transport where messages never arrive late or
// out of order relative to their issue.

// confVec derives a deterministic small-integer vector for one rank.
func confVec(n, rank int, seed int64) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = float64((int(seed)*31+rank*7+i*3)%21 - 10)
	}
	return v
}

// confSum is the elementwise sum of every rank's confVec.
func confSum(n, p int, seed int64) []float64 {
	out := make([]float64, n)
	for r := 0; r < p; r++ {
		for i, v := range confVec(n, r, seed) {
			out[i] += v
		}
	}
	return out
}

// confOut is one rank's results for the whole collective script.
type confOut struct {
	sum, mean, bcast []float64
	gatherv          [][]float64
	reduce           []float64   // meaningful on root only
	gather           [][]float64 // root only
	hier2, hier3     []float64
	compressed       []float64
	asyncMean        []float64
	asyncGather      [][]float64
	fused            [][]float64
	efFused          [][]float64
}

// confScript runs the identical collective program on one rank. Every rank
// must call the same collectives in the same order — the SPMD contract.
func confScript(t *testing.T, c *Communicator, seed int64) *confOut {
	t.Helper()
	r, p := c.Rank(), c.Size()
	root := int(seed) % p
	o := &confOut{}
	const n = 23

	o.sum = confVec(n, r, seed)
	if err := c.AllreduceSum(o.sum); err != nil {
		t.Errorf("rank %d AllreduceSum: %v", r, err)
		return o
	}

	o.mean = confVec(n, r, seed+1)
	if err := c.AllreduceMean(o.mean); err != nil {
		t.Errorf("rank %d AllreduceMean: %v", r, err)
		return o
	}

	o.bcast = confVec(n, r, seed+2)
	if r == root {
		o.bcast = confVec(n, root, seed+100)
	}
	if err := c.Broadcast(o.bcast, root); err != nil {
		t.Errorf("rank %d Broadcast: %v", r, err)
		return o
	}

	var err error
	o.gatherv, err = c.AllgatherVAsync(confVec(r+1, r, seed+3)).Wait()
	if err != nil {
		t.Errorf("rank %d AllgatherVAsync: %v", r, err)
		return o
	}

	o.reduce = confVec(n, r, seed+4)
	if err := c.Reduce(o.reduce, root); err != nil {
		t.Errorf("rank %d Reduce: %v", r, err)
		return o
	}

	o.gather, err = c.Gather(confVec(r+2, r, seed+6), root)
	if err != nil {
		t.Errorf("rank %d Gather: %v", r, err)
		return o
	}

	o.hier2 = confVec(n, r, seed+8)
	if err := c.HierarchicalAllreduceMeanAsync(o.hier2, 2).Wait(); err != nil {
		t.Errorf("rank %d Hierarchical(2): %v", r, err)
		return o
	}
	o.hier3 = confVec(n, r, seed+9)
	if err := c.HierarchicalAllreduceMeanAsync(o.hier3, 3).Wait(); err != nil {
		t.Errorf("rank %d Hierarchical(3): %v", r, err)
		return o
	}

	// One compressed chunk without error feedback: the bare codec path.
	compressed := tensor.FromSlice(confVec(n, r, seed+10), n)
	cfu := NewFuser(c, 0)
	cfu.SetCodec(Float16Codec{})
	cfu.Add(compressed)
	if err := cfu.Flush(); err != nil {
		t.Errorf("rank %d compressed fused flush: %v", r, err)
		return o
	}
	o.compressed = compressed.Data

	// Async variants, deliberately overlapped: the mean-allreduce and the
	// allgather are in flight simultaneously, and the fused chunks launch
	// while both are outstanding. Issue order is identical on all ranks;
	// completion order is whatever the chaos latency makes of it.
	o.asyncMean = confVec(n, r, seed+11)
	h1 := c.AllreduceMeanAsync(o.asyncMean)
	gh := c.AllgatherVAsync(confVec(r+1, r, seed+12))

	fu := NewFuser(c, 8*10) // tiny budget: multiple chunks in flight
	tensors := make([]*tensor.Tensor, 3)
	for i := range tensors {
		tensors[i] = tensor.FromSlice(confVec(7, r, seed+13+int64(i)), 7)
		fu.Add(tensors[i])
	}
	if err := fu.Flush(); err != nil {
		t.Errorf("rank %d fused flush: %v", r, err)
		return o
	}
	for _, ten := range tensors {
		o.fused = append(o.fused, ten.Data)
	}
	if err := h1.Wait(); err != nil {
		t.Errorf("rank %d async allreduce: %v", r, err)
		return o
	}
	o.asyncGather, err = gh.Wait()
	if err != nil {
		t.Errorf("rank %d async allgather: %v", r, err)
		return o
	}

	// Fused exchange through error-feedback compression: float16 is exact
	// on the small-integer inputs, so residuals stay zero and the result
	// must equal the rank-order accumulated mean. This exercises the
	// compressed chunk path (payload allgather + decode + residual update)
	// under the same chaos as every other collective.
	ef := NewErrorFeedback(Float16Codec{})
	efFu := NewFuser(c, 8*10)
	efFu.SetErrorFeedback(ef)
	efTensors := make([]*tensor.Tensor, 3)
	for i := range efTensors {
		efTensors[i] = tensor.FromSlice(confVec(7, r, seed+16+int64(i)), 7)
		efFu.Add(efTensors[i])
	}
	if err := efFu.Flush(); err != nil {
		t.Errorf("rank %d EF fused flush: %v", r, err)
		return o
	}
	for _, ten := range efTensors {
		o.efFused = append(o.efFused, ten.Data)
	}
	return o
}

// checkEqual asserts bit-identical float slices.
func checkEqual(t *testing.T, what string, rank int, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Errorf("%s rank %d: length %d, want %d", what, rank, len(got), len(want))
		return
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("%s rank %d: elem %d = %v, want %v", what, rank, i, got[i], want[i])
			return
		}
	}
}

// confReferenceMean replicates AllreduceMean's arithmetic: exact integer
// sum, then one multiply by 1/p.
func confReferenceMean(n, p int, seed int64) []float64 {
	out := confSum(n, p, seed)
	inv := 1 / float64(p)
	for i := range out {
		out[i] *= inv
	}
	return out
}

// confCompressedMean replicates the compressed fused chunk path's
// arithmetic: decoded blocks accumulated with v·1/p in rank order, exact on
// small integers.
func confCompressedMean(n, p int, seed int64) []float64 {
	out := make([]float64, n)
	inv := 1 / float64(p)
	for r := 0; r < p; r++ {
		for i, v := range confVec(n, r, seed) {
			out[i] += v * inv
		}
	}
	return out
}

func runConformance(t *testing.T, p int, seed int64, cfg ChaosConfig) {
	t.Helper()
	fab := NewChaosFabric(NewInprocFabric(p), p, cfg)
	outs := make([]*confOut, p)
	var wg sync.WaitGroup
	for r := 0; r < p; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			outs[r] = confScript(t, NewCommunicator(fab.Endpoint(r)), seed)
		}(r)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	const n = 23
	root := int(seed) % p

	wantSum := confSum(n, p, seed)
	wantMean := confReferenceMean(n, p, seed+1)
	wantBcast := confVec(n, root, seed+100)
	wantReduce := confSum(n, p, seed+4)
	wantAsync := confReferenceMean(n, p, seed+11)

	// A compressed chunk accumulates dec(block_r)·1/p in rank order;
	// small integers are exact in float16, so dec(block_r) = input_r.
	wantComp := confCompressedMean(n, p, seed+10)

	for r := 0; r < p; r++ {
		o := outs[r]
		checkEqual(t, "AllreduceSum", r, o.sum, wantSum)
		checkEqual(t, "AllreduceMean", r, o.mean, wantMean)
		checkEqual(t, "Broadcast", r, o.bcast, wantBcast)
		for q := 0; q < p; q++ {
			checkEqual(t, fmt.Sprintf("Allgather[%d]", q), r, o.gatherv[q], confVec(q+1, q, seed+3))
			checkEqual(t, fmt.Sprintf("AllgatherVAsync[%d]", q), r, o.asyncGather[q], confVec(q+1, q, seed+12))
		}
		if r == root {
			checkEqual(t, "Reduce(root)", r, o.reduce, wantReduce)
			for q := 0; q < p; q++ {
				checkEqual(t, fmt.Sprintf("Gather[%d]", q), r, o.gather[q], confVec(q+2, q, seed+6))
			}
		} else {
			// Non-root Reduce inputs must be left untouched.
			checkEqual(t, "Reduce(non-root)", r, o.reduce, confVec(n, r, seed+4))
		}
		checkEqual(t, "Hierarchical(2)", r, o.hier2, confReferenceMean(n, p, seed+8))
		checkEqual(t, "Hierarchical(3)", r, o.hier3, confReferenceMean(n, p, seed+9))
		checkEqual(t, "Compressed", r, o.compressed, wantComp)
		checkEqual(t, "AllreduceMeanAsync", r, o.asyncMean, wantAsync)
		for i := 0; i < 3; i++ {
			checkEqual(t, fmt.Sprintf("Fused[%d]", i), r, o.fused[i], confReferenceMean(7, p, seed+13+int64(i)))
			checkEqual(t, fmt.Sprintf("EFFused[%d]", i), r, o.efFused[i], confCompressedMean(7, p, seed+16+int64(i)))
		}
	}
}

// TestSPMDConformanceUnderChaos runs the full collective script for world
// sizes 1–8 under injected latency + retried drops, across several seeds
// (property-style: the fault schedule is different for every seed, the
// results must never be).
func TestSPMDConformanceUnderChaos(t *testing.T) {
	worlds := []int{1, 2, 3, 4, 5, 6, 7, 8}
	seeds := []int64{1, 2, 3}
	if testenv.Short() {
		worlds = []int{1, 2, 3, 5, 8}
		seeds = []int64{1}
	}
	for _, p := range worlds {
		for _, seed := range seeds {
			t.Run(fmt.Sprintf("world=%d/seed=%d", p, seed), func(t *testing.T) {
				t.Parallel()
				runConformance(t, p, seed, ChaosConfig{
					Seed:         seed,
					MinLatency:   5 * time.Microsecond,
					MaxLatency:   150 * time.Microsecond,
					DropRate:     0.05,
					MaxRetries:   25,
					RetryBackoff: 5 * time.Microsecond,
				})
			})
		}
	}
}

// TestConsensusCodecSwitchBoundary pins the autotuner's core protocol at
// the comm layer: each rank feeds a locally nondeterministic signal (the
// measured wall-clock cost of its own previous exchange) into a tiny
// consensus allreduce, thresholds the agreed value, and switches its
// error-feedback codec when the threshold trips. Because every input to
// the decision is a consensus output, the switch must land on the same
// iteration on every rank — under chaos latency and retried drops — and
// the exchanged tensors must stay bit-identical across ranks throughout,
// including the iterations after the mid-run switch to a sparsifying
// codec.
func TestConsensusCodecSwitchBoundary(t *testing.T) {
	worlds := []int{2, 3, 5}
	if testenv.Short() {
		worlds = []int{2, 3}
	}
	for _, p := range worlds {
		t.Run(fmt.Sprintf("world=%d", p), func(t *testing.T) {
			t.Parallel()
			const n = 24
			const iters = 20
			fab := NewChaosFabric(NewInprocFabric(p), p, ChaosConfig{
				Seed:         int64(p),
				MinLatency:   5 * time.Microsecond,
				MaxLatency:   100 * time.Microsecond,
				DropRate:     0.05,
				MaxRetries:   25,
				RetryBackoff: 5 * time.Microsecond,
			})
			type rankOut struct {
				switchIter int
				results    [][]float64
			}
			outs := make([]*rankOut, p)
			var wg sync.WaitGroup
			for r := 0; r < p; r++ {
				wg.Add(1)
				go func(r int) {
					defer wg.Done()
					c := NewCommunicator(fab.Endpoint(r))
					ef := NewErrorFeedback(nil) // exact until the consensus trips
					ro := &rankOut{switchIter: -1}
					outs[r] = ro
					var cum, threshold float64
					for it := 0; it < iters; it++ {
						start := time.Now()
						fu := NewFuser(c, 1) // one chunk per tensor
						fu.SetErrorFeedback(ef)
						ten := tensor.FromSlice(confVec(n, r, int64(it)), n)
						fu.Add(ten)
						if err := fu.Flush(); err != nil {
							t.Errorf("rank %d iter %d flush: %v", r, it, err)
							return
						}
						ro.results = append(ro.results, append([]float64(nil), ten.Data...))
						// Local measurement — genuinely different on every
						// rank and every run — then consensus.
						sig := []float64{float64(time.Since(start).Nanoseconds())}
						if err := c.AllreduceMean(sig); err != nil {
							t.Errorf("rank %d iter %d consensus: %v", r, it, err)
							return
						}
						cum += sig[0]
						if it == 0 {
							threshold = 2 * cum
						}
						// Deterministic fallback a few iterations before the
						// end keeps the test flake-free if the first exchange
						// dwarfed all later ones; the trigger is still the
						// consensus value in the common case.
						if ro.switchIter < 0 && it > 0 && (cum > threshold || it == iters-4) {
							ef.SetCodec(TopKCodec{FractionK: 0.5})
							ro.switchIter = it + 1 // effective from the next exchange
						}
					}
				}(r)
			}
			wg.Wait()
			if t.Failed() {
				return
			}
			for r := 1; r < p; r++ {
				if outs[r].switchIter != outs[0].switchIter {
					t.Errorf("rank %d switched at iter %d, rank 0 at %d", r, outs[r].switchIter, outs[0].switchIter)
				}
			}
			if outs[0].switchIter < 1 || outs[0].switchIter >= iters {
				t.Errorf("switch iteration %d outside (0, %d)", outs[0].switchIter, iters)
			}
			for r := 1; r < p; r++ {
				for it := range outs[0].results {
					checkEqual(t, fmt.Sprintf("switched exchange iter=%d", it), r, outs[r].results[it], outs[0].results[it])
				}
			}
		})
	}
}

// TestSPMDConformanceClean is the same script with no chaos — the control
// that separates "collective is wrong" from "collective is wrong under
// faults".
func TestSPMDConformanceClean(t *testing.T) {
	for _, p := range []int{1, 3, 8} {
		t.Run(fmt.Sprintf("world=%d", p), func(t *testing.T) {
			t.Parallel()
			runConformance(t, p, 5, ChaosConfig{})
		})
	}
}
