package comm

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"
	"time"

	"repro/internal/tensor"
)

// efRoundTrip pushes one vector through a world-1 fused exchange with the
// given accumulator and returns the decoded (transmitted) vector. At world
// 1 the compressed mean is exactly dec(enc(x+r)), which is what every peer
// would attribute to this rank.
func efRoundTrip(t *testing.T, c *Communicator, ef *ErrorFeedback, src []float64) []float64 {
	t.Helper()
	fu := NewFuser(c, 1<<20)
	fu.SetErrorFeedback(ef)
	ten := tensor.FromSlice(append([]float64(nil), src...), len(src))
	fu.Add(ten)
	if err := fu.Flush(); err != nil {
		t.Errorf("flush: %v", err) // Errorf: also called from rank goroutines
	}
	return ten.Data
}

// TestErrorFeedbackTelescopes pins the defining property of error
// feedback: over any horizon, the sum of what was actually transmitted
// plus the final residual equals the sum of the true payloads. With
// integer-valued inputs every intermediate quantity is integer-valued
// (Top-K transmits exact entries), so the identity must hold exactly; the
// float variant allows one rounding per compensation add.
func TestErrorFeedbackTelescopes(t *testing.T) {
	const n = 9
	const rounds = 50
	for _, tc := range []struct {
		name  string
		codec Codec
		gen   func(r *rand.Rand, i int) float64
		exact bool
	}{
		{"topk-int", TopKCodec{FractionK: 0.125}, func(r *rand.Rand, i int) float64 { return float64(r.Intn(21) - 10) }, true},
		{"topk-frac-float", TopKCodec{FractionK: 0.34}, func(r *rand.Rand, i int) float64 { return r.NormFloat64() }, false},
		{"float16-int", Float16Codec{}, func(r *rand.Rand, i int) float64 { return float64(r.Intn(21) - 10) }, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			fab := NewInprocFabric(1)
			c := NewCommunicator(fab.Endpoint(0))
			ef := NewErrorFeedback(tc.codec)
			rng := rand.New(rand.NewSource(42))
			sumTrue := make([]float64, n)
			sumSent := make([]float64, n)
			for step := 0; step < rounds; step++ {
				src := make([]float64, n)
				for i := range src {
					src[i] = tc.gen(rng, i)
					sumTrue[i] += src[i]
				}
				for i, v := range efRoundTrip(t, c, ef, src) {
					sumSent[i] += v
				}
			}
			res := ef.slots[0]
			if len(res) != n {
				t.Fatalf("residual slot length %d, want %d", len(res), n)
			}
			for i := range sumTrue {
				got := sumSent[i] + res[i]
				if tc.exact {
					if got != sumTrue[i] {
						t.Errorf("elem %d: sent+residual = %v, want exactly %v", i, got, sumTrue[i])
					}
				} else if diff := math.Abs(got - sumTrue[i]); diff > 1e-9*(1+math.Abs(sumTrue[i])) {
					t.Errorf("elem %d: sent+residual = %v, want %v (diff %g)", i, got, sumTrue[i], diff)
				}
			}
		})
	}
}

// TestErrorFeedbackSlotReshape: a length change at a chunk ordinal is a
// schedule reshape — the residual for that slot must reset rather than
// alias stale error mass into an unrelated tensor group.
func TestErrorFeedbackSlotReshape(t *testing.T) {
	fab := NewInprocFabric(1)
	c := NewCommunicator(fab.Endpoint(0))
	ef := NewErrorFeedback(TopKCodec{FractionK: 0.25})
	efRoundTrip(t, c, ef, []float64{4, 3, 2, 1})
	res := ef.slots[0]
	if len(res) != 4 {
		t.Fatalf("residual length %d, want 4", len(res))
	}
	nonzero := false
	for _, v := range res {
		nonzero = nonzero || v != 0
	}
	if !nonzero {
		t.Fatalf("expected nonzero residual after k=1 of 4 entries")
	}
	// Reshaped schedule: same ordinal, different length.
	got := efRoundTrip(t, c, ef, []float64{0, 0, 5, 0, 0, 0})
	want := []float64{0, 0, 5, 0, 0, 0}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("reshaped exchange elem %d = %v, want %v (stale residual leaked)", i, got[i], want[i])
		}
	}
	if len(ef.slots[0]) != 6 {
		t.Fatalf("residual slot not resized: %d", len(ef.slots[0]))
	}
}

// TestTopKTieBreakOrderStable pins the index tiebreak: equal magnitudes
// must be kept lowest-index-first, as a pure function of (value, index) —
// any other rule lets ranks with permuted-but-equal intermediate state
// select different entries, which error feedback silently amplifies into
// divergent residuals.
func TestTopKTieBreakOrderStable(t *testing.T) {
	codec := TopKCodec{FractionK: 0.5}
	src := []float64{1, -1, 1, -1, 2, 1}
	payload := encode(codec, src)
	dec, err := decode(codec, payload, len(src))
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	// |2| wins outright; the |1| tie must resolve to indices 0 and 1.
	want := []float64{1, -1, 0, 0, 2, 0}
	for i := range want {
		if dec[i] != want[i] {
			t.Fatalf("elem %d = %v, want %v (payload %v)", i, dec[i], want[i], payload)
		}
	}
	// -0 and +0 carry the same magnitude key, so the tie resolves to the
	// lower index: payload must select indices {0, 2}, never {1, 2}.
	payload = encode(codec, []float64{math.Copysign(0, -1), 0, 3})
	if payload[1] != 0 || payload[3] != 2 {
		t.Fatalf("zero-tie selected indices {%v, %v}, want {0, 2}", payload[1], payload[3])
	}
}

// TestTopKTieCrossRankEquality is the cross-rank pin for the tiebreak fix:
// every rank compresses tie-heavy vectors inside a chaos-scheduled fused
// exchange with error feedback, and the averaged results must be
// bit-identical on every rank, every round. Before the order-stable
// tiebreak, ranks could legally disagree on which tied entry survived,
// which diverges the residual accumulators and breaks SPMD consensus.
func TestTopKTieCrossRankEquality(t *testing.T) {
	const p = 4
	const n = 16
	const rounds = 6
	fab := NewChaosFabric(NewInprocFabric(p), p, ChaosConfig{
		Seed:         9,
		MinLatency:   5 * time.Microsecond,
		MaxLatency:   80 * time.Microsecond,
		DropRate:     0.05,
		MaxRetries:   25,
		RetryBackoff: 5 * time.Microsecond,
	})
	results := make([][][]float64, p)
	var wg sync.WaitGroup
	for r := 0; r < p; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			c := NewCommunicator(fab.Endpoint(r))
			ef := NewErrorFeedback(TopKCodec{FractionK: 0.25})
			for round := 0; round < rounds; round++ {
				// Many repeated magnitudes: (r+round) mod 3 cycles a handful
				// of values so threshold ties are guaranteed.
				src := make([]float64, n)
				for i := range src {
					src[i] = float64((r+round+i)%3 - 1)
				}
				results[r] = append(results[r], efRoundTrip(t, c, ef, src))
			}
		}(r)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	for r := 1; r < p; r++ {
		for round := 0; round < rounds; round++ {
			checkEqual(t, fmt.Sprintf("tie round=%d", round), r, results[r][round], results[0][round])
		}
	}
}

// TestCodecEncodeIntoSteadyStateAllocs: the compensate/encode/decode cycle
// must be allocation-free at steady state — the ISSUE-level guarantee that
// turning compression on does not reintroduce per-step garbage into the
// zero-alloc training loop.
func TestCodecEncodeIntoSteadyStateAllocs(t *testing.T) {
	const n = 256
	src := make([]float64, n)
	for i := range src {
		src[i] = math.Sin(float64(i))
	}
	for _, codec := range []Codec{TopKCodec{FractionK: 0.0625}, Float16Codec{}} {
		dst := make([]float64, codec.CompressedLen(n))
		dec := make([]float64, n)
		// Warm the sorter pool.
		codec.EncodeInto(dst, src)
		allocs := testing.AllocsPerRun(50, func() {
			payload := codec.EncodeInto(dst, src)
			if err := codec.DecodeInto(dec, payload); err != nil {
				t.Fatalf("decode: %v", err)
			}
		})
		if allocs != 0 {
			t.Errorf("%s: %v allocs per encode/decode round, want 0", codec.Name(), allocs)
		}
	}
}
