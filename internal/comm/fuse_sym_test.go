package comm

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/tensor"
)

// randSym returns a random symmetric n×n matrix.
func randSym(rng *rand.Rand, n int) *tensor.Tensor {
	t := tensor.New(n, n)
	for i := 0; i < n; i++ {
		for j := i; j < n; j++ {
			v := rng.NormFloat64()
			t.Data[i*n+j], t.Data[j*n+i] = v, v
		}
	}
	return t
}

// bitwiseSymmetric reports the first (i, j) with A[i][j] and A[j][i] not the
// same float64, if any.
func bitwiseSymmetric(t *tensor.Tensor) (i, j int, ok bool) {
	n := t.Rows()
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if math.Float64bits(t.Data[i*n+j]) != math.Float64bits(t.Data[j*n+i]) {
				return i, j, false
			}
		}
	}
	return 0, 0, true
}

// TestFuserSymmetricRoundTrip: symmetric matrices enqueued with AddSymmetric,
// mixed with dense tensors in one Add sequence, come back averaged like the
// dense path, bitwise symmetric, and bitwise equal on every rank — over the
// flat ring, the hierarchical route and the compressed error-feedback
// routes, with the whole sequence in one chunk and with a budget that puts a
// chunk boundary between a symmetric and a dense tensor.
func TestFuserSymmetricRoundTrip(t *testing.T) {
	type route struct {
		name  string
		group int   // hierarchical group size (0 = flat ring)
		codec Codec // wrapped in error feedback when non-nil
		// tol bounds |got − dense-path mean| relative to 1+|mean|; negative
		// skips the comparison (a sparsifier is not close by design).
		tol float64
	}
	routes := []route{
		{name: "flat", tol: 1e-13},
		{name: "hierarchical", group: 2, tol: 1e-13},
		{name: "float16+EF", codec: Float16Codec{}, tol: 2e-3},
		{name: "topk-all+EF", codec: TopKCodec{FractionK: 1}, tol: 1e-13},
		{name: "topk25+EF", codec: TopKCodec{FractionK: 0.25}, tol: -1},
	}
	for _, n := range []int{0, 1, 2, 7, 145, 289} {
		// Add sequence: S(n) sym, D dense [2,5], S(7) sym. The tight budget
		// holds S(n) alone and overflows when D joins it, so the second
		// chunk starts at S(7).
		budgets := []int{1 << 24, 8 * (SymPackedLen(n) + 1)}
		for _, world := range []int{1, 2, 3, 4} {
			for _, rt := range routes {
				for _, budget := range budgets {
					name := fmt.Sprintf("n%d/w%d/%s/budget%d", n, world, rt.name, budget)
					got := make([][]*tensor.Tensor, world)
					want := make([][]*tensor.Tensor, world)
					slotLen := make([]int, world)
					runRanks(t, world, func(c *Communicator) error {
						rng := rand.New(rand.NewSource(int64(1000*n + c.Rank())))
						ts := []*tensor.Tensor{randSym(rng, n), tensor.Randn(rng, 1, 2, 5), randSym(rng, 7)}
						ref := []*tensor.Tensor{ts[0].Clone(), ts[1].Clone(), ts[2].Clone()}
						fu := NewFuser(c, budget)
						fu.SetGroupSize(rt.group)
						ef := NewErrorFeedback(rt.codec)
						fu.SetErrorFeedback(ef)
						fu.AddSymmetric(ts[0])
						fu.Add(ts[1])
						fu.AddSymmetric(ts[2])
						if err := fu.Flush(); err != nil {
							return err
						}
						if len(ef.slots) > 0 {
							slotLen[c.Rank()] = len(ef.slots[0])
						}
						// Dense path: the same matrices as n² values, exact ring.
						if err := allreduceMeanTensors(c, 1<<24, ref...); err != nil {
							return err
						}
						got[c.Rank()], want[c.Rank()] = ts, ref
						return nil
					})
					if t.Failed() {
						return
					}
					for r := 0; r < world; r++ {
						for k, g := range got[r] {
							if k != 1 {
								if i, j, ok := bitwiseSymmetric(g); !ok {
									t.Fatalf("%s rank %d tensor %d: [%d,%d]=%v but [%d,%d]=%v", name, r, k, i, j, g.Data[i*g.Rows()+j], j, i, g.Data[j*g.Rows()+i])
								}
							}
							if !g.Equal(got[0][k], 0) {
								t.Fatalf("%s tensor %d: rank %d differs bitwise from rank 0", name, k, r)
							}
							if rt.tol < 0 {
								continue
							}
							for i, v := range g.Data {
								if w := want[r][k].Data[i]; math.Abs(v-w) > rt.tol*(1+math.Abs(w)) {
									t.Fatalf("%s rank %d tensor %d[%d] = %v, dense path %v", name, r, k, i, v, w)
								}
							}
						}
					}
					// The error-feedback slot of the first chunk is as long as
					// what that chunk put on the wire: packed, not n².
					if rt.codec != nil {
						first := SymPackedLen(n) + 10
						if budget == budgets[0] {
							first += SymPackedLen(7)
						}
						if slotLen[0] != first {
							t.Fatalf("%s: residual slot 0 has %d values, want the packed chunk length %d", name, slotLen[0], first)
						}
					}
				}
			}
		}
	}
}

// byteCounter counts the payload bytes one endpoint sends.
type byteCounter struct {
	Transport
	bytes atomic.Int64
}

func (b *byteCounter) Send(to int, tag uint64, data []float64) error {
	b.bytes.Add(int64(8 * len(data)))
	return b.Transport.Send(to, tag, data)
}

// TestFuserSymmetricWireBytes: what a rank sends for a fused chunk of
// symmetric matrices is the ring formula, 2(p−1)/p of the payload, applied
// to Σ n(n+1)/2 values — not Σ n². A 6-value dense tensor pads the packed
// total to a multiple of 12 so the ring chunks are equal at p = 2, 3, 4 and
// the formula is exact per rank.
func TestFuserSymmetricWireBytes(t *testing.T) {
	dims := []int{7, 145, 289}
	const pad = 6
	packed, dense := pad, pad
	for _, n := range dims {
		packed += SymPackedLen(n)
		dense += n * n
	}
	if packed%12 != 0 {
		t.Fatalf("packed total %d is not a multiple of 12; fix the padding", packed)
	}
	for _, world := range []int{2, 3, 4} {
		fab := NewInprocFabric(world)
		ends := make([]*byteCounter, world)
		var wg sync.WaitGroup
		for r := 0; r < world; r++ {
			ends[r] = &byteCounter{Transport: fab.Endpoint(r)}
			wg.Add(1)
			go func(r int) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(int64(r)))
				fu := NewFuser(NewCommunicator(ends[r]), 1<<24)
				for _, n := range dims {
					fu.AddSymmetric(randSym(rng, n))
				}
				fu.Add(tensor.Randn(rng, 1, pad))
				if err := fu.Flush(); err != nil {
					t.Errorf("world %d rank %d: %v", world, r, err)
				}
			}(r)
		}
		wg.Wait()
		want := int64(8 * 2 * (world - 1) * packed / world)
		for r, e := range ends {
			if got := e.bytes.Load(); got != want {
				t.Errorf("world %d rank %d sent %d bytes, want %d (ring over %d packed values; the dense n² payload would be %d)",
					world, r, got, want, packed, 8*2*(world-1)*dense/world)
			}
		}
	}
}

// TestAddSymmetricRejectsNonSquare: a non-square tensor is a programming
// error and panics with its shape in the message.
func TestAddSymmetricRejectsNonSquare(t *testing.T) {
	for _, shape := range [][]int{{3, 4}, {9}, {2, 2, 2}} {
		func() {
			defer func() {
				msg, _ := recover().(string)
				if !strings.Contains(msg, fmt.Sprint(shape)) {
					t.Errorf("shape %v: panic %q does not name the shape", shape, msg)
				}
			}()
			NewFuser(NewCommunicator(NewInprocFabric(1).Endpoint(0)), 0).AddSymmetric(tensor.New(shape...))
			t.Errorf("shape %v: AddSymmetric did not panic", shape)
		}()
	}
}

// FuzzSymPackRoundTrip: pack → unpack is the identity on the upper triangle,
// whatever bits it holds, and the lower triangle comes back as its exact
// mirror; the packed form has SymPackedLen(n) values.
func FuzzSymPackRoundTrip(f *testing.F) {
	f.Add([]byte{}, uint8(0))
	f.Add(make([]byte, 8), uint8(1))
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 0, 0, 0, 0, 0, 0, 0xf8, 0x7f}, uint8(2)) // a NaN among the values
	f.Add(make([]byte, 8*49), uint8(7))
	f.Fuzz(func(t *testing.T, b []byte, nByte uint8) {
		n := int(nByte) % 24
		vals := floatsFromBytes(b)
		src := tensor.New(n, n)
		for i := range src.Data {
			if len(vals) > 0 {
				src.Data[i] = vals[i%len(vals)]
			}
		}
		e := fuseEntry{t: src.Clone(), sym: true}
		if e.wireLen() != SymPackedLen(n) || e.wireLen() != n*(n+1)/2 {
			t.Fatalf("n=%d: wireLen %d, SymPackedLen %d", n, e.wireLen(), SymPackedLen(n))
		}
		// The slot after the packed region must stay untouched.
		buf := make([]float64, e.wireLen()+1)
		buf[len(buf)-1] = 12345
		e.pack(buf)
		if buf[len(buf)-1] != 12345 {
			t.Fatalf("n=%d: pack wrote past %d values", n, e.wireLen())
		}
		for i := range e.t.Data {
			e.t.Data[i] = -1 // unpack must overwrite every element
		}
		e.unpack(buf)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				want := src.Data[min(i, j)*n+max(i, j)]
				if got := e.t.Data[i*n+j]; math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("n=%d [%d,%d]: got %x, want upper-triangle value %x", n, i, j, math.Float64bits(got), math.Float64bits(want))
				}
			}
		}
	})
}
