package comm

import (
	"context"
	"errors"
	"fmt"
	"math/bits"
	"sync/atomic"
)

// Communicator provides MPI/Horovod-style collectives over a Transport.
// All ranks must call the same sequence of collectives (SPMD order); each
// collective consumes one sequence number that namespaces its wire tags, so
// payloads from different collectives can interleave on the transport
// without confusion.
//
// A communicator carries a bound context (context.Background by default;
// see WithContext) consulted by every blocking receive. Cancelling it is a
// HARD abort: in-flight collectives return the context error mid-protocol,
// which desynchronizes the SPMD collective schedule across ranks — after an
// abort the communicator must not be reused for further collectives. For
// cooperative, schedule-preserving cancellation (every rank stops at the
// same point) callers should instead reach consensus through a dedicated
// collective, as trainer.Session.Run does; see docs/ARCHITECTURE.md.
//
// This file holds the synchronous collectives (allreduce, broadcast,
// allgather, reduce, gather), the ring-phase helpers and the recursive
// halving/doubling schedule;
// the asynchronous handle-based variants live in async.go.
type Communicator struct {
	t   Transport
	seq *atomic.Uint64
	ctx context.Context
}

// NewCommunicator wraps a transport endpoint.
func NewCommunicator(t Transport) *Communicator {
	return &Communicator{t: t, seq: new(atomic.Uint64), ctx: context.Background()}
}

// WithContext returns a communicator sharing this one's transport and tag
// sequence whose blocking operations additionally abort when ctx is
// cancelled. The parent and the derived communicator may be used
// interchangeably (the collective schedule is common to both); cancellation
// semantics are the hard-abort contract documented on Communicator.
func (c *Communicator) WithContext(ctx context.Context) *Communicator {
	if ctx == nil {
		ctx = context.Background()
	}
	cp := *c
	cp.ctx = ctx
	return &cp
}

// Rank returns this communicator's rank.
func (c *Communicator) Rank() int { return c.t.Rank() }

// Size returns the number of ranks.
func (c *Communicator) Size() int { return c.t.Size() }

// MetricsProvider is implemented by transports that keep per-endpoint
// delivery counters (ChaosTransport does). The autotuner samples these to
// estimate link health without caring which transport is underneath.
type MetricsProvider interface {
	// Metrics returns a snapshot of the endpoint's delivery counters.
	Metrics() DeliveryMetrics
}

// TransportMetrics returns a snapshot of the underlying transport's
// delivery counters, or ok=false when the transport does not keep any
// (e.g. the plain in-process fabric).
func (c *Communicator) TransportMetrics() (m DeliveryMetrics, ok bool) {
	if p, isP := c.t.(MetricsProvider); isP {
		return p.Metrics(), true
	}
	return DeliveryMetrics{}, false
}

// Close closes the underlying transport.
func (c *Communicator) Close() error { return c.t.Close() }

// recv is the context-bound receive every collective goes through.
func (c *Communicator) recv(from int, tag uint64) ([]float64, error) {
	return c.t.Recv(c.ctx, from, tag)
}

// nextOp reserves a tag namespace for one collective invocation.
func (c *Communicator) nextOp() uint64 { return c.seq.Add(1) << 16 }

func opTag(base uint64, step int) uint64 { return base | uint64(step) }

// split partitions n elements into p nearly equal chunks, returning
// per-chunk counts and displacements.
func split(n, p int) (counts, displs []int) {
	counts = make([]int, p)
	displs = make([]int, p+1)
	base := n / p
	rem := n % p
	for i := 0; i < p; i++ {
		counts[i] = base
		if i < rem {
			counts[i]++
		}
		displs[i+1] = displs[i] + counts[i]
	}
	return counts, displs[:p+1]
}

func mod(a, p int) int { return ((a % p) + p) % p }

// errSegmentMismatch reports a received allreduce chunk or segment whose
// length differs from the local one: the ranks passed buffers of different
// lengths to the same collective.
var errSegmentMismatch = errors.New("comm: allreduce segment length mismatch (ranks must pass equal-length buffers)")

// hop is one step of a ring or pairwise exchange, run on the caller's
// goroutine: it sends out to rank `to`, then receives from rank `from`
// under the same tag, checks the payload is as long as the local segment
// dst, and adds it into dst (sum) or copies it over dst. Sending before
// receiving cannot deadlock because no Transport's Send waits for the
// peer's Recv (the Transport contract).
func (c *Communicator) hop(to, from int, tag uint64, out, dst []float64, sum bool) error {
	if err := c.t.Send(to, tag, out); err != nil {
		return err
	}
	in, err := c.recv(from, tag)
	if err != nil {
		return err
	}
	if len(in) != len(dst) {
		return fmt.Errorf("%w: got %d, want %d", errSegmentMismatch, len(in), len(dst))
	}
	if !sum {
		copy(dst, in)
		return nil
	}
	for i := range dst {
		dst[i] += in[i]
	}
	return nil
}

// ring describes one position in a logical ring: the transport ranks of the
// neighbours plus this member's index and the ring's size. For the common
// all-ranks ring the index is the transport rank; hierarchical allreduce
// builds a leader ring whose indices are group numbers.
type ring struct {
	next, prev  int // transport ranks of the ring neighbours
	index, size int // position within the ring and number of members
}

// fullRing is the ring over every rank of the communicator.
func (c *Communicator) fullRing() ring {
	p := c.Size()
	r := c.Rank()
	return ring{next: mod(r+1, p), prev: mod(r-1, p), index: r, size: p}
}

// chunkOf views chunk i of a buffer partitioned by split's counts/displs.
func chunkOf(data []float64, counts, displs []int, i int) []float64 {
	return data[displs[i] : displs[i]+counts[i]]
}

// ringReduceScatter runs the scatter-reduce phase of the ring allreduce:
// size−1 steps, after which ring member i owns the fully summed chunk
// (i+1) mod size. Tags are base | (stepOff + s).
func (c *Communicator) ringReduceScatter(data []float64, counts, displs []int, rg ring, base uint64, stepOff int) error {
	for s := 0; s < rg.size-1; s++ {
		sendIdx := mod(rg.index-s, rg.size)
		recvIdx := mod(rg.index-s-1, rg.size)
		if err := c.hop(rg.next, rg.prev, opTag(base, stepOff+s),
			chunkOf(data, counts, displs, sendIdx), chunkOf(data, counts, displs, recvIdx), true); err != nil {
			return err
		}
	}
	return nil
}

// ringAllgatherChunks runs the allgather phase of the ring allreduce:
// size−1 steps circulating the reduced chunks until every member holds all
// of them. Tags are base | (stepOff + s).
func (c *Communicator) ringAllgatherChunks(data []float64, counts, displs []int, rg ring, base uint64, stepOff int) error {
	for s := 0; s < rg.size-1; s++ {
		sendIdx := mod(rg.index+1-s, rg.size)
		recvIdx := mod(rg.index-s, rg.size)
		if err := c.hop(rg.next, rg.prev, opTag(base, stepOff+s),
			chunkOf(data, counts, displs, sendIdx), chunkOf(data, counts, displs, recvIdx), false); err != nil {
			return err
		}
	}
	return nil
}

// AllreduceSum sums data elementwise across all ranks, in place. Every
// element ends bit-identical on every rank; see allreduceSumTagged for the
// schedule and its summation order.
func (c *Communicator) AllreduceSum(data []float64) error {
	return c.allreduceSumTagged(data, c.nextOp())
}

// allreduceSumTagged is AllreduceSum with an externally reserved tag base,
// and the one place the allreduce schedule is chosen. On a power-of-two
// world it runs recursive halving then doubling (halvingDoubling: 2·log₂p
// hops, every element summed as the pairwise tree over ranks
// ((x₀+x₁)+(x₂+x₃))+…, wherever it sits in data). On any other world it
// runs the bandwidth-optimal ring (Patarasuk & Yuan): a scatter-reduce
// phase of p−1 steps, after which each rank owns the full sum of one of p
// chunks, then a ring allgather of the reduced chunks in p−1 more; chunk c
// is summed in ring order starting from rank c. Under both, each rank
// sends 2(p−1)/p of the buffer.
func (c *Communicator) allreduceSumTagged(data []float64, base uint64) error {
	p := c.Size()
	if p == 1 {
		return nil
	}
	if p&(p-1) == 0 {
		return c.halvingDoubling(data, base)
	}
	counts, displs := split(len(data), p)
	rg := c.fullRing()
	if err := c.ringReduceScatter(data, counts, displs, rg, base, 0); err != nil {
		return err
	}
	return c.ringAllgatherChunks(data, counts, displs, rg, base, p)
}

// halvingDoubling is the allreduce of a power-of-two world p = 2^k
// (Thakur, Rabenseifner & Gropp, IJHPCA 2005; MPICH's allreduce at
// power-of-two sizes).
//
// Reduce-scatter by recursive halving: at step s = 0…k−1 a rank splits its
// current segment in two (the lower half takes the odd element), keeps the
// lower half when bit s of its rank is 0 and the upper half otherwise,
// sends the other half to rank r XOR 2^s and adds the partner's copy of
// the kept half, dst[i] += in[i]. After step s the kept segment holds the
// sum over the 2^(s+1) ranks that agree with r above bit s, so every
// element reduces along the same pairwise tree, and because a+b == b+a
// exactly, both partners of a step compute the same bits. Allgather by
// recursive doubling: the same partners in reverse order, each sending the
// segment it holds and copying in the partner's, until every rank holds
// the whole buffer. Tag steps are s for halving step s and 2k−1−s for the
// doubling step with partner r XOR 2^s. A segment may be empty (len(data)
// < p); it still travels, so every rank takes every step.
func (c *Communicator) halvingDoubling(data []float64, base uint64) error {
	r := c.Rank()
	k := bits.TrailingZeros(uint(c.Size()))
	// seg[s] is the segment held before halving step s.
	var seg [bits.UintSize][2]int
	lo, hi := 0, len(data)
	for s := 0; s < k; s++ {
		seg[s] = [2]int{lo, hi}
		mid := lo + (hi-lo+1)/2
		keepLo, keepHi, sendLo, sendHi := lo, mid, mid, hi
		if r&(1<<s) != 0 {
			keepLo, keepHi, sendLo, sendHi = mid, hi, lo, mid
		}
		peer := r ^ (1 << s)
		if err := c.hop(peer, peer, opTag(base, s), data[sendLo:sendHi], data[keepLo:keepHi], true); err != nil {
			return err
		}
		lo, hi = keepLo, keepHi
	}
	for s := k - 1; s >= 0; s-- {
		peer := r ^ (1 << s)
		// The partner holds the other half of seg[s].
		dst := data[hi:seg[s][1]]
		if r&(1<<s) != 0 {
			dst = data[seg[s][0]:lo]
		}
		if err := c.hop(peer, peer, opTag(base, 2*k-1-s), data[lo:hi], dst, false); err != nil {
			return err
		}
		lo, hi = seg[s][0], seg[s][1]
	}
	return nil
}

// AllreduceMean averages data elementwise across all ranks, in place. This
// is Horovod's allreduce(average=True), the operation SGD gradient exchange
// and K-FAC factor averaging both use.
func (c *Communicator) AllreduceMean(data []float64) error {
	return c.meanTagged(data, c.nextOp())
}

// meanTagged is AllreduceMean with an externally reserved tag base: the
// allreduce sum, then one scaling by 1/p.
func (c *Communicator) meanTagged(data []float64, base uint64) error {
	if err := c.allreduceSumTagged(data, base); err != nil {
		return err
	}
	inv := 1 / float64(c.Size())
	for i := range data {
		data[i] *= inv
	}
	return nil
}

// Broadcast distributes root's data to all ranks (in place on non-roots)
// over a binomial tree: log₂(p) rounds.
func (c *Communicator) Broadcast(data []float64, root int) error {
	p := c.Size()
	base := c.nextOp()
	if p == 1 {
		return nil
	}
	r := c.Rank()
	rel := mod(r-root, p)
	return c.broadcastTree(data, base, rel, p, func(peerRel int) int {
		return mod(peerRel+root, p)
	})
}

// broadcastTree runs the binomial-tree broadcast over a logical ordering of
// size members in which relative position 0 is the root; rankOf maps a
// relative position to its transport rank. rel is this participant's own
// relative position. Tags are opTag(base, offset) — identical to the layout
// Broadcast has always used, so the full-world case is wire-compatible.
func (c *Communicator) broadcastTree(data []float64, base uint64, rel, size int, rankOf func(int) int) error {
	for offset := 1; offset < size; offset <<= 1 {
		if rel < offset {
			// Already have the data; forward to rel+offset if it exists.
			peer := rel + offset
			if peer < size {
				if err := c.t.Send(rankOf(peer), opTag(base, offset), data); err != nil {
					return err
				}
			}
		} else if rel < 2*offset {
			in, err := c.recv(rankOf(rel-offset), opTag(base, offset))
			if err != nil {
				return err
			}
			if len(in) != len(data) {
				return fmt.Errorf("comm: broadcast size mismatch: %d != %d", len(in), len(data))
			}
			copy(data, in)
		}
	}
	return nil
}

// allgatherVTagged is the ring allgather body with an externally reserved
// tag base: p−1 steps, each forwarding the block received in the previous
// step. Blocks have no common length, so each step sends then receives
// without hop's segment check.
func (c *Communicator) allgatherVTagged(mine []float64, base uint64) ([][]float64, error) {
	p := c.Size()
	r := c.Rank()
	out := make([][]float64, p)
	cp := make([]float64, len(mine))
	copy(cp, mine)
	out[r] = cp
	if p == 1 {
		return out, nil
	}
	next, prev := mod(r+1, p), mod(r-1, p)
	for s := 0; s < p-1; s++ {
		tag := opTag(base, s)
		if err := c.t.Send(next, tag, out[mod(r-s, p)]); err != nil {
			return nil, err
		}
		in, err := c.recv(prev, tag)
		if err != nil {
			return nil, err
		}
		out[mod(r-s-1, p)] = in
	}
	return out, nil
}

// Reduce sums data from all ranks onto root (in place on root; other ranks'
// buffers are left unchanged). Binomial-tree reduction, log₂(p) rounds.
func (c *Communicator) Reduce(data []float64, root int) error {
	p := c.Size()
	if p == 1 {
		return nil
	}
	r := c.Rank()
	base := c.nextOp()
	rel := mod(r-root, p)
	// Accumulate into a scratch copy so non-root callers keep their input.
	acc := data
	if r != root {
		acc = make([]float64, len(data))
		copy(acc, data)
	}
	// Largest power of two ≥ p.
	top := 1
	for top < p {
		top <<= 1
	}
	for offset := 1; offset < top; offset <<= 1 {
		if rel%(2*offset) == offset {
			// Sender this round.
			peer := rel - offset
			return c.t.Send(mod(peer+root, p), opTag(base, offset), acc)
		}
		if rel%(2*offset) == 0 && rel+offset < p {
			in, err := c.recv(mod(rel+offset+root, p), opTag(base, offset))
			if err != nil {
				return err
			}
			if len(in) != len(acc) {
				return fmt.Errorf("comm: reduce size mismatch: %d != %d", len(in), len(acc))
			}
			for i := range acc {
				acc[i] += in[i]
			}
		}
	}
	return nil
}

// Gather collects each rank's (variable-length) contribution onto root.
// root receives a per-rank slice; other ranks receive nil.
func (c *Communicator) Gather(mine []float64, root int) ([][]float64, error) {
	p := c.Size()
	base := c.nextOp()
	if c.Rank() != root {
		return nil, c.t.Send(root, opTag(base, c.Rank()), mine)
	}
	out := make([][]float64, p)
	cp := make([]float64, len(mine))
	copy(cp, mine)
	out[root] = cp
	for r := 0; r < p; r++ {
		if r == root {
			continue
		}
		in, err := c.recv(r, opTag(base, r))
		if err != nil {
			return nil, err
		}
		out[r] = in
	}
	return out, nil
}
