package comm

import (
	"fmt"
	"sync"

	"repro/internal/tensor"
)

// DefaultFusionBytes mirrors Horovod's default fusion-buffer threshold
// (paper §II-D: "usually set as 16 MB or 32 MB to guarantee that each
// allreduce() is bandwidth dominated").
const DefaultFusionBytes = 16 << 20

// SymPackedLen returns the number of values a symmetric n×n matrix puts on
// the wire: its row-major upper triangle (i ≤ j), n(n+1)/2. It is the one
// definition of the factor wire size — the Fuser packs by it, and the
// autotuner's bandwidth estimate and simulate.PlanModel price by it.
func SymPackedLen(n int) int { return n * (n + 1) / 2 }

// fuseEntry is one tensor queued for averaging. sym marks a symmetric
// square matrix, which travels as its row-major upper triangle.
type fuseEntry struct {
	t   *tensor.Tensor
	sym bool
}

// wireLen returns the number of values the entry occupies in the packed
// buffer.
func (e fuseEntry) wireLen() int {
	if e.sym {
		return SymPackedLen(e.t.Rows())
	}
	return e.t.Len()
}

// pack writes the entry's wire values to the front of dst: every element
// of a dense tensor, rows i of a symmetric one from the diagonal on.
func (e fuseEntry) pack(dst []float64) {
	if !e.sym {
		copy(dst, e.t.Data)
		return
	}
	n := e.t.Rows()
	for i := 0; i < n; i++ {
		dst = dst[copy(dst, e.t.Data[i*n+i:(i+1)*n]):]
	}
}

// unpack is the inverse of pack: it writes the wire values at the front of
// src back into the tensor and, for a symmetric one, mirrors the upper
// triangle into the lower half — so A[j][i] is the same float64 as A[i][j]
// whatever ring chunk, codec or summation order produced it.
func (e fuseEntry) unpack(src []float64) {
	if !e.sym {
		copy(e.t.Data, src)
		return
	}
	n, d := e.t.Rows(), e.t.Data
	for i := 0; i < n; i++ {
		src = src[copy(d[i*n+i:(i+1)*n], src):]
	}
	for i := 1; i < n; i++ {
		for j := 0; j < i; j++ {
			d[i*n+j] = d[j*n+i]
		}
	}
}

// Chunk is one fused allreduce in flight: a packed buffer plus the tensors
// it was packed from. Wait blocks for the collective and scatters the
// averaged values back into the original tensors exactly once; it is safe
// to call from multiple goroutines.
//
// A compressed chunk (codec != nil) rides an allgather of encoded payloads
// instead of a ring allreduce: Wait decodes every rank's block and averages
// them in rank order — the same deterministic arithmetic as
// CompressedAllreduceMean, so results are bit-identical across ranks. When
// the chunk carries an error-feedback residual slot, Wait also stores the
// part of this rank's compensated contribution that the codec discarded.
type Chunk struct {
	h       *Handle
	gh      *GatherHandle // compressed path (nil for exact chunks)
	codec   Codec         // captured at launch; immune to later SetCodec
	res     []float64     // error-feedback residual slot (nil = bare codec)
	payload []float64     // pooled encoded payload, recycled by Wait
	buf     []float64
	entries []fuseEntry
	once    sync.Once
	err     error
}

// Tensors returns the tensors fused into this chunk, in Add order.
func (ch *Chunk) Tensors() []*tensor.Tensor {
	ts := make([]*tensor.Tensor, len(ch.entries))
	for i, e := range ch.entries {
		ts[i] = e.t
	}
	return ts
}

// Wait blocks until the fused allreduce completes, scatters the averaged
// buffer back into the source tensors, and returns the operation's error.
// On success the packed buffer is recycled into the fusion buffer pool.
func (ch *Chunk) Wait() error {
	ch.once.Do(func() {
		if ch.gh != nil {
			ch.err = ch.waitCompressed()
		} else {
			ch.err = ch.h.Wait()
		}
		if ch.err != nil {
			return
		}
		off := 0
		for _, e := range ch.entries {
			e.unpack(ch.buf[off:])
			off += e.wireLen()
		}
		putBuf(ch.buf)
		ch.buf = nil
	})
	return ch.err
}

// waitCompressed completes a compressed chunk: wait for the allgather,
// update the error-feedback residual from this rank's own payload, then
// average the decoded blocks in rank order into ch.buf.
func (ch *Chunk) waitCompressed() error {
	blocks, err := ch.gh.Wait()
	if err != nil {
		return err
	}
	n := len(ch.buf)
	dec := getBuf(n)
	defer putBuf(dec)
	if ch.res != nil {
		// ch.buf still holds the compensated vector x+r; the payload sent was
		// enc(x+r), so the new residual is (x+r) − dec(enc(x+r)). Decoding the
		// local payload keeps the arithmetic identical to what every peer
		// attributes to this rank.
		if err := decodeInto(ch.codec, dec, ch.payload); err != nil {
			return err
		}
		for i := range ch.res {
			ch.res[i] = ch.buf[i] - dec[i]
		}
	}
	inv := 1 / float64(len(blocks))
	for i := range ch.buf {
		ch.buf[i] = 0
	}
	for _, b := range blocks {
		if err := decodeInto(ch.codec, dec, b); err != nil {
			return err
		}
		for i, v := range dec {
			ch.buf[i] += v * inv
		}
	}
	putBuf(ch.payload)
	ch.payload = nil
	return nil
}

// Fuser batches small tensors into large allreduce payloads, imitating
// Horovod's tensor-fusion buffer. Callers Add tensors (in identical order on
// every rank) and either Flush when done (synchronous use) or consume
// launched chunks incrementally via TakeLaunched/FlushAsync (streaming use:
// the pipelined K-FAC engine reacts to each chunk as it lands instead of
// blocking on the whole set). Tensors are averaged in place. Symmetric
// matrices enqueued with AddSymmetric occupy only their upper triangle in
// the packed buffer; everything downstream of packing — chunk boundaries,
// the error-feedback slot, the codec, the flat or hierarchical route — sees
// that packed length.
//
// Chunk boundaries are a deterministic function of the Add sequence and the
// byte limit, so every rank launches identical collectives in identical
// order — the SPMD requirement for the underlying async allreduces.
type Fuser struct {
	comm      *Communicator
	limit     int // bytes
	groupSize int // ≥2 routes chunks through the hierarchical allreduce
	bare      Codec
	ef        *ErrorFeedback
	ordinal   int // chunk ordinal within this fuser's schedule (EF slot key)
	pending   []fuseEntry
	pendingSz int // wire bytes
	launched  []*Chunk
	taken     int // prefix of launched already handed out
}

// NewFuser creates a fusion buffer over comm with the given byte threshold.
// A non-positive limit selects DefaultFusionBytes.
func NewFuser(comm *Communicator, limitBytes int) *Fuser {
	if limitBytes <= 0 {
		limitBytes = DefaultFusionBytes
	}
	return &Fuser{comm: comm, limit: limitBytes}
}

// SetGroupSize routes every subsequently launched chunk through
// HierarchicalAllreduceMean with the given intra-group rank count — the
// two-level algorithm modeling fast intra-node links (kfac.Options.GroupSize /
// kfac-train -group-size). Values ≤ 1 (and ≥ world) keep the flat ring.
// Must be set identically on every rank, before the first Add whose chunk
// it should affect; chunk boundaries are unaffected, so the collective
// schedule stays deterministic.
func (f *Fuser) SetGroupSize(n int) { f.groupSize = n }

// SetCodec compresses every subsequently launched chunk with c, WITHOUT
// error feedback — the biased estimator, kept for A/B experiments (the
// convergence-safety suite demonstrates it diverging under Top-K). Pass
// nil to return to exact transmission. Same SPMD rules as SetGroupSize:
// identical on every rank, set before the first Add it should affect.
// Compression takes precedence over the hierarchical route (compressed
// chunks ride a flat allgather of encoded payloads).
func (f *Fuser) SetCodec(c Codec) { f.bare = c }

// SetErrorFeedback routes every subsequently launched chunk through ef:
// the chunk is compensated with ef's residual for its ordinal before
// encoding with ef.Codec(), and the residual is updated after decode. The
// accumulator outlives the fuser — recreating a fuser each round with an
// identical Add sequence reuses the same residual slots, which is exactly
// how the trainer and both K-FAC engines persist error feedback across
// steps. A nil ef (or ef with a nil codec) transmits exact. Overrides
// SetCodec.
func (f *Fuser) SetErrorFeedback(ef *ErrorFeedback) { f.ef = ef }

// Add enqueues t for averaging. When the pending set reaches the fusion
// threshold, an asynchronous fused allreduce is launched. A single tensor
// larger than the threshold forms a chunk of its own.
func (f *Fuser) Add(t *tensor.Tensor) { f.add(fuseEntry{t: t}) }

// AddSymmetric enqueues a symmetric square matrix — a Kronecker factor —
// for averaging. Only its row-major upper triangle (SymPackedLen values) is
// packed, counted against the fusion threshold, compressed and sent; Wait
// writes the averaged triangle back and mirrors it into the lower half, so
// the result is bitwise symmetric on every rank. The lower triangle of the
// input is never read. A non-square tensor panics.
func (f *Fuser) AddSymmetric(t *tensor.Tensor) {
	if len(t.Shape) != 2 || t.Shape[0] != t.Shape[1] {
		panic(fmt.Sprintf("comm: AddSymmetric needs a square matrix, got shape %v", t.Shape))
	}
	f.add(fuseEntry{t: t, sym: true})
}

// add queues one entry and launches the pending set once its wire size
// reaches the fusion threshold.
func (f *Fuser) add(e fuseEntry) {
	f.pending = append(f.pending, e)
	f.pendingSz += 8 * e.wireLen()
	if f.pendingSz >= f.limit {
		f.launch()
	}
}

// launch packs the pending tensors into one buffer and starts an async
// mean-allreduce on it.
func (f *Fuser) launch() {
	if len(f.pending) == 0 {
		return
	}
	total := f.pendingSz / 8
	// Drawn from the shared pool; returned by Chunk.Wait after scatter.
	buf := getBuf(total)
	off := 0
	for _, e := range f.pending {
		e.pack(buf[off:])
		off += e.wireLen()
	}
	codec := f.bare
	if f.ef != nil {
		codec = f.ef.Codec()
	}
	if codec != nil && total > 0 {
		// Compressed path: compensate (error feedback only), encode into a
		// pooled payload, allgather the payloads. Decode/average and the
		// residual update happen in Chunk.Wait. The residual slot is claimed
		// here, on the launching goroutine, so concurrent chunk waiters never
		// touch the accumulator's slot table.
		var res []float64
		if f.ef != nil {
			res = f.ef.slot(f.ordinal, total)
			for i, r := range res {
				buf[i] += r
			}
		}
		payload := encodeInto(codec, getBuf(codec.CompressedLen(total)), buf)
		gh := f.comm.AllgatherVAsync(payload)
		f.launched = append(f.launched, &Chunk{
			gh: gh, codec: codec, res: res, payload: payload,
			buf: buf, entries: f.pending,
		})
		f.pending = nil
		f.pendingSz = 0
		f.ordinal++
		return
	}
	h := completedHandle()
	if total > 0 {
		// Zero-element chunks (all-empty tensors) need no wire traffic; every
		// rank sees the same sizes, so all skip identically.
		if f.groupSize > 1 {
			h = f.comm.HierarchicalAllreduceMeanAsync(buf, f.groupSize)
		} else {
			h = f.comm.AllreduceMeanAsync(buf)
		}
	}
	f.launched = append(f.launched, &Chunk{h: h, buf: buf, entries: f.pending})
	f.pending = nil
	f.pendingSz = 0
	f.ordinal++
}

// TakeLaunched returns the chunks launched since the previous call (or
// since creation). It does not force pending tensors out; use FlushAsync at
// the end of the Add sequence.
func (f *Fuser) TakeLaunched() []*Chunk {
	out := f.launched[f.taken:len(f.launched):len(f.launched)]
	f.taken = len(f.launched)
	return out
}

// FlushAsync launches any remaining pending tensors and returns the chunks
// not yet handed out by TakeLaunched. The caller waits on each chunk.
func (f *Fuser) FlushAsync() []*Chunk {
	f.launch()
	return f.TakeLaunched()
}

// Flush launches any remaining fused operation, waits for all in-flight
// operations (including chunks already handed out via TakeLaunched), and
// scatters results back into the original tensors.
func (f *Fuser) Flush() error {
	f.launch()
	var firstErr error
	for _, ch := range f.launched {
		if err := ch.Wait(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	// Drop the backing array: slices previously handed out by TakeLaunched
	// alias it, and reusing it via launched[:0] would overwrite their
	// elements on the next launch.
	f.launched = nil
	f.taken = 0
	return firstErr
}

// AllreduceMeanTensors averages a set of tensors across ranks through a
// fusion buffer — the convenience entry point the trainer uses for gradient
// exchange.
func AllreduceMeanTensors(c *Communicator, limitBytes int, ts ...*tensor.Tensor) error {
	fu := NewFuser(c, limitBytes)
	for _, t := range ts {
		fu.Add(t)
	}
	return fu.Flush()
}
