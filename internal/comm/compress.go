package comm

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
)

// Gradient compression codecs. The paper's conclusion names reducing
// communication quantity as future work ("we will also design and evaluate
// solutions to avoid communications and reduce communication quantity");
// this file implements the two standard families so the ablation harness
// can quantify the tradeoff:
//
//   - Float16Codec: lossy scalar quantization to IEEE-754 half precision
//     (the mixed-precision communication used by several of the paper's
//     related works), 2× volume reduction;
//   - TopKCodec: magnitude sparsification keeping the k largest entries as
//     (index, value) pairs, with optional local error feedback handled by
//     the caller.
//
// Codecs encode into []float64 transport payloads so they compose with any
// Transport; the volume accounting (CompressedLen) feeds the α–β model.

// Codec converts between a dense vector and its compressed wire form.
type Codec interface {
	// Encode compresses src into a transport payload.
	Encode(src []float64) []float64
	// Decode expands a payload produced by Encode back to length n.
	Decode(payload []float64, n int) ([]float64, error)
	// CompressedLen returns the payload length for an n-vector.
	CompressedLen(n int) int
	// Name identifies the codec.
	Name() string
}

// ParseCodec decodes a codec name as the command line and job specs spell
// it, case-insensitively: "" or "none" is exact transmission (nil),
// "float16" is Float16Codec, and "topk" is TopKCodec keeping topkFrac of the
// coordinates. topkFrac must lie in (0, 1] for "topk" and be 0 otherwise.
func ParseCodec(name string, topkFrac float64) (Codec, error) {
	var c Codec
	switch strings.ToLower(name) {
	case "", "none":
	case "float16":
		c = Float16Codec{}
	case "topk":
		if !(topkFrac > 0 && topkFrac <= 1) {
			return nil, fmt.Errorf("comm: codec topk needs a kept fraction in (0, 1], got %v", topkFrac)
		}
		return TopKCodec{FractionK: topkFrac}, nil
	default:
		return nil, fmt.Errorf("comm: unknown codec %q (want none, float16, or topk)", name)
	}
	if topkFrac != 0 {
		return nil, fmt.Errorf("comm: a top-k fraction (%v) requires codec topk", topkFrac)
	}
	return c, nil
}

// Float16Codec packs each value to IEEE-754 binary16, four per float64
// word. Quantization is round-to-nearest-even with overflow to ±Inf and
// flush of subnormals handled by the conversion.
type Float16Codec struct{}

// Name implements Codec.
func (Float16Codec) Name() string { return "float16" }

// CompressedLen implements Codec.
func (Float16Codec) CompressedLen(n int) int { return (n + 3) / 4 }

// Encode implements Codec.
func (c Float16Codec) Encode(src []float64) []float64 {
	return c.EncodeInto(make([]float64, (len(src)+3)/4), src)
}

// EncodeInto is Encode writing into a caller-supplied payload buffer of
// length CompressedLen(len(src)) — the allocation-free path the
// error-feedback fusion layer uses with pooled buffers. The buffer is fully
// overwritten; the (possibly reused) contents need not be zeroed.
func (Float16Codec) EncodeInto(dst, src []float64) []float64 {
	dst = dst[:(len(src)+3)/4]
	for i := range dst {
		dst[i] = 0
	}
	for i, v := range src {
		h := uint64(float16FromFloat64(v))
		word := i / 4
		shift := uint(16 * (i % 4))
		bits := math.Float64bits(dst[word])
		bits |= h << shift
		dst[word] = math.Float64frombits(bits)
	}
	return dst
}

// Decode implements Codec.
func (c Float16Codec) Decode(payload []float64, n int) ([]float64, error) {
	if n < 0 {
		return nil, fmt.Errorf("comm: float16 decode with negative length %d", n)
	}
	// Check the bound before allocating n words — n is wire-controlled.
	if n > 4*len(payload) {
		return nil, fmt.Errorf("comm: float16 payload too short: %d words for n=%d", len(payload), n)
	}
	out := make([]float64, n)
	if err := c.DecodeInto(out, payload); err != nil {
		return nil, err
	}
	return out, nil
}

// DecodeInto is Decode expanding into a caller-supplied buffer whose
// length selects the output count (the allocation-free counterpart of
// EncodeInto). Validation matches Decode.
func (Float16Codec) DecodeInto(dst, payload []float64) error {
	n := len(dst)
	// Bound n by the payload before any arithmetic on it: n near MaxInt
	// would wrap (n+3)/4 negative and defeat a ceil-division guard. This
	// single comparison is the full check — n ≤ 4·len(payload) is exactly
	// "the payload has a half-slot for every requested element".
	if n > 4*len(payload) {
		return fmt.Errorf("comm: float16 payload too short: %d words for n=%d", len(payload), n)
	}
	for i := range dst {
		word := i / 4
		shift := uint(16 * (i % 4))
		bits := math.Float64bits(payload[word])
		dst[i] = float16ToFloat64(uint16(bits >> shift))
	}
	return nil
}

// float16FromFloat64 converts with round-to-nearest-even.
func float16FromFloat64(v float64) uint16 {
	f32 := float32(v)
	bits := math.Float32bits(f32)
	sign := uint16(bits>>16) & 0x8000
	exp := int32(bits>>23&0xff) - 127 + 15
	mant := bits & 0x7fffff
	switch {
	case exp >= 31: // overflow → inf; NaN keeps a payload bit
		if math.IsNaN(v) {
			return sign | 0x7e00
		}
		return sign | 0x7c00
	case exp <= 0: // subnormal or zero
		if exp < -10 {
			return sign
		}
		mant |= 0x800000
		shift := uint32(14 - exp)
		half := uint32(1) << (shift - 1)
		m := (mant + half) >> shift
		return sign | uint16(m)
	default:
		// Round mantissa from 23 to 10 bits, nearest-even.
		m := mant >> 13
		if mant&0x1fff > 0x1000 || (mant&0x1fff == 0x1000 && m&1 == 1) {
			m++
		}
		h := sign | uint16(exp)<<10 + uint16(m)
		return h
	}
}

// float16ToFloat64 expands a binary16 value.
func float16ToFloat64(h uint16) float64 {
	sign := float64(1)
	if h&0x8000 != 0 {
		sign = -1
	}
	exp := int(h >> 10 & 0x1f)
	mant := float64(h & 0x3ff)
	switch exp {
	case 0:
		return sign * mant * math.Pow(2, -24)
	case 31:
		if mant != 0 {
			// Preserve the sign bit so encode∘decode is a fixed point on
			// NaN payloads too (found by FuzzFloat16VectorRoundTrip).
			nan := math.NaN()
			if h&0x8000 != 0 {
				nan = math.Float64frombits(math.Float64bits(nan) | 1<<63)
			}
			return nan
		}
		return sign * math.Inf(1)
	default:
		return sign * (1 + mant/1024) * math.Pow(2, float64(exp-15))
	}
}

// TopKCodec keeps the k largest-magnitude entries as (index, value) pairs.
// Payload layout: [count, idx₀, val₀, idx₁, val₁, …].
type TopKCodec struct {
	// K is the number of entries to keep; when FractionK > 0, k is computed
	// as ceil(FractionK·n) instead.
	K         int
	FractionK float64
}

// Name implements Codec.
func (c TopKCodec) Name() string { return "topk" }

func (c TopKCodec) kFor(n int) int {
	k := c.K
	if c.FractionK > 0 {
		k = int(math.Ceil(c.FractionK * float64(n)))
	}
	if k < 1 {
		k = 1
	}
	if k > n {
		k = n
	}
	return k
}

// CompressedLen implements Codec.
func (c TopKCodec) CompressedLen(n int) int { return 1 + 2*c.kFor(n) }

// topkMagKey orders values for top-k selection. The raw bit pattern of
// |v| is monotone in |v| for every non-negative float64, gives -0 and +0
// the same rank, totals the order over NaN (which sorts above +Inf, so a
// NaN entry is always "selected" and surfaces downstream instead of
// flapping in and out of the payload), and — unlike a float compare —
// never answers "unordered": two calls on permuted-but-equal inputs pick
// the same entries. Error feedback turns any rank-divergent tie break
// into a silent consensus break, so selection must be a pure function of
// (value, index).
func topkMagKey(v float64) uint64 {
	return math.Float64bits(math.Abs(v))
}

// Encode implements Codec.
func (c TopKCodec) Encode(src []float64) []float64 {
	return c.EncodeInto(make([]float64, c.CompressedLen(len(src))), src)
}

// topkSorter sorts candidate indices by descending magnitude key with an
// ascending-index tiebreak. A pooled pointer implementing sort.Interface
// keeps EncodeInto allocation-free (sort.Slice would box both the slice
// and the comparator on every call).
type topkSorter struct {
	idx []int
	src []float64
}

func (s *topkSorter) Len() int      { return len(s.idx) }
func (s *topkSorter) Swap(a, b int) { s.idx[a], s.idx[b] = s.idx[b], s.idx[a] }
func (s *topkSorter) Less(a, b int) bool {
	ka, kb := topkMagKey(s.src[s.idx[a]]), topkMagKey(s.src[s.idx[b]])
	if ka != kb {
		return ka > kb
	}
	return s.idx[a] < s.idx[b]
}

var topkSorterPool = sync.Pool{New: func() any { return new(topkSorter) }}

// EncodeInto is Encode writing into a caller-supplied payload buffer of
// length CompressedLen(len(src)). Selection keeps the k largest |v|,
// breaking magnitude ties by the LOWER index — a total order, so every
// rank holding equal data emits an identical payload (required for
// error-feedback consensus; see topkMagKey).
func (c TopKCodec) EncodeInto(dst, src []float64) []float64 {
	k := c.kFor(len(src))
	s := topkSorterPool.Get().(*topkSorter)
	if cap(s.idx) < len(src) {
		s.idx = make([]int, len(src))
	}
	s.idx = s.idx[:len(src)]
	s.src = src
	for i := range s.idx {
		s.idx[i] = i
	}
	// Partial selection via full sort is O(n log n); fine at these sizes.
	sort.Sort(s)
	dst = dst[:1+2*k]
	dst[0] = float64(k)
	sel := s.idx[:k]
	sort.Ints(sel) // ascending index order for reproducibility
	for i, j := range sel {
		dst[1+2*i] = float64(j)
		dst[2+2*i] = src[j]
	}
	s.src = nil
	topkSorterPool.Put(s)
	return dst
}

// Decode implements Codec.
func (c TopKCodec) Decode(payload []float64, n int) ([]float64, error) {
	if n < 0 {
		return nil, fmt.Errorf("comm: top-k decode with negative length %d", n)
	}
	if n > math.MaxInt/8 {
		// The output would overflow the allocator's byte count; a request
		// this size is corrupt, not large.
		return nil, fmt.Errorf("comm: top-k decode length %d too large", n)
	}
	out := make([]float64, n)
	if err := c.DecodeInto(out, payload); err != nil {
		return nil, err
	}
	return out, nil
}

// DecodeInto is Decode expanding into a caller-supplied buffer whose
// length selects the output count. The buffer is zeroed before the
// sparse entries are scattered in; validation matches Decode.
func (c TopKCodec) DecodeInto(dst, payload []float64) error {
	n := len(dst)
	if len(payload) < 1 {
		return fmt.Errorf("comm: empty top-k payload")
	}
	// The count word is attacker-controlled on a real wire: reject anything
	// that is not an exact non-negative integer small enough for the
	// payload it claims to describe (a huge count would overflow 1+2*k and
	// turn the bound check into an out-of-range read).
	kf := payload[0]
	if math.IsNaN(kf) || kf != math.Trunc(kf) || kf < 0 || kf > float64((len(payload)-1)/2) {
		return fmt.Errorf("comm: top-k payload has invalid count %v for %d words", kf, len(payload))
	}
	k := int(kf)
	for i := range dst {
		dst[i] = 0
	}
	for i := 0; i < k; i++ {
		jf := payload[1+2*i]
		if math.IsNaN(jf) || jf != math.Trunc(jf) || jf < 0 || jf >= float64(n) {
			return fmt.Errorf("comm: top-k index %v out of range %d", jf, n)
		}
		dst[int(jf)] = payload[2+2*i]
	}
	return nil
}

// codecEncoderInto / codecDecoderInto are the optional allocation-free
// codec extensions; the fusion path uses them when available and falls
// back to Encode/Decode (plus a copy) for third-party codecs.
type codecEncoderInto interface {
	EncodeInto(dst, src []float64) []float64
}

type codecDecoderInto interface {
	DecodeInto(dst, payload []float64) error
}

// encodeInto compresses src into dst (length CompressedLen(len(src)))
// without allocating when the codec supports it.
func encodeInto(c Codec, dst, src []float64) []float64 {
	if e, ok := c.(codecEncoderInto); ok {
		return e.EncodeInto(dst, src)
	}
	out := c.Encode(src)
	dst = dst[:len(out)]
	copy(dst, out)
	return dst
}

// decodeInto expands payload into dst (whose length selects the output
// count) without allocating when the codec supports it.
func decodeInto(c Codec, dst, payload []float64) error {
	if d, ok := c.(codecDecoderInto); ok {
		return d.DecodeInto(dst, payload)
	}
	out, err := c.Decode(payload, len(dst))
	if err != nil {
		return err
	}
	copy(dst, out)
	return nil
}

// CompressedAllreduceMean averages data across ranks through the codec:
// each rank's contribution is compressed, allgathered, decoded and
// averaged. For sparsifying codecs the result is a biased estimate whose
// residual the caller may keep for error feedback (returned as the
// difference between input and the encoded-decoded local contribution).
func (c *Communicator) CompressedAllreduceMean(data []float64, codec Codec) (residual []float64, err error) {
	n := len(data)
	encoded := codec.Encode(data)
	// Local residual for error feedback: x − dec(enc(x)).
	selfDecoded, err := codec.Decode(encoded, n)
	if err != nil {
		return nil, err
	}
	residual = make([]float64, n)
	for i := range residual {
		residual[i] = data[i] - selfDecoded[i]
	}
	blocks, err := c.AllgatherV(encoded)
	if err != nil {
		return nil, err
	}
	for i := range data {
		data[i] = 0
	}
	inv := 1 / float64(len(blocks))
	for _, b := range blocks {
		dec, err := codec.Decode(b, n)
		if err != nil {
			return nil, err
		}
		for i, v := range dec {
			data[i] += v * inv
		}
	}
	return residual, nil
}
