package comm

import (
	"encoding/binary"
	"math"
	"testing"
)

// Fuzz harnesses for the gradient-compression codecs. Checked in with
// their seed corpora (the f.Add calls below), they run as plain regression
// tests under `go test` and expand coverage under `go test -fuzz=Fuzz…`.
// Invariants:
//
//   - EncodeInto output length always equals CompressedLen;
//   - DecodeInto never panics, whatever bytes arrive off the wire — it
//     either round-trips or returns an error;
//   - Float16 round-trips are within half-precision error bounds;
//   - TopK round-trips reproduce the kept entries bit-exactly and zero
//     the rest.

// floatsFromBytes reinterprets a fuzzer byte string as float64 words.
func floatsFromBytes(b []byte) []float64 {
	out := make([]float64, len(b)/8)
	for i := range out {
		out[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[8*i:]))
	}
	return out
}

func FuzzFloat16RoundTrip(f *testing.F) {
	seeds := []float64{
		0, -0.0, 1, -1, 0.5, 1.0 / 3, 65504, -65504, 65505, 65520, 70000,
		6.10352e-5, 6.0e-5, 5.96e-8, 2.98e-8, 1e-10, -1e-10,
		math.Inf(1), math.Inf(-1), math.NaN(),
		math.MaxFloat64, -math.MaxFloat64, math.SmallestNonzeroFloat64,
		2048, 2049, // half-integer-exactness boundary
	}
	for _, v := range seeds {
		f.Add(v)
	}
	codec := Float16Codec{}
	f.Fuzz(func(t *testing.T, v float64) {
		enc := encode(codec, []float64{v})
		if len(enc) != codec.CompressedLen(1) {
			t.Fatalf("encode length %d != CompressedLen %d", len(enc), codec.CompressedLen(1))
		}
		dec, err := decode(codec, enc, 1)
		if err != nil {
			t.Fatalf("decode: %v", err)
		}
		got := dec[0]
		switch {
		case math.IsNaN(v):
			if !math.IsNaN(got) {
				t.Fatalf("NaN decoded to %v", got)
			}
		case math.Abs(v) > 65520:
			// Beyond the rounding boundary of the half range: must saturate
			// to an infinity of the right sign.
			if !math.IsInf(got, int(math.Copysign(1, v))) {
				t.Fatalf("%v decoded to %v, want signed Inf", v, got)
			}
		case math.Abs(v) >= 6.103515625e-5: // smallest normal half
			// Normal range: round-to-nearest gives ≤ 2⁻¹⁰ relative error
			// (values in (65504, 65520] may also legally round up to Inf).
			if math.IsInf(got, 0) && math.Abs(v) > 65504 {
				return
			}
			if rel := math.Abs(got-v) / math.Abs(v); rel > 1.0/1024 {
				t.Fatalf("%v decoded to %v, relative error %g > 2^-10", v, got, rel)
			}
		default:
			// Subnormal half range: absolute error bounded by one subnormal
			// ulp (2⁻²⁴).
			if math.Abs(got-v) > 1.0/(1<<24) {
				t.Fatalf("%v decoded to %v, absolute error %g > 2^-24", v, got, math.Abs(got-v))
			}
		}
		if v != 0 && got != 0 && math.Signbit(got) != math.Signbit(v) {
			t.Fatalf("%v decoded to %v: sign flipped", v, got)
		}
	})
}

func FuzzFloat16VectorRoundTrip(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8})
	f.Add(make([]byte, 8*7)) // non-multiple-of-4 element count
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xef, 0x7f})
	codec := Float16Codec{}
	f.Fuzz(func(t *testing.T, b []byte) {
		src := floatsFromBytes(b)
		enc := encode(codec, src)
		if len(enc) != codec.CompressedLen(len(src)) {
			t.Fatalf("encode length %d != CompressedLen %d", len(enc), codec.CompressedLen(len(src)))
		}
		dec, err := decode(codec, enc, len(src))
		if err != nil {
			t.Fatalf("decode: %v", err)
		}
		if len(dec) != len(src) {
			t.Fatalf("decode length %d != %d", len(dec), len(src))
		}
		// Re-encoding the decoded vector must be a fixed point: every
		// decoded value is exactly representable in half precision.
		enc2 := encode(codec, dec)
		for i := range enc {
			a, b := math.Float64bits(enc[i]), math.Float64bits(enc2[i])
			if a != b {
				t.Fatalf("word %d: re-encode changed bits %x → %x", i, a, b)
			}
		}
	})
}

func FuzzFloat16AdversarialDecode(f *testing.F) {
	f.Add([]byte{}, 0)
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8}, 4)
	f.Add(make([]byte, 16), 9)           // payload too short for n
	f.Add(make([]byte, 16), -3)          // negative n
	f.Add(make([]byte, 16), math.MaxInt) // (n+3)/4 overflow guard
	f.Add(make([]byte, 16), math.MaxInt-2)
	codec := Float16Codec{}
	f.Fuzz(func(t *testing.T, b []byte, n int) {
		if n < 0 {
			n = -n
		}
		n %= 1 << 16 // bound the output allocation, not the attack surface
		// A payload decodes exactly when it holds a half for every value.
		payload := floatsFromBytes(b)
		err := codec.DecodeInto(make([]float64, n), payload)
		if fits := n <= 4*len(payload); (err == nil) != fits {
			t.Fatalf("n=%d from %d words: err=%v", n, len(payload), err)
		}
	})
}

func FuzzTopKRoundTrip(f *testing.F) {
	f.Add([]byte{}, 1)
	f.Add(make([]byte, 8*6), 3)
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0xf0, 0x7f, 1, 0, 0, 0, 0, 0, 0, 0}, 1) // +Inf entry
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0xf8, 0x7f, 2, 2, 2, 2, 2, 2, 2, 2}, 2) // NaN entry
	f.Fuzz(func(t *testing.T, b []byte, k int) {
		src := floatsFromBytes(b)
		if k < 0 {
			k = -k
		}
		codec := TopKCodec{FractionK: float64(k%8+1) / 8}
		enc := encode(codec, src)
		if len(enc) != codec.CompressedLen(len(src)) {
			t.Fatalf("encode length %d != CompressedLen %d", len(enc), codec.CompressedLen(len(src)))
		}
		dec, err := decode(codec, enc, len(src))
		if err != nil {
			t.Fatalf("decode of own encoding: %v", err)
		}
		if len(dec) != len(src) {
			t.Fatalf("decode length %d != %d", len(dec), len(src))
		}
		kept := 0
		for i := range dec {
			if math.Float64bits(dec[i]) == 0 {
				continue // not selected (or a kept exact +0 — indistinguishable, fine)
			}
			kept++
			if math.Float64bits(dec[i]) != math.Float64bits(src[i]) {
				t.Fatalf("index %d: kept value %v != source %v", i, dec[i], src[i])
			}
		}
		if max := codec.kFor(len(src)); kept > max {
			t.Fatalf("decoded %d non-zeros, codec keeps at most %d", kept, max)
		}
	})
}

func FuzzTopKAdversarialDecode(f *testing.F) {
	f.Add([]byte{}, 4)
	huge := make([]byte, 8)
	binary.LittleEndian.PutUint64(huge, math.Float64bits(4.5e18)) // count overflowing 1+2*k
	f.Add(huge, 4)
	nan := make([]byte, 8)
	binary.LittleEndian.PutUint64(nan, math.Float64bits(math.NaN()))
	f.Add(nan, 4)
	neg := make([]byte, 24)
	binary.LittleEndian.PutUint64(neg, math.Float64bits(1))
	binary.LittleEndian.PutUint64(neg[8:], math.Float64bits(-1)) // negative index
	f.Add(neg, 4)
	frac := make([]byte, 24)
	binary.LittleEndian.PutUint64(frac, math.Float64bits(1))
	binary.LittleEndian.PutUint64(frac[8:], math.Float64bits(0.5)) // fractional index
	f.Add(frac, 4)
	f.Fuzz(func(t *testing.T, b []byte, n int) {
		if n < 0 {
			n = -n
		}
		n %= 1 << 16 // bound the output allocation, not the attack surface
		codec := TopKCodec{FractionK: 0.5}
		dec, err := decode(codec, floatsFromBytes(b), n)
		if err == nil && len(dec) != n {
			t.Fatalf("decode returned %d values for n=%d without error", len(dec), n)
		}
	})
}
