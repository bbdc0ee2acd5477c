package comm

import (
	"math"
	"testing"
)

// Fuzz harness for the error-feedback encode/decode round trip, mirroring
// compress_fuzz_test.go: the seed corpus (including NaN/Inf gradients and
// zero-length tensors) runs as a regression suite under plain `go test`
// and expands under `go test -fuzz=FuzzErrorFeedback…`. Invariants:
//
//   - one compensate → EncodeInto → DecodeInto → residual-update cycle
//     never panics, whatever float bits the gradient holds;
//   - EncodeInto and DecodeInto write the same bits into a reused buffer
//     full of stale values as into a fresh zeroed one (the pooled
//     buffers the Fuser hands them are never cleared);
//   - decoded + residual reconstructs the compensated input exactly for
//     Top-K (it transmits exact entries), so residual mass never leaks.

func efFuzzCorpus(f *testing.F) {
	f.Add([]byte{}, uint8(0), false)         // zero-length tensor
	f.Add(make([]byte, 8*5), uint8(2), true) // zeros, ties everywhere
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8}, uint8(1), false)
	inf := make([]byte, 16)
	for i, b := range []byte{0, 0, 0, 0, 0, 0, 0xf0, 0x7f} { // +Inf
		inf[i] = b
	}
	f.Add(inf, uint8(3), true)
	nan := make([]byte, 24)
	for i, b := range []byte{1, 0, 0, 0, 0, 0, 0xf8, 0x7f} { // NaN payload bits
		nan[i] = b
	}
	f.Add(nan, uint8(4), false)
}

func FuzzErrorFeedbackRoundTrip(f *testing.F) {
	efFuzzCorpus(f)
	f.Fuzz(func(t *testing.T, b []byte, kByte uint8, useTopK bool) {
		src := floatsFromBytes(b)
		n := len(src)
		var codec Codec = Float16Codec{}
		if useTopK {
			codec = TopKCodec{FractionK: float64(int(kByte)%8+1) / 8}
		}
		// Residual from a previous round: reuse the source bits shifted by
		// one so compensation mixes two arbitrary float patterns.
		res := make([]float64, n)
		for i := range res {
			res[i] = src[(i+1)%n] / 2
		}
		comp := make([]float64, n)
		for i := range comp {
			comp[i] = src[i] + res[i]
		}

		// Buffer independence: the pooled buffers the Fuser passes hold
		// stale values, which must not reach the payload or the decode.
		stale := func(n int) []float64 {
			buf := make([]float64, n)
			for i := range buf {
				buf[i] = math.NaN()
			}
			return buf
		}
		payload := codec.EncodeInto(stale(codec.CompressedLen(n)), comp)
		fresh := encode(codec, comp)
		if len(payload) != len(fresh) {
			t.Fatalf("EncodeInto length %d into a reused buffer, %d into a fresh one", len(payload), len(fresh))
		}
		for i := range fresh {
			if math.Float64bits(payload[i]) != math.Float64bits(fresh[i]) {
				t.Fatalf("payload word %d: %x into a reused buffer, %x into a fresh one", i,
					math.Float64bits(payload[i]), math.Float64bits(fresh[i]))
			}
		}

		dec := stale(n)
		if err := codec.DecodeInto(dec, payload); err != nil {
			t.Fatalf("decode of own encoding: %v", err)
		}
		decFresh, err := decode(codec, fresh, n)
		if err != nil {
			t.Fatalf("decode of own encoding: %v", err)
		}
		for i := range dec {
			if math.Float64bits(dec[i]) != math.Float64bits(decFresh[i]) {
				t.Fatalf("decoded elem %d: %v into a reused buffer, %v into a fresh one", i, dec[i], decFresh[i])
			}
		}

		// Residual update: r' = comp − dec. For Top-K the transmitted
		// entries are exact copies, so dec + r' must reconstruct comp
		// bit-for-bit wherever the arithmetic is defined (NaN/Inf entries
		// compare as "both non-finite").
		if useTopK {
			for i := range comp {
				got := dec[i] + (comp[i] - dec[i])
				if math.IsNaN(comp[i]) || math.IsInf(comp[i], 0) {
					if !math.IsNaN(got) && !math.IsInf(got, 0) {
						t.Fatalf("elem %d: non-finite %v reconstructed finite %v", i, comp[i], got)
					}
					continue
				}
				if math.IsNaN(got) || got != comp[i] {
					t.Fatalf("elem %d: dec+residual = %v, want %v", i, got, comp[i])
				}
			}
		}
	})
}

// FuzzErrorFeedbackAdversarialDecode drives DecodeInto with wire-arbitrary
// payloads: it must reject or fill exactly len(dst) values, never panic or
// index out of range.
func FuzzErrorFeedbackAdversarialDecode(f *testing.F) {
	efFuzzCorpus(f)
	f.Fuzz(func(t *testing.T, b []byte, nByte uint8, useTopK bool) {
		payload := floatsFromBytes(b)
		var codec Codec = Float16Codec{}
		if useTopK {
			codec = TopKCodec{FractionK: 0.5}
		}
		dst := make([]float64, int(nByte))
		_ = codec.DecodeInto(dst, payload) // must not panic
	})
}
