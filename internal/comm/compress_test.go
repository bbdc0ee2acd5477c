package comm

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/tensor"
)

// encode runs c.EncodeInto on a fresh payload buffer.
func encode(c Codec, src []float64) []float64 {
	return c.EncodeInto(make([]float64, c.CompressedLen(len(src))), src)
}

// decode runs c.DecodeInto on a fresh n-vector.
func decode(c Codec, payload []float64, n int) ([]float64, error) {
	dst := make([]float64, n)
	return dst, c.DecodeInto(dst, payload)
}

func TestFloat16RoundTripExactValues(t *testing.T) {
	// Values exactly representable in binary16 must round trip exactly.
	exact := []float64{0, 1, -1, 0.5, 2, 1024, -0.25, 65504 /* max half */}
	for _, v := range exact {
		h := float16FromFloat64(v)
		back := float16ToFloat64(h)
		if back != v {
			t.Errorf("float16 round trip %v → %v", v, back)
		}
	}
}

func TestFloat16SpecialValues(t *testing.T) {
	if !math.IsInf(float16ToFloat64(float16FromFloat64(1e10)), 1) {
		t.Error("overflow should map to +Inf")
	}
	if !math.IsInf(float16ToFloat64(float16FromFloat64(math.Inf(-1))), -1) {
		t.Error("-Inf should survive")
	}
	if !math.IsNaN(float16ToFloat64(float16FromFloat64(math.NaN()))) {
		t.Error("NaN should survive")
	}
	if float16ToFloat64(float16FromFloat64(1e-12)) != 0 {
		t.Error("tiny values flush to zero")
	}
}

// Property: half-precision quantization error is bounded by 2⁻¹⁰ relative
// for normal-range values.
func TestFloat16RelativeErrorProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		v := rng.NormFloat64()
		if math.Abs(v) < 1e-4 {
			return true
		}
		back := float16ToFloat64(float16FromFloat64(v))
		return math.Abs(back-v) <= math.Abs(v)*1.0/1024+1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestFloat16CodecVector(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	c := Float16Codec{}
	for _, n := range []int{1, 3, 4, 5, 17, 100} {
		src := make([]float64, n)
		for i := range src {
			src[i] = rng.NormFloat64()
		}
		enc := encode(c, src)
		if len(enc) != c.CompressedLen(n) {
			t.Fatalf("n=%d: payload %d words, want %d", n, len(enc), c.CompressedLen(n))
		}
		dec, err := decode(c, enc, n)
		if err != nil {
			t.Fatal(err)
		}
		for i := range src {
			if math.Abs(dec[i]-src[i]) > math.Abs(src[i])/512+1e-4 {
				t.Fatalf("n=%d elem %d: %v vs %v", n, i, dec[i], src[i])
			}
		}
	}
	if _, err := decode(c, []float64{0}, 100); err == nil {
		t.Error("short payload should error")
	}
}

func TestTopKCodecKeepsLargest(t *testing.T) {
	c := TopKCodec{FractionK: 0.25} // ceil(0.25·5) = 2
	src := []float64{0.1, -5, 0.2, 3, 0}
	dec, err := decode(c, encode(c, src), len(src))
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{0, -5, 0, 3, 0}
	for i := range want {
		if dec[i] != want[i] {
			t.Fatalf("dec = %v, want %v", dec, want)
		}
	}
}

func TestTopKCodecFraction(t *testing.T) {
	c := TopKCodec{FractionK: 0.25}
	if k := c.kFor(100); k != 25 {
		t.Errorf("kFor(100) = %d, want 25", k)
	}
	if k := c.kFor(1); k != 1 {
		t.Errorf("kFor(1) = %d, want 1", k)
	}
	// A fraction of one keeps every entry.
	if k := (TopKCodec{FractionK: 1}).kFor(10); k != 10 {
		t.Errorf("kFor(10) at fraction 1 = %d, want 10", k)
	}
}

func TestTopKCodecErrors(t *testing.T) {
	c := TopKCodec{FractionK: 0.5}
	if _, err := decode(c, nil, 5); err == nil {
		t.Error("empty payload should error")
	}
	if _, err := decode(c, []float64{2, 0, 1}, 5); err == nil {
		t.Error("truncated payload should error")
	}
	if _, err := decode(c, []float64{1, 99, 1}, 5); err == nil {
		t.Error("out-of-range index should error")
	}
}

// Property: top-k residual + decoded reconstruction = original.
func TestTopKResidualDecomposition(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 4 + rng.Intn(40)
		c := TopKCodec{FractionK: float64(1+rng.Intn(4)) / 8}
		src := make([]float64, n)
		for i := range src {
			src[i] = rng.NormFloat64()
		}
		dec, err := decode(c, encode(c, src), n)
		if err != nil {
			return false
		}
		for i := range src {
			// Every position is either kept exactly or zeroed.
			if dec[i] != 0 && dec[i] != src[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestCompressedAllreduceMeanFloat16: a float16 chunk with error feedback
// averages small values almost exactly and leaves almost no residual.
func TestCompressedAllreduceMeanFloat16(t *testing.T) {
	runWorld(t, 3, func(c *Communicator) error {
		data := tensor.FromSlice([]float64{float64(c.Rank()), 1, 2}, 3)
		ef := NewErrorFeedback(Float16Codec{})
		fu := NewFuser(c, 0)
		fu.SetErrorFeedback(ef)
		fu.Add(data)
		if err := fu.Flush(); err != nil {
			return err
		}
		// Mean of {0,1,2} = 1; values small → quantization ≈ exact.
		want := []float64{1, 1, 2}
		for i := range want {
			if math.Abs(data.Data[i]-want[i]) > 1e-3 {
				return fmt.Errorf("mean = %v, want %v", data.Data, want)
			}
		}
		for _, r := range ef.slots[0] {
			if math.Abs(r) > 1e-3 {
				return fmt.Errorf("float16 residual too large: %v", ef.slots[0])
			}
		}
		return nil
	})
}

func TestCompressedAllreduceMeanTopKWithErrorFeedback(t *testing.T) {
	// With k=1 only the largest entry of each rank survives one round, but
	// accumulating residuals (error feedback) recovers the rest over
	// repeated rounds — the standard sparsified-SGD result.
	runWorld(t, 2, func(c *Communicator) error {
		ef := NewErrorFeedback(TopKCodec{FractionK: 0.5}) // k = 1 of 2
		sum := []float64{0, 0}                            // what the optimizer would integrate
		for round := 0; round < 8; round++ {
			grad := tensor.FromSlice([]float64{4, 1}, 2) // same on both ranks
			fu := NewFuser(c, 0)
			fu.SetErrorFeedback(ef)
			fu.Add(grad)
			if err := fu.Flush(); err != nil {
				return err
			}
			sum[0] += grad.Data[0]
			sum[1] += grad.Data[1]
		}
		// Over 8 rounds the integrated update should approach 8×grad in
		// ratio: both coordinates must have been transmitted.
		if sum[1] == 0 {
			return fmt.Errorf("error feedback never flushed the small coordinate")
		}
		return nil
	})
}
