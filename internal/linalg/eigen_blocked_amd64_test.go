//go:build amd64 && !purego

package linalg

import (
	"hash/fnv"
	"math"
	"math/rand"
	"testing"

	"repro/internal/tensor"
)

// symEigBlockedHash is the FNV-1a hash of the bits of Q, then Values, of the
// blocked solve in TestSymEigBlockedBitsPinned. A change that moves the
// solver's bits on purpose updates it and says so.
const symEigBlockedHash = 0xf5a810b4fae65690

// TestSymEigBlockedBitsPinned pins the blocked solver's bits on a K-FAC-like
// factor at n = 216, at teams 1 and 2: the tridiagonalization, the divide and
// conquer and the reflector application all run, where the trainer's pinned
// trajectory only reaches the serial fallback below eigBlockedMinDim. The
// file builds on amd64 without purego only, and the test skips without the
// AVX2+FMA kernels: the portable dot sums in another order.
func TestSymEigBlockedBitsPinned(t *testing.T) {
	if !tensor.HasAVX2() {
		t.Skip("no AVX2+FMA: the blocked solver's bits are pinned for the SIMD kernels")
	}
	const n = 216
	a := kfacFactor(rand.New(rand.NewSource(n)), n, 72, 8)
	for _, team := range []int{1, 2} {
		var eg Eigen
		if err := SymEigBlockedInto(a, &eg, team); err != nil {
			t.Fatal(err)
		}
		h := fnv.New64a()
		var b [8]byte
		for _, s := range [][]float64{eg.Q.Data, eg.Values} {
			for _, v := range s {
				bits := math.Float64bits(v)
				for i := range b {
					b[i] = byte(bits >> (8 * i))
				}
				h.Write(b[:])
			}
		}
		if got := h.Sum64(); got != symEigBlockedHash {
			t.Errorf("team=%d: hash %#x, want %#x: the blocked solver's bits moved", team, got, uint64(symEigBlockedHash))
		}
	}
}
