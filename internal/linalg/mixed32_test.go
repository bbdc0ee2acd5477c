package linalg

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/tensor"
)

// TestSymMul32MatchesFloat64Oracle drives the float32 Gram kernel over
// random k×m inputs — from one element to past the fan-out threshold —
// against the float64 SymMulT1Into on widened copies. The chain is float64,
// so every element must lie within one float32 ULP of the rounded float64
// product (TestSymMul32BitIdenticalToMatMulT1 and the tensor package's
// bit-identity gate pin the distance to zero); the 512·ε₃₂·(k+1) absolute
// budget the chunked float32 kernel was admitted under is kept beside it.
// Exact symmetry of the result is required separately since the lower
// triangle is a mirror copy.
func TestSymMul32MatchesFloat64Oracle(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	const eps32 = 1.1920929e-07
	for _, sh := range []struct{ k, m int }{
		{1, 1}, {3, 5}, {64, 12}, {65, 12}, {200, 33}, {300, 96},
	} {
		a32 := tensor.NewT32(sh.k, sh.m)
		for i := range a32.Data {
			a32.Data[i] = float32(rng.Float64()*2 - 1)
		}
		a64 := tensor.New(sh.k, sh.m)
		tensor.Widen(a64.Data, a32.Data)

		got := tensor.NewT32(sh.m, sh.m)
		SymMulT1Into32(got, a32)
		want := SymMulT1(a64)

		tol := 64 * eps32 * 8 * (float64(sh.k) + 1)
		for i, g := range got.Data {
			if d := math.Abs(float64(g) - want.Data[i]); d > tol {
				t.Fatalf("k=%d m=%d element %d: got %v want %v (|Δ|=%.3e > %.3e)",
					sh.k, sh.m, i, g, want.Data[i], d, tol)
			}
			w := float32(want.Data[i])
			if inf := float32(math.Inf(1)); g != w && g != math.Nextafter32(w, inf) && g != math.Nextafter32(w, -inf) {
				t.Fatalf("k=%d m=%d element %d: got %v, over one float32 ULP from the float64 product %v",
					sh.k, sh.m, i, g, want.Data[i])
			}
		}
		for i := 0; i < sh.m; i++ {
			for j := 0; j < i; j++ {
				if got.Data[i*sh.m+j] != got.Data[j*sh.m+i] {
					t.Fatalf("k=%d m=%d asymmetric at (%d,%d)", sh.k, sh.m, i, j)
				}
			}
		}
	}
}

// TestSymMul32ZeroAllocSteadyState asserts the parallel float32 Gram kernel
// allocates nothing once the GEMM workspaces are warm.
func TestSymMul32ZeroAllocSteadyState(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	a := tensor.NewT32(300, 96)
	for i := range a.Data {
		a.Data[i] = float32(rng.Float64()*2 - 1)
	}
	dst := tensor.NewT32(96, 96)
	SymMulT1Into32(dst, a)
	if allocs := testing.AllocsPerRun(10, func() { SymMulT1Into32(dst, a) }); allocs != 0 {
		t.Fatalf("SymMulT1Into32 allocates %v times per call", allocs)
	}
}
