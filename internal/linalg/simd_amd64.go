//go:build amd64 && !purego

package linalg

import "repro/internal/tensor"

// AVX2+FMA implementations of the blocked eigensolver's float64 kernel
// primitives (simd_amd64.s), swapped into the dispatch variables at init
// when internal/tensor chose a kernel level of at least AVX2 for this host
// (tensor.HasAVX2), so the process makes one CPU decision. Build with
// -tags purego to keep the portable scalar path on any hardware.

//go:noescape
func dotF64AVX(a, b []float64) float64

//go:noescape
func axpyF64AVX(dst, src []float64, a float64)

func init() {
	if tensor.HasAVX2() {
		eigDot = dotF64AVX
		eigAxpy = axpyF64AVX
	}
}
