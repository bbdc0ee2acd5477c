//go:build amd64 && !purego

package linalg

// AVX2+FMA implementations of the blocked eigensolver's float64 kernel
// primitives (simd_amd64.s), swapped into the dispatch variables at init
// when the CPU and OS support them. Build with -tags purego to keep the
// portable scalar path on any hardware. The feature probe mirrors
// internal/tensor's: CPUID AVX2+FMA plus OS-enabled YMM state.

//go:noescape
func dotF64AVX(a, b []float64) float64

//go:noescape
func axpyF64AVX(dst, src []float64, a float64)

// eigCPUID executes CPUID with the given leaf/subleaf.
func eigCPUID(eaxIn, ecxIn uint32) (eax, ebx, ecx, edx uint32)

// eigXGETBV reads extended control register 0.
func eigXGETBV() (eax, edx uint32)

// eigHasAVX2FMA reports whether the CPU supports AVX2 and FMA and the OS
// has enabled YMM state saving.
func eigHasAVX2FMA() bool {
	maxID, _, _, _ := eigCPUID(0, 0)
	if maxID < 7 {
		return false
	}
	_, _, ecx1, _ := eigCPUID(1, 0)
	const (
		fma     = 1 << 12
		osxsave = 1 << 27
		avx     = 1 << 28
	)
	if ecx1&fma == 0 || ecx1&osxsave == 0 || ecx1&avx == 0 {
		return false
	}
	xcr0, _ := eigXGETBV()
	if xcr0&0x6 != 0x6 {
		return false
	}
	_, ebx7, _, _ := eigCPUID(7, 0)
	const avx2 = 1 << 5
	return ebx7&avx2 != 0
}

func init() {
	if eigHasAVX2FMA() {
		eigDot = dotF64AVX
		eigAxpy = axpyF64AVX
	}
}
