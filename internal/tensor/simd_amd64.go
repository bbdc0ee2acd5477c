//go:build amd64 && !purego

package tensor

// AVX2+FMA implementations of the float32 conversion primitives and of the
// GEMM kernel set (simd_amd64.s), swapped into the dispatch
// variables at init when the CPU and OS support them. Build with -tags
// purego to keep the portable path (the conformance oracle) on any hardware.

//go:noescape
func foldAccAVX(acc []float64, src []float32)

//go:noescape
func widenAVX(dst []float64, src []float32)

//go:noescape
func narrowAVX(dst []float32, src []float64)

// gemmKernelAVX is the gemmMR×gemmNR float64 micro-kernel: twelve YMM
// accumulators, one VFMADD231PD per term — bit-identical to gemmKernelGo.
//
//go:noescape
func gemmKernelAVX(kc int, a, b, c []float64, ldc int, load bool)

// copyStepsAVX is gemmKernels.copySteps with 4-wide vector moves; w must be
// gemmMR or gemmNR.
//
//go:noescape
func copyStepsAVX(dst, src []float64, ld, kc, w int)

// transLanes4AVX is gemmKernels.transLanes4 as in-register 4×4 transposes.
//
//go:noescape
func transLanes4AVX(dst, src []float64, ld, kc, w int)

// fmaPeakAVX runs iters steps of twelve independent 4-wide VFMADD231PD
// chains on registers only.
//
//go:noescape
func fmaPeakAVX(iters int)

// fmaPeakLoopAVX is the assembly build's fmaPeakLoop.
func fmaPeakLoopAVX(iters int) int {
	fmaPeakAVX(iters)
	return iters * 12 * 4 * 2
}

// cpuidRaw executes CPUID with the given leaf/subleaf.
func cpuidRaw(eaxIn, ecxIn uint32) (eax, ebx, ecx, edx uint32)

// xgetbv0 reads extended control register 0 (the enabled XSAVE state mask).
func xgetbv0() (eax, edx uint32)

// cpuHasAVX2FMA reports whether the CPU supports AVX2 and FMA and the OS
// has enabled YMM state saving (OSXSAVE + XCR0 bits 1–2) — the full
// precondition for the kernels in simd_amd64.s.
func cpuHasAVX2FMA() bool {
	maxID, _, _, _ := cpuidRaw(0, 0)
	if maxID < 7 {
		return false
	}
	_, _, ecx1, _ := cpuidRaw(1, 0)
	const (
		fma     = 1 << 12
		osxsave = 1 << 27
		avx     = 1 << 28
	)
	if ecx1&fma == 0 || ecx1&osxsave == 0 || ecx1&avx == 0 {
		return false
	}
	// XCR0 bits 1 (SSE/XMM) and 2 (AVX/YMM) must both be OS-enabled.
	xcr0, _ := xgetbv0()
	if xcr0&0x6 != 0x6 {
		return false
	}
	_, ebx7, _, _ := cpuidRaw(7, 0)
	const avx2 = 1 << 5
	return ebx7&avx2 != 0
}

func init() {
	if cpuHasAVX2FMA() {
		foldAccImpl = foldAccAVX
		widenImpl = widenAVX
		narrowImpl = narrowAVX
		gemmActive = gemmKernels{tile: gemmKernelAVX, copySteps: copyStepsAVX, transLanes4: transLanes4AVX}
		fmaPeakLoop = fmaPeakLoopAVX
		kernelISA = "avx2+fma"
	}
}
