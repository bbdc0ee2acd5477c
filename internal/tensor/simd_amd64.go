//go:build amd64 && !purego

package tensor

// Assembly implementations (simd_amd64.s) of the float32 conversion
// primitives (AVX2), of the layer passes (AVX2, layerpass_amd64.s) and of
// two GEMM kernel sets, AVX2 (4×12 tile) and AVX-512 (4×24 tile), swapped
// into the dispatch variables at init as far as the CPU and OS support them.
// Build with -tags purego to keep the portable path (the conformance oracle)
// on any hardware.

//go:noescape
func foldAccAVX(acc []float64, src []float32)

//go:noescape
func widenAVX(dst []float64, src []float32)

//go:noescape
func narrowAVX(dst []float32, src []float64)

// The layer passes' AVX2 twins (layerpass_amd64.s): a per-channel twin runs
// channels [lo, hi), hi − lo a multiple of 4; an elementwise twin takes a
// length that is a multiple of 4.

//go:noescape
func channelSumsAVX(sum, x []float64, lo, hi int)

//go:noescape
func channelSqDevsAVX(sq, x, mean []float64, lo, hi int)

//go:noescape
func channelSumPairAVX(s, sp, dy, xh []float64, lo, hi int)

//go:noescape
func normalizeAVX(xh, out, x, mean, inv, gamma, beta []float64, lo, hi int)

//go:noescape
func normalizeGradAVX(dx, dy, xh, k, s, sp []float64, n float64, lo, hi int)

//go:noescape
func rectifyAVX(dst, src []float64)

//go:noescape
func addRectifyAVX(dst, a, b []float64)

//go:noescape
func rectifyGradAVX(dx, g, out []float64)

//go:noescape
func addAVX(dst, a, b []float64)

//go:noescape
func momentumStepAVX(w, buf, g []float64, lr, momentum, wd float64)

// gemmKernelAVX is the AVX2 set's gemmMR×12 float64 micro-kernel: twelve
// YMM accumulators, one VFMADD231PD per term, every column whatever cols
// says, operands read through their strides, mt tiles a call
// (gemmKernels.tile) — bit-identical to gemmKernelGo.
//
//go:noescape
func gemmKernelAVX(kc, mt int, a []float64, lda, sa, ta int, b []float64, sb int, c []float64, ldc, cols int, load bool)

// copyStepsAVX is the AVX2 set's copySteps: three 4-wide vector moves per
// step.
//
//go:noescape
func copyStepsAVX(dst, src []float64, ld, kc int)

// transLanes4AVX is gemmKernels.transLanes4 as in-register 4×4 transposes,
// shared by both assembly sets.
//
//go:noescape
func transLanes4AVX(dst, src []float64, ld, kc, w int)

// fmaPeakAVX runs iters steps of twelve independent 4-wide VFMADD231PD
// chains on registers only.
//
//go:noescape
func fmaPeakAVX(iters int)

// fmaPeakLoopAVX is the AVX2 set's fmaPeak.
func fmaPeakLoopAVX(iters int) int {
	fmaPeakAVX(iters)
	return iters * 12 * 4 * 2
}

// gemmKernelAVX512 is the AVX-512 set's gemmMR×24 float64 micro-kernel:
// three 8-wide ZMM vectors per row, one VFMADD231PD per term, operands read
// through their strides, mt tiles a call (gemmKernels.tile); only the
// vectors that reach columns [0, cols) run, and the last one loads b and
// loads and stores c under a lane mask, so no column of b or c past cols is
// read or written — bit-identical to gemmKernelGo.
//
//go:noescape
func gemmKernelAVX512(kc, mt int, a []float64, lda, sa, ta int, b []float64, sb int, c []float64, ldc, cols int, load bool)

// copyStepsAVX512 is the AVX-512 set's copySteps: three 8-wide vector moves
// per step.
//
//go:noescape
func copyStepsAVX512(dst, src []float64, ld, kc int)

// fmaPeakAVX512 runs iters steps of twelve independent 8-wide VFMADD231PD
// chains on registers only.
//
//go:noescape
func fmaPeakAVX512(iters int)

// fmaPeakLoopAVX512 is the AVX-512 set's fmaPeak.
func fmaPeakLoopAVX512(iters int) int {
	fmaPeakAVX512(iters)
	return iters * 12 * 8 * 2
}

// The assembly kernel sets. They share transLanes4AVX: a lane packer writes
// four lanes per step whatever the panel width. The AVX-512 set hands the
// products 9…12 columns wide to the AVX2 tile: its own tile runs two 8-wide
// vectors per row for them, eight accumulator chains against the AVX2
// tile's twelve, over a packed panel and float32 scratch twice as wide. On
// a Sapphire Rapids core it ran such products 4–13 % slower (the 1152×108×12
// conv forward at 12 output channels among them), while at most 8 columns,
// one vector, it ran them 16–22 % faster.
var (
	gemmAVX2 = gemmKernels{isa: isaAVX2, nr: 12, tile: gemmKernelAVX,
		copySteps: copyStepsAVX, transLanes4: transLanes4AVX, fmaPeak: fmaPeakLoopAVX}
	gemmAVX512 = gemmKernels{isa: isaAVX512, nr: 24, tile: gemmKernelAVX512, exactCols: true,
		copySteps: copyStepsAVX512, transLanes4: transLanes4AVX, fmaPeak: fmaPeakLoopAVX512,
		narrow: &gemmAVX2}
)

// cpuidRaw executes CPUID with the given leaf/subleaf.
func cpuidRaw(eaxIn, ecxIn uint32) (eax, ebx, ecx, edx uint32)

// xgetbv0 reads extended control register 0 (the enabled XSAVE state mask).
func xgetbv0() (eax, edx uint32)

// hostISA reads the words selectISA decides on. XGETBV runs only when
// OSXSAVE says the OS supports it, and leaf 7 only when the CPU has it.
func hostISA() isa {
	maxID, _, _, _ := cpuidRaw(0, 0)
	_, _, ecx1, _ := cpuidRaw(1, 0)
	var ebx7, xcr0 uint32
	if maxID >= 7 {
		_, ebx7, _, _ = cpuidRaw(7, 0)
	}
	const osxsave = 1 << 27
	if ecx1&osxsave != 0 {
		xcr0, _ = xgetbv0()
	}
	return selectISA(ecx1, ebx7, xcr0)
}

func init() {
	switch hostISA() {
	case isaAVX512:
		gemmActive = gemmAVX512
	case isaAVX2:
		gemmActive = gemmAVX2
	default:
		return
	}
	foldAccImpl = foldAccAVX
	widenImpl = widenAVX
	narrowImpl = narrowAVX
	channelSumsImpl = channelSumsAVX
	channelSqDevsImpl = channelSqDevsAVX
	channelSumPairImpl = channelSumPairAVX
	normalizeImpl = normalizeAVX
	normalizeGradImpl = normalizeGradAVX
	rectifyImpl = rectifyAVX
	addRectifyImpl = addRectifyAVX
	rectifyGradImpl = rectifyGradAVX
	addImpl = addAVX
	momentumStepImpl = momentumStepAVX
	kernelISA = "avx2+fma"
}
