package tensor

// isa is the instruction-set level a GEMM kernel set needs. The levels are
// ordered: a host that runs one runs every lower one.
type isa int

const (
	isaPortable isa = iota // math.FMA: any platform, any build
	isaAVX2                // AVX2 and FMA, YMM state enabled by the OS
	isaAVX512              // also AVX-512F, opmask and ZMM state enabled by the OS
)

// HasAVX2 reports whether init chose a kernel level of at least isaAVX2
// for this host (selectISA; never off amd64 or under purego). It is the
// process's one CPU decision: linalg's SIMD kernels follow it too.
func HasAVX2() bool { return gemmActive.isa >= isaAVX2 }

func (l isa) String() string {
	switch l {
	case isaAVX2:
		return "avx2"
	case isaAVX512:
		return "avx512"
	}
	return "portable"
}

// selectISA is the whole feature decision of the amd64 build, as a pure
// function of the CPUID and XCR0 words it reads: ecx1 is CPUID leaf 1's ECX,
// ebx7 is leaf 7 subleaf 0's EBX (0 when the CPU has no leaf 7), and xcr0 is
// the OS-enabled XSAVE state mask (0 when OSXSAVE is clear, where XGETBV
// would fault). It returns the widest level both the CPU and the OS allow.
func selectISA(ecx1, ebx7, xcr0 uint32) isa {
	const (
		fma     = 1 << 12 // leaf 1 ECX
		osxsave = 1 << 27
		avx     = 1 << 28
		avx2    = 1 << 5 // leaf 7 EBX
		avx512f = 1 << 16
		ymm     = 0x06 // XCR0: SSE (bit 1) and AVX (bit 2) state
		zmm     = 0xe0 // XCR0: opmask (5), ZMM_Hi256 (6) and Hi16_ZMM (7) state
	)
	if ecx1&(fma|osxsave|avx) != fma|osxsave|avx || xcr0&ymm != ymm || ebx7&avx2 == 0 {
		return isaPortable
	}
	if ebx7&avx512f == 0 || xcr0&zmm != zmm {
		return isaAVX2
	}
	return isaAVX512
}
