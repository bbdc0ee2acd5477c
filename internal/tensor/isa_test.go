package tensor

import "testing"

// kernelSet is one GEMM kernel set level and, when this build or host cannot
// run it, why (ks is then nil or not runnable).
type kernelSet struct {
	level   isa
	ks      *gemmKernels
	missing string
}

// forEachKernelSet runs fn as a subtest per kernel set, named after its
// level; a set the host cannot run is skipped with the reason.
func forEachKernelSet(t *testing.T, fn func(t *testing.T, ks *gemmKernels)) {
	t.Helper()
	for _, s := range kernelSets() {
		t.Run(s.level.String(), func(t *testing.T) {
			if s.missing != "" {
				t.Skipf("%v kernel set not run: %s", s.level, s.missing)
			}
			if s.ks.isa != s.level {
				t.Fatalf("%v kernel set listed as %v", s.ks.isa, s.level)
			}
			t.Logf("%v kernel set, %d×%d tile", s.ks.isa, gemmMR, s.ks.nr)
			fn(t, s.ks)
		})
	}
}

// TestFeatureDetect holds selectISA to its table: the CPUID and XCR0 words
// of an AVX-512 host (Sapphire Rapids, ZMM state enabled: XCR0 = 0x602e7),
// and the same words with one precondition taken away.
func TestFeatureDetect(t *testing.T) {
	const (
		ecx1 = 0xfffa3203 // FMA, OSXSAVE, AVX
		ebx7 = 0xf1bf27eb // AVX2, AVX-512F
		xcr0 = 0x602e7    // SSE, AVX, opmask, ZMM_Hi256, Hi16_ZMM state
	)
	for _, c := range []struct {
		what             string
		ecx1, ebx7, xcr0 uint32
		want             isa
	}{
		{"AVX-512 host", ecx1, ebx7, xcr0, isaAVX512},
		{"AVX-512F without ZMM state (XCR0 bits 5-7)", ecx1, ebx7, xcr0 &^ 0xe0, isaAVX2},
		{"AVX-512F with only the opmask state", ecx1, ebx7, xcr0 &^ 0xc0, isaAVX2},
		{"no AVX-512F", ecx1, ebx7 &^ (1 << 16), xcr0, isaAVX2},
		{"no AVX2", ecx1, ebx7 &^ (1 << 5), xcr0, isaPortable},
		{"no FMA", ecx1 &^ (1 << 12), ebx7, xcr0, isaPortable},
		{"no YMM state", ecx1, ebx7, xcr0 &^ 0x4, isaPortable},
		{"no OSXSAVE (XCR0 unread)", ecx1 &^ (1 << 27), ebx7, 0, isaPortable},
		{"no leaf 7", ecx1, 0, xcr0, isaPortable},
	} {
		if got := selectISA(c.ecx1, c.ebx7, c.xcr0); got != c.want {
			t.Errorf("%s: selectISA(%#x, %#x, %#x) = %v, want %v", c.what, c.ecx1, c.ebx7, c.xcr0, got, c.want)
		}
	}
}
