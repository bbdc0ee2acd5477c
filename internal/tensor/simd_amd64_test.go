//go:build amd64 && !purego

package tensor

import (
	"fmt"
	"testing"
)

// kernelSets is every GEMM kernel set this build links, indexed by level,
// each with the reason the host cannot run it ("" when it can).
func kernelSets() []kernelSet {
	sets := []kernelSet{{isaPortable, &gemmGo, ""}, {isaAVX2, &gemmAVX2, ""}, {isaAVX512, &gemmAVX512, ""}}
	host := hostISA()
	for l := host + 1; l <= isaAVX512; l++ {
		sets[l].missing = fmt.Sprintf("the host's CPUID and XCR0 select %v", host)
	}
	return sets
}

// TestFeatureDetectSelectsActiveSet: init installs the set hostISA names.
func TestFeatureDetectSelectsActiveSet(t *testing.T) {
	host := hostISA()
	t.Logf("host level %v, active GEMM kernel set %v (nr = %d)", host, gemmActive.isa, gemmActive.nr)
	if gemmActive.isa != host {
		t.Fatalf("active GEMM kernel set %v, want %v", gemmActive.isa, host)
	}
}
