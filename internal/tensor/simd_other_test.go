//go:build !amd64 || purego

package tensor

// kernelSets is every GEMM kernel set this build links, indexed by level,
// each with the reason the host cannot run it ("" when it can): only the
// portable one here.
func kernelSets() []kernelSet {
	const why = "no assembly in a purego or non-amd64 build"
	return []kernelSet{{isaPortable, &gemmGo, ""}, {isaAVX2, nil, why}, {isaAVX512, nil, why}}
}
