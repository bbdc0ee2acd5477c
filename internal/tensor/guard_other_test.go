//go:build !(linux && amd64)

package tensor

import "testing"

// guarded returns a copy of src whose capacity ends at its last element:
// without a guard page, reslicing past it is what panics. The portable
// kernel reaches its operands only through such reslices.
func guarded[E Elem](_ *testing.T, src []E) []E {
	return append([]E(nil), src...)[:len(src):len(src)]
}
