package kfac

// Precision selects the element type of the K-FAC compute kernels
// (kernels.go): the operands and products of the per-step O(n³) work.
type Precision int

const (
	// F64 is the default full-precision path; results are bit-identical to
	// the reference implementation.
	F64 Precision = iota
	// F32 stores operands and results in float32; products run the float64
	// FMA chain on them and round once (see internal/tensor/gemm.go). State
	// and communication remain float64.
	F32
)

// String names the precision for logs and experiment tables.
func (p Precision) String() string {
	if p == F32 {
		return "f32"
	}
	return "f64"
}
