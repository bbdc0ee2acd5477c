package kfac

import "fmt"

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

// String names the precision for logs and the bench JSON schema.
func (p Precision) String() string {
	if p == F32 {
		return "f32"
	}
	return "f64"
}

// ParsePrecision parses a CLI precision flag ("f64"/"float64", default, or
// "f32"/"float32").
func ParsePrecision(s string) (Precision, error) {
	switch s {
	case "", "f64", "float64":
		return F64, nil
	case "f32", "float32":
		return F32, nil
	}
	return F64, fmt.Errorf("kfac: unknown precision %q (want f32 or f64)", s)
}

// WithPrecision selects the compute precision of the K-FAC step kernels
// (default F64).
func WithPrecision(pr Precision) Option { return func(o *Options) { o.Precision = pr } }
