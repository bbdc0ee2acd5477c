// Package kfac implements the paper's primary contribution: a distributed
// K-FAC gradient preconditioner (Algorithm 1) that composes with any
// first-order optimizer.
//
// Per layer i, K-FAC approximates the Fisher block as the Kronecker product
// F̂ᵢ = A_{i−1} ⊗ Gᵢ of two small covariance factors (Equation 5): A from the
// layer-input activations and G from the gradients of the layer outputs.
// The preconditioned gradient is computed from the eigendecompositions of A
// and G (Equations 13–15, the inverse-free path selected in §IV-A), or — for
// the Table I ablation — from explicit damped inverses (Equation 11).
//
// Distribution (§IV-B): factors are assigned to workers (round-robin by
// default, matching K-FAC-opt); each worker eigendecomposes only its
// assigned factors and broadcasts each result to every worker, so all can
// precondition all layers locally. The layer-wise strategy of Osawa et al.
// (K-FAC-lw) and the size-greedy placement the paper proposes as future work
// are also implemented for the scaling studies.
package kfac

import (
	"repro/internal/linalg"
	"repro/internal/nn"
	"repro/internal/tensor"
)

// covKernel computes dst = aᵀa. It defaults to the blocked symmetric
// multiply (half the multiply-adds of a general matmul, parallel over the
// shared compute pool); the bit-identity tests swap in the reference
// general-matmul path to prove the two produce identical bits end to end.
var covKernel = linalg.SymMulT1Into

// ComputeCovA forms the activation covariance factor A for a captured
// layer, following the conventions of the paper's reference implementation:
//
//	Linear: a [N, in] (+bias column of ones)   → A = aᵀa / N
//	Conv2D: a [N·S, C·kh·kw] (+bias column), each patch scaled by 1/S
//	        → A = aᵀa / (S²·N)
//
// where S is the number of spatial output positions. The bias column makes
// A's dimension in+1 so the bias gradient is preconditioned jointly with
// the weights.
func ComputeCovA(layer nn.KFACCapturable) *tensor.Tensor {
	da, _ := FactorDims(layer)
	cov := tensor.New(da, da)
	var sample *tensor.Tensor
	computeCovAInto(cov, layer, &sample)
	return cov
}

// computeCovAInto is ComputeCovA writing into dst (da×da) and drawing the
// bias-augmented sample matrix from *sample — the allocation-free form the
// preconditioner's per-layer workspaces use.
func computeCovAInto(dst *tensor.Tensor, layer nn.KFACCapturable, sample **tensor.Tensor) {
	act := layer.CapturedActivation()
	if act == nil {
		panic("kfac: ComputeCovA called without captured activation (is capture enabled?)")
	}
	rows, cols := act.Rows(), act.Cols()
	spatial := layer.SpatialSize()
	batch := layer.BatchSize()
	scale := 1.0
	if spatial > 1 {
		scale = 1 / float64(spatial)
	}
	d := cols
	if layer.HasBias() {
		d++
	}
	// Form the (optionally bias-augmented, scaled) sample matrix without
	// copying when possible.
	a := act
	if layer.HasBias() || scale != 1 {
		a = tensor.Ensure(sample, rows, d)
		for i := 0; i < rows; i++ {
			src := act.Data[i*cols : (i+1)*cols]
			dst := a.Data[i*d : (i+1)*d]
			for j, v := range src {
				dst[j] = v * scale
			}
			if layer.HasBias() {
				dst[d-1] = scale
			}
		}
	}
	covKernel(dst, a)
	dst.Scale(1 / float64(batch))
}

// ComputeCovG forms the output-gradient covariance factor G, assuming the
// captured gradients come from a batch-averaged loss (the standard mean
// cross-entropy), again following the reference implementation:
//
//	Linear: g [N, out]      → G = N · gᵀg
//	Conv2D: g [N·S, out]    → G = (gᵀg) · N · S   (after scaling rows by N·S,
//	                          normalized by the N·S sample count)
func ComputeCovG(layer nn.KFACCapturable) *tensor.Tensor {
	_, dg := FactorDims(layer)
	cov := tensor.New(dg, dg)
	computeCovGInto(cov, layer)
	return cov
}

// computeCovGInto is ComputeCovG writing into dst (dg×dg).
func computeCovGInto(dst *tensor.Tensor, layer nn.KFACCapturable) {
	g := layer.CapturedOutputGrad()
	if g == nil {
		panic("kfac: ComputeCovG called without captured output gradient")
	}
	batch := layer.BatchSize()
	spatial := layer.SpatialSize()
	// Undo batch averaging and spatial scaling: scale each sample row by
	// N·S, then normalize the covariance by the sample count (N·S rows for
	// conv, N rows for linear). Algebraically G = (N·S)²/(N·S)·gᵀg = N·S·gᵀg.
	covKernel(dst, g)
	dst.Scale(float64(batch) * float64(spatial))
}

// FactorDims returns the dimensions (rows of A, rows of G) the factors of a
// layer will have, accounting for the bias column.
func FactorDims(layer nn.KFACCapturable) (da, dg int) {
	da = layer.InDim()
	if layer.HasBias() {
		da++
	}
	return da, layer.OutDim()
}
