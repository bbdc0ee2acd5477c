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
	"repro/internal/nn"
	"repro/internal/tensor"
)

// covKernel forms the upper triangle of dst = aᵀa at float64, about half
// the multiply-adds of a general matmul; the factor fold reads nothing
// below it. The bit-identity tests swap in the reference general-matmul
// path to prove the two produce identical bits end to end. covPatchesKernel is the same product on a conv layer's patch
// matrix read through its input image, and is swapped with it.
var (
	covKernel        = tensor.MatMulT1UpperInto[float64]
	covPatchesKernel = tensor.MatMulT1UpperPatchesInto[float64]
)

// gramKernels are the Gram products a layer's factors are formed with at
// element type E: dense is dst = aᵀa of a stored matrix, patches dst = PᵀP
// of a patch matrix read through its image. Each need only write dst's
// upper triangle.
type gramKernels[E tensor.Elem] struct {
	dense   func(dst, a *tensor.Dense[E])
	patches func(dst *tensor.Dense[E], p tensor.Patches[E])
}

// activationGram forms the activation Gram of a captured layer from the
// capture act at element type E and returns it with the scale that makes
// it the activation covariance factor A (da×da), following the conventions
// of the paper's reference implementation:
//
//	Linear: a [N, in] (+bias column of ones)   → A = aᵀa / N
//	Conv2D: a [N·S, kh·kw·C] (+bias column of ones), each patch weighted 1/S
//	        → A = aᵀa / (S²·N)
//
// where S is the number of spatial output positions. The reference scales
// every patch row by 1/S before the product; since [a/S, 1/S]ᵀ[a/S, 1/S] =
// [a, 1]ᵀ[a, 1] / S², the weight is folded into the product's one scalar
// and the capture is multiplied as it is, never copied to be scaled. The
// bias column makes A's dimension in+1 so the bias gradient is
// preconditioned jointly with the weights; a conv capture's columns, and so
// A's rows, are in the patch order (ky, kx, c). A conv capture is the input
// image, and the Gram reads its patch matrix, bias column included, through
// it (tensor.Patches). A Linear capture with a bias is copied into *sample
// beside a column of ones; without one it is the Gram operand itself.
// The Gram is formed at E, in form at float64 and else in *prod.
func activationGram[E tensor.Elem](form *tensor.Tensor, gram gramKernels[E],
	layer nn.KFACCapturable, act *tensor.Dense[E], sample, prod **tensor.Dense[E]) (*tensor.Dense[E], float64) {
	if act == nil {
		panic("kfac: A factor of a layer without a captured activation (is capture enabled?)")
	}
	s := float64(layer.SpatialSize())
	scale := 1 / (s * s * float64(layer.BatchSize()))
	cov := tensor.Like(prod, form)
	if win := layer.Window(); win != (tensor.Window{}) {
		gram.patches(cov, tensor.Patches[E]{Image: act, Window: win, Ones: layer.HasBias()})
		return cov, scale
	}
	a := act
	if layer.HasBias() {
		rows, cols := act.Rows(), act.Cols()
		a = tensor.Ensure(sample, rows, cols+1)
		for i := 0; i < rows; i++ {
			row := a.Data[i*(cols+1) : (i+1)*(cols+1)]
			copy(row, act.Data[i*cols:(i+1)*cols])
			row[cols] = 1
		}
	}
	gram.dense(cov, a)
	return cov, scale
}

// gradientGram forms the output-gradient Gram from the capture g at element
// type E, as activationGram does, and returns it with the scale that makes
// it the factor G (dg×dg), assuming the captured gradients come from a
// batch-averaged loss (the standard mean cross-entropy), again following the
// reference implementation:
//
//	Linear: g [N, out]      → G = N · gᵀg
//	Conv2D: g [N·S, out]    → G = (gᵀg) · N · S   (after scaling rows by N·S,
//	                          normalized by the N·S sample count)
func gradientGram[E tensor.Elem](form *tensor.Tensor, gram gramKernels[E],
	layer nn.KFACCapturable, g *tensor.Dense[E], prod **tensor.Dense[E]) (*tensor.Dense[E], float64) {
	if g == nil {
		panic("kfac: G factor of a layer without a captured output gradient")
	}
	// Undo batch averaging and spatial scaling: scale each sample row by
	// N·S, then normalize the covariance by the sample count (N·S rows for
	// conv, N rows for linear). Algebraically G = (N·S)²/(N·S)·gᵀg = N·S·gᵀg.
	cov := tensor.Like(prod, form)
	gram.dense(cov, g)
	return cov, float64(layer.BatchSize()) * float64(layer.SpatialSize())
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
