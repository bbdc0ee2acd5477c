package simulate

import (
	"repro/internal/models"
)

// Per-GPU memory-footprint model. The paper's §VI-C4 limitations (ResNet-152
// deteriorating at scale) are partly a memory story: every worker holds the
// model, gradients, optimizer state, *and* — because the paper's design has
// every worker precondition all layers locally — the full set of Kronecker
// factors and their eigendecompositions. This model quantifies that:
// K-FAC state for ResNet-152 approaches the model size itself several times
// over, a real constraint on 16 GB V100s once activations are added.

// MemoryBreakdown itemizes per-GPU bytes for one configuration.
type MemoryBreakdown struct {
	Weights     float64 // model parameters
	Gradients   float64 // one gradient set
	Momentum    float64 // SGD momentum buffers
	Factors     float64 // running-average A and G factors
	EigVectors  float64 // eigenvector matrices Q_A, Q_G
	EigValues   float64 // eigenvalue vectors
	Activations float64 // forward activations for one local batch
}

// Total sums all components.
func (m MemoryBreakdown) Total() float64 {
	return m.Weights + m.Gradients + m.Momentum + m.Factors +
		m.EigVectors + m.EigValues + m.Activations
}

// MemoryModel estimates the per-GPU footprint of K-FAC training for a
// catalog at the given local batch size, using the cluster's element size.
func MemoryModel(cat *models.Catalog, batchPerGPU int, bytesPerElem float64) MemoryBreakdown {
	var mb MemoryBreakdown
	params := float64(cat.TotalParams())
	mb.Weights = params * bytesPerElem
	mb.Gradients = params * bytesPerElem
	mb.Momentum = params * bytesPerElem
	var factorElems, valueElems, actElems float64
	for _, l := range cat.Layers {
		da := float64(l.FactorADim())
		dg := float64(l.GDim)
		factorElems += da*da + dg*dg
		valueElems += da + dg
		// Activation storage: layer output spatial × channels per image.
		actElems += float64(l.SpatialOut) * dg
	}
	mb.Factors = factorElems * bytesPerElem
	mb.EigVectors = factorElems * bytesPerElem // Q matrices match factor shapes
	mb.EigValues = valueElems * bytesPerElem
	mb.Activations = actElems * float64(batchPerGPU) * bytesPerElem
	return mb
}
