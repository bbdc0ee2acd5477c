package simulate

import (
	"testing"

	"repro/internal/models"
)

// kfacState returns only the K-FAC-specific bytes of m.
func kfacState(m MemoryBreakdown) float64 {
	return m.Factors + m.EigVectors + m.EigValues
}

func TestMemoryModelResNet50(t *testing.T) {
	mb := MemoryModel(models.ResNet50Catalog(), 32, 4)
	// Weights ≈ 102 MB at FP32.
	if mb.Weights < 95e6 || mb.Weights > 110e6 {
		t.Errorf("weights = %.0f MB", mb.Weights/1e6)
	}
	// K-FAC state (factors + eigenvectors) is several times the weights —
	// the §VI-C4 memory pressure.
	if kfacState(mb) < mb.Weights {
		t.Errorf("K-FAC state %.0f MB should exceed weights %.0f MB",
			kfacState(mb)/1e6, mb.Weights/1e6)
	}
	if mb.Total() <= kfacState(mb) {
		t.Error("total must include non-KFAC components")
	}
}

func TestMemoryModelGrowsWithModel(t *testing.T) {
	m50 := MemoryModel(models.ResNet50Catalog(), 32, 4)
	m152 := MemoryModel(models.ResNet152Catalog(), 32, 4)
	if m152.Total() <= m50.Total() {
		t.Error("ResNet-152 must use more memory than ResNet-50")
	}
	if kfacState(m152) <= kfacState(m50) {
		t.Error("K-FAC state must grow with model size")
	}
}

func TestMemoryModelActivationsScaleWithBatch(t *testing.T) {
	a := MemoryModel(models.ResNet50Catalog(), 32, 4)
	b := MemoryModel(models.ResNet50Catalog(), 64, 4)
	if b.Activations != 2*a.Activations {
		t.Errorf("activations %v vs %v; expected 2x", b.Activations, a.Activations)
	}
	if b.Weights != a.Weights {
		t.Error("weights must not depend on batch")
	}
}
