package tensor

import "testing"

func TestEnsureReusesCapacity(t *testing.T) {
	var buf *Tensor
	t1 := Ensure(&buf, 4, 4)
	if buf != t1 {
		t.Fatal("Ensure did not store the allocation")
	}
	p := &t1.Data[0]
	// Smaller request: same storage, new shape/length.
	t2 := Ensure(&buf, 2, 3)
	if &t2.Data[0] != p || t2.Len() != 6 {
		t.Error("Ensure did not reuse capacity for a smaller shape")
	}
	// Larger request: fresh storage.
	t3 := Ensure(&buf, 10, 10)
	if &t3.Data[0] == p {
		t.Error("Ensure reused insufficient capacity")
	}
	// EnsureZero clears recycled contents.
	for i := range t3.Data {
		t3.Data[i] = 3
	}
	t4 := EnsureZero(&buf, 5)
	for _, v := range t4.Data {
		if v != 0 {
			t.Fatal("EnsureZero left stale values")
		}
	}
}

// TestEnsureZeroAllocSteadyState: once a buffer has settled at its largest
// shape, Ensure must not allocate.
func TestEnsureZeroAllocSteadyState(t *testing.T) {
	var buf *Tensor
	Ensure(&buf, 16, 16)
	allocs := testing.AllocsPerRun(100, func() {
		Ensure(&buf, 16, 16)
		Ensure(&buf, 8, 4)
		Ensure(&buf, 16, 16)
	})
	if allocs != 0 {
		t.Errorf("Ensure allocated %.1f times per run in steady state, want 0", allocs)
	}
}
