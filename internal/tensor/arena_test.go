package tensor

import (
	"math/rand"
	"sync"
	"testing"
)

// checkedOut returns the number of tensors a has handed out and not yet
// taken back by Put.
func checkedOut(a *Arena) int {
	a.mu.Lock()
	defer a.mu.Unlock()
	n := 0
	for _, cl := range a.classes {
		n += len(cl.all) - len(cl.free)
	}
	return n
}

// TestArenaReuseTakesNewShape: storage Put back is handed out again for
// any shape of the same element count.
func TestArenaReuseTakesNewShape(t *testing.T) {
	a := NewArena()
	t1 := a.Get(4, 5)
	for i := range t1.Data {
		t1.Data[i] = float64(i)
	}
	p1 := &t1.Data[0]
	if checkedOut(a) != 1 {
		t.Fatalf("outstanding = %d, want 1", checkedOut(a))
	}
	a.Put(t1)
	if checkedOut(a) != 0 {
		t.Fatalf("outstanding after Put = %d, want 0", checkedOut(a))
	}
	// Same element count must reuse the same storage, with the new shape.
	t2 := a.Get(5, 4)
	if &t2.Data[0] != p1 {
		t.Error("Get after Put did not reuse storage")
	}
	if t2.Shape[0] != 5 || t2.Shape[1] != 4 {
		t.Errorf("shape = %v, want [5 4]", t2.Shape)
	}
}

func TestArenaPutMakesStorageAvailable(t *testing.T) {
	a := NewArena()
	t1 := a.Get(8)
	p1 := &t1.Data[0]
	a.Put(t1)
	if checkedOut(a) != 0 {
		t.Fatalf("outstanding after Put = %d, want 0", checkedOut(a))
	}
	if t2 := a.Get(8); &t2.Data[0] != p1 {
		t.Error("Get after Put did not reuse storage")
	}
	// Distinct sizes come from distinct classes.
	t3 := a.Get(16)
	if &t3.Data[0] == p1 {
		t.Error("different size class reused storage of another class")
	}
}

func TestArenaPutForeignPanics(t *testing.T) {
	a := NewArena()
	defer func() {
		if recover() == nil {
			t.Error("Put of a foreign tensor did not panic")
		}
	}()
	a.Put(New(7)) // size class never seen by this arena
}

// TestArenaConcurrent hammers Get/Put/Reset-free checkout cycles from many
// goroutines; run under -race this is the concurrency contract check.
func TestArenaConcurrent(t *testing.T) {
	a := NewArena()
	const workers = 8
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < 500; i++ {
				n := 1 + rng.Intn(64)
				tn := a.Get(n)
				for j := range tn.Data {
					tn.Data[j] = float64(w)
				}
				// Verify nobody else scribbled on our checkout.
				for j := range tn.Data {
					if tn.Data[j] != float64(w) {
						t.Errorf("worker %d: tensor mutated concurrently", w)
						return
					}
				}
				a.Put(tn)
			}
		}(w)
	}
	wg.Wait()
	if checkedOut(a) != 0 {
		t.Errorf("outstanding = %d after all Puts", checkedOut(a))
	}
}

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
