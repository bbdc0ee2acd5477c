package tensor

import "sync"

// Arena is a reusable workspace of tensors, keyed by element count. It
// exists so steady-state hot loops (the K-FAC step, layer forward/backward
// passes) can run without per-step heap allocation: tensors are checked out
// with Get and handed back with Put once the phase that used them is over.
//
// An Arena is safe for concurrent use. Every tensor it hands out remains
// owned by the arena: after Put the storage may be handed out again, so
// callers must not retain references to a tensor they have Put.
type Arena struct {
	mu      sync.Mutex
	classes map[int]*arenaClass
}

// arenaClass is the free/used bookkeeping for one element count.
type arenaClass struct {
	all  []*Tensor // every tensor ever created for this class
	free []*Tensor // subset of all currently available
}

// NewArena returns an empty arena.
func NewArena() *Arena {
	return &Arena{classes: make(map[int]*arenaClass)}
}

// Get checks out a tensor of the given shape. Contents are unspecified
// (stale values from a previous checkout); Zero the tensor when zeros are
// required. The tensor's storage is reused from a previous Put when a
// tensor of equal element count is available.
func (a *Arena) Get(shape ...int) *Tensor {
	n := 1
	for _, s := range shape {
		n *= s
	}
	a.mu.Lock()
	cl := a.classes[n]
	if cl == nil {
		cl = &arenaClass{}
		a.classes[n] = cl
	}
	var t *Tensor
	if k := len(cl.free); k > 0 {
		t = cl.free[k-1]
		cl.free[k-1] = nil
		cl.free = cl.free[:k-1]
	} else {
		t = &Tensor{Data: make([]float64, n)}
		cl.all = append(cl.all, t)
	}
	a.mu.Unlock()
	setShape(t, shape)
	return t
}

// Put returns a tensor obtained from Get to the arena. The caller must not
// use t afterwards. Putting a tensor the arena
// did not hand out (or putting one twice) corrupts the bookkeeping; Put
// panics when it can detect this (foreign element count).
func (a *Arena) Put(t *Tensor) {
	n := len(t.Data)
	a.mu.Lock()
	cl := a.classes[n]
	if cl == nil {
		a.mu.Unlock()
		panic("tensor: Arena.Put of tensor not obtained from this arena")
	}
	cl.free = append(cl.free, t)
	a.mu.Unlock()
}

// setShape points t at the given shape, reusing t's shape slice when the
// dimensionality matches so steady-state reshapes are allocation-free.
func setShape[E Elem](t *Dense[E], shape []int) {
	if cap(t.Shape) >= len(shape) {
		t.Shape = t.Shape[:len(shape)]
		copy(t.Shape, shape)
		return
	}
	t.Shape = append([]int(nil), shape...)
}

// Ensure returns a tensor of the given shape backed by (*buf)'s storage
// when its capacity suffices, else a fresh allocation, storing the result
// back into *buf. Contents are unspecified when storage is reused — callers
// must overwrite every element (or use EnsureZero). This is the
// shape-stable buffer-reuse primitive the layer forward/backward passes and
// the K-FAC workspaces are built on: after the first step at a given batch
// shape, Ensure never allocates.
func Ensure[E Elem](buf **Dense[E], shape ...int) *Dense[E] {
	n := 1
	for _, s := range shape {
		n *= s
	}
	t := *buf
	if t != nil && cap(t.Data) >= n {
		t.Data = t.Data[:n]
		setShape(t, shape)
		return t
	}
	// Built directly (not via NewDense) so the variadic shape slice provably
	// does not escape and steady-state callers allocate nothing.
	t = &Dense[E]{Shape: append([]int(nil), shape...), Data: make([]E, n)}
	*buf = t
	return t
}

// View returns t's storage under another shape of the same element count,
// as t.Reshape does, but in (*buf)'s reused header, so a steady-state caller
// allocates nothing. It is how a conv layer hands its [N·H·W, C] product on
// as an [N, H, W, C] activation and reads an incoming gradient as a matrix.
func View[E Elem](buf **Dense[E], t *Dense[E], shape ...int) *Dense[E] {
	n := 1
	for _, s := range shape {
		n *= s
	}
	if n != len(t.Data) {
		panic("tensor: View shape does not match the element count") // shape must not escape
	}
	if *buf == nil {
		*buf = &Dense[E]{}
	}
	(*buf).Data = t.Data
	setShape(*buf, shape)
	return *buf
}

// EnsureZero is Ensure with the returned tensor zero-filled.
func EnsureZero[E Elem](buf **Dense[E], shape ...int) *Dense[E] {
	t := Ensure(buf, shape...)
	t.Zero()
	return t
}
