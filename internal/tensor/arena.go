package tensor

import "slices"

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
// shape-stable buffer-reuse primitive the layer forward/backward passes,
// the K-FAC workspaces and the eigensolver (its eigenbasis, and in slice
// form its workspace buffers) are built on: after the first step at a
// given batch shape, Ensure never allocates, and a buffer already at the
// shape is not written at all, so another goroutine may read its length
// meanwhile (the K-FAC memory count beside an early precondition).
func Ensure[E Elem](buf **Dense[E], shape ...int) *Dense[E] {
	n := 1
	for _, s := range shape {
		n *= s
	}
	t := *buf
	if t != nil && cap(t.Data) >= n {
		if len(t.Data) != n {
			t.Data = t.Data[:n]
		}
		if !slices.Equal(t.Shape, shape) {
			setShape(t, shape)
		}
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
