package tensor

// The matrix products, each written once over Elem. Operands and destination
// share the element type; a float32 product is its float64 namesake on the
// widened operands rounded to float32 once (gemm.go), so the float64
// contract — k-ascending FMA chain, bit-identical across tiles, workers and
// builds, NaN/Inf propagate, an aliased destination panics — is its too.

// MatMul returns a × b for matrices a (m×k) and b (k×n).
func MatMul[E Elem](a, b *Dense[E]) *Dense[E] {
	m, k := a.Shape[0], a.Shape[1]
	if b.Shape[0] != k {
		panic("tensor: MatMul inner dimension mismatch")
	}
	n := b.Shape[1]
	dst := NewDense[E](m, n)
	MatMulInto(dst, a, b)
	return dst
}

// MatMulInto computes dst = a × b, reusing dst's storage. dst must be m×n
// and must not alias a or b (checked; aliasing panics). Every element is
// the k-ascending fused multiply-add chain defined in gemm.go, so the result
// is bit-identical whatever the worker count or build; large products are
// split across the shared compute pool (sched.Shared).
func MatMulInto[E Elem](dst, a, b *Dense[E]) {
	m, n, k := dimsN(dst, a, b)
	gemm(&gemmActive, dst.Data, a.Data, b.Data, m, n, k, false, false, false)
}

// dimsN checks the shapes of dst = a × b and returns m, n, k.
func dimsN[E Elem](dst, a, b *Dense[E]) (m, n, k int) {
	m, k = a.Shape[0], a.Shape[1]
	n = b.Shape[1]
	if b.Shape[0] != k || dst.Shape[0] != m || dst.Shape[1] != n {
		panic("tensor: MatMulInto shape mismatch")
	}
	return m, n, k
}

// MatMulInto32 is MatMulInto at float32, by the name the benchmark calls.
func MatMulInto32(dst, a, b *T32) { MatMulInto(dst, a, b) }

// MatMulT1 returns aᵀ × b for a (k×m) and b (k×n): the m×n product of a's
// transpose with b. Used for weight-gradient and factor computation
// (e.g. A = aᵀa / batch) without materializing the transpose.
func MatMulT1[E Elem](a, b *Dense[E]) *Dense[E] {
	k, m := a.Shape[0], a.Shape[1]
	if b.Shape[0] != k {
		panic("tensor: MatMulT1 inner dimension mismatch")
	}
	n := b.Shape[1]
	dst := NewDense[E](m, n)
	MatMulT1Into(dst, a, b)
	return dst
}

// MatMulT1Into computes dst = aᵀ × b into dst (m×n), which must not alias a
// or b. The result equals MatMulInto(dst, Transpose(a), b) bit for bit.
func MatMulT1Into[E Elem](dst, a, b *Dense[E]) {
	m, n, k := dimsT1(dst, a, b)
	gemm(&gemmActive, dst.Data, a.Data, b.Data, m, n, k, true, false, false)
}

// dimsT1 checks the shapes of dst = aᵀ × b and returns m, n, k.
func dimsT1[E Elem](dst, a, b *Dense[E]) (m, n, k int) {
	k, m = a.Shape[0], a.Shape[1]
	n = b.Shape[1]
	if b.Shape[0] != k || dst.Shape[0] != m || dst.Shape[1] != n {
		panic("tensor: MatMulT1Into shape mismatch")
	}
	return m, n, k
}

// MatMulT1UpperInto computes the upper triangle of the Gram matrix
// dst = aᵀ × a for a (k×m): every element on or above the diagonal holds
// exactly what MatMulT1Into(dst, a, a) would put there; elements below it
// are unspecified (some are written, some keep their old contents). It is
// the kernel under linalg.SymMulT1Into, which mirrors the triangle, and
// under the K-FAC factor fold, which reads the triangle alone, scales it
// into the running average and writes each element's mirror there.
func MatMulT1UpperInto[E Elem](dst, a *Dense[E]) {
	m, k := dimsGram(dst, a)
	gemm(&gemmActive, dst.Data, a.Data, a.Data, m, m, k, true, false, true)
}

// dimsGram checks the shapes of dst = aᵀ × a and returns m, k.
func dimsGram[E Elem](dst, a *Dense[E]) (m, k int) {
	k, m = a.Shape[0], a.Shape[1]
	if dst.Shape[0] != m || dst.Shape[1] != m {
		panic("tensor: MatMulT1UpperInto shape mismatch")
	}
	return m, k
}

// MatMulT1UpperPatchesInto is MatMulT1UpperInto on a patch matrix:
// the upper triangle of dst = pᵀ × p, as MatMulT1UpperInto(dst, P) would
// write it for P = p's patch matrix stored, bit for bit.
func MatMulT1UpperPatchesInto[E Elem](dst *Dense[E], p Patches[E]) {
	src := patchesSrc(p)
	m, k := src.im.cols(), src.im.rows()
	if dst.Shape[0] != m || dst.Shape[1] != m {
		panic("tensor: MatMulT1UpperPatchesInto shape mismatch")
	}
	gemmSrcs(&gemmActive, dst.Data, src, src, m, m, k, true, false, true)
}

// MatMulT2 returns a × bᵀ for a (m×k) and b (n×k).
func MatMulT2[E Elem](a, b *Dense[E]) *Dense[E] {
	m, k := a.Shape[0], a.Shape[1]
	if b.Shape[1] != k {
		panic("tensor: MatMulT2 inner dimension mismatch")
	}
	n := b.Shape[0]
	dst := NewDense[E](m, n)
	MatMulT2Into(dst, a, b)
	return dst
}

// MatMulT2Into computes dst = a × bᵀ into dst (m×n) where b is n×k; dst
// must not alias a or b. The result equals MatMulInto(dst, a, Transpose(b))
// bit for bit.
func MatMulT2Into[E Elem](dst, a, b *Dense[E]) {
	m, n, k := dimsT2(dst, a, b)
	gemm(&gemmActive, dst.Data, a.Data, b.Data, m, n, k, false, true, false)
}

// dimsT2 checks the shapes of dst = a × bᵀ and returns m, n, k.
func dimsT2[E Elem](dst, a, b *Dense[E]) (m, n, k int) {
	m, k = a.Shape[0], a.Shape[1]
	n = b.Shape[0]
	if b.Shape[1] != k || dst.Shape[0] != m || dst.Shape[1] != n {
		panic("tensor: MatMulT2Into shape mismatch")
	}
	return m, n, k
}

// MatMulT2PatchesInto computes dst = P × bᵀ for the patch matrix P of a
// (N·outH·outW × k) and b (n×k): a convolution's forward product, bit for bit
// MatMulT2Into on P stored.
func MatMulT2PatchesInto[E Elem](dst *Dense[E], a Patches[E], b *Dense[E]) {
	src := patchesSrc(a)
	m, k := src.im.rows(), src.im.cols()
	n := b.Shape[0]
	if b.Shape[1] != k || dst.Shape[0] != m || dst.Shape[1] != n {
		panic("tensor: MatMulT2PatchesInto shape mismatch")
	}
	gemmSrcs(&gemmActive, dst.Data, src, storedSrc(b.Data[:n*k], k), m, n, k, false, true, false)
}

// MatMulT1PatchesInto computes dst = aᵀ × P for a (k×m) and the patch
// matrix P of b (k × n): a convolution's weight gradient, bit for bit
// MatMulT1Into on P stored.
func MatMulT1PatchesInto[E Elem](dst, a *Dense[E], b Patches[E]) {
	src := patchesSrc(b)
	k, n := src.im.rows(), src.im.cols()
	m := a.Shape[1]
	if a.Shape[0] != k || dst.Shape[0] != m || dst.Shape[1] != n {
		panic("tensor: MatMulT1PatchesInto shape mismatch")
	}
	gemmSrcs(&gemmActive, dst.Data, storedSrc(a.Data[:k*m], m), src, m, n, k, true, false, false)
}

// Group is a batch of independent matrix products run as one: MatMul,
// MatMulT1 and MatMulT2 each record one product — with the
// shapes, storage and aliasing checks of its *Into namesake — and Run
// computes them all, their block grids laid end to end, largest product
// first, and fanned out over sched.Shared() as one claim-based ForEach when
// their total work is worth it. Every element is the same fused
// multiply-add chain its namesake computes, so a product's bits do not
// depend on the company it ran in. A run empties the group and keeps its
// storage, so a reused Group allocates nothing. The products must be
// independent: no destination may overlap another product's operands or
// destination. The zero value is ready to use; a Group is not safe for
// concurrent use.
type Group[E Elem] struct {
	grid gemmGrid[E]
}

// MatMul records dst = a × b.
func (g *Group[E]) MatMul(dst, a, b *Dense[E]) {
	m, n, k := dimsN(dst, a, b)
	g.grid.add(dst.Data, a.Data, b.Data, m, n, k, false, false, false)
}

// MatMulT1 records dst = aᵀ × b.
func (g *Group[E]) MatMulT1(dst, a, b *Dense[E]) {
	m, n, k := dimsT1(dst, a, b)
	g.grid.add(dst.Data, a.Data, b.Data, m, n, k, true, false, false)
}

// MatMulT2 records dst = a × bᵀ.
func (g *Group[E]) MatMulT2(dst, a, b *Dense[E]) {
	m, n, k := dimsT2(dst, a, b)
	g.grid.add(dst.Data, a.Data, b.Data, m, n, k, false, true, false)
}

// Run computes every product recorded since the last Run and empties the
// group.
func (g *Group[E]) Run() { g.grid.run() }

// Transpose returns the transpose of matrix a.
func Transpose(a *Tensor) *Tensor {
	m, n := a.Shape[0], a.Shape[1]
	t := New(n, m)
	const tb = 32 // tile edge for cache-friendly transposition
	for ib := 0; ib < m; ib += tb {
		imax := ib + tb
		if imax > m {
			imax = m
		}
		for jb := 0; jb < n; jb += tb {
			jmax := jb + tb
			if jmax > n {
				jmax = n
			}
			for i := ib; i < imax; i++ {
				for j := jb; j < jmax; j++ {
					t.Data[j*m+i] = a.Data[i*n+j]
				}
			}
		}
	}
	return t
}

// MatVec returns a × x for matrix a (m×n) and vector x (n).
func MatVec(a, x *Tensor) *Tensor {
	m, n := a.Shape[0], a.Shape[1]
	if x.Len() != n {
		panic("tensor: MatVec dimension mismatch")
	}
	y := New(m)
	gemm(&gemmActive, y.Data, a.Data, x.Data, m, 1, n, false, false, false)
	return y
}
