package tensor

import (
	"runtime"
	"sync"

	"repro/internal/sched"
)

// Float32 matmul family. Same blocked loop structures as the float64
// kernels, with the mixed-precision accumulation discipline: products are
// accumulated in float32 only within k-chunks of kChunk32 terms; each
// chunk's partial row is folded into a float64 accumulator (FoldAcc32) and
// the final sum is rounded back to float32 once. When k ≤ kChunk32 the
// single-chunk path accumulates directly into the destination — bit-
// identical to the general path, since widening a float32 and rounding it
// back is exact.

// kChunk32 is the k-extent of one float32 accumulation chunk in the
// axpy-form kernels (MatMulInto32, MatMulT1Into32, linalg.SymMulT1Into32):
// at most kChunk32 products are summed in float32 before the partial sum is
// widened into the float64 accumulator.
const kChunk32 = 64

// parallelThreshold is the minimum number of multiply-adds below which the
// float32 matmul kernels run single-threaded; dispatching pool work for tiny
// products costs more than it saves.
const parallelThreshold = 64 * 64 * 64

// mmRowBlock is the destination-row tile of the float32 kernels: b's rows
// are streamed once per row block instead of once per row, cutting the
// chunked path's memory traffic by the block factor.
const mmRowBlock = 4

// t1RowBlock is the destination-row tile of the aᵀb-form kernels, where a
// (not b) carries the per-row scalars; a larger tile amortizes streaming b.
const t1RowBlock = 8

// mm32Workspace carries one range's chunk and accumulator rows. Recycled
// (see freeList) so parallel kernel launches perform zero steady-state heap
// allocation.
type mm32Workspace struct {
	chunk []float32
	acc   []float64
}

var mm32Free freeList[mm32Workspace]

// grow sizes the workspace for rows×n tiles, reusing prior capacity.
func (w *mm32Workspace) grow(rows, n int) {
	need := rows * n
	if cap(w.chunk) < need {
		w.chunk = make([]float32, need)
	}
	w.chunk = w.chunk[:need]
	if cap(w.acc) < need {
		w.acc = make([]float64, need)
	}
	w.acc = w.acc[:need]
}

// zero32 clears a float32 slice.
func zero32(s []float32) {
	for i := range s {
		s[i] = 0
	}
}

// zero64 clears a float64 slice.
func zero64(s []float64) {
	for i := range s {
		s[i] = 0
	}
}

// MatMulInto32 computes dst = a × b for float32 matrices a (m×k) and
// b (k×n), writing the m×n result over dst. dst must not alias a or b.
// Inner products accumulate per the package's chunked float64 scheme;
// large products split across the shared compute pool.
func MatMulInto32(dst, a, b *T32) {
	m, k := a.Shape[0], a.Shape[1]
	n := b.Shape[1]
	if b.Shape[0] != k || dst.Shape[0] != m || dst.Shape[1] != n {
		panic("tensor: MatMulInto32 shape mismatch")
	}
	runKernel32(kind32MatMul, dst.Data, a.Data, b.Data, m, k, n)
}

// matmulRange32 computes rows [lo,hi) of dst = a×b.
func matmulRange32(dst, a, b []float32, lo, hi, k, n int) {
	if k <= kChunk32 {
		// Single chunk: accumulate directly in the float32 destination —
		// bit-identical to the general path (see package comment above).
		for i := lo; i < hi; i++ {
			arow := a[i*k : (i+1)*k]
			drow := dst[i*n : (i+1)*n]
			zero32(drow)
			for kk := 0; kk < k; kk++ {
				if av := arow[kk]; av != 0 {
					Axpy32(drow, b[kk*n:(kk+1)*n], av)
				}
			}
		}
		return
	}
	ws := mm32Free.get()
	ws.grow(mmRowBlock, n)
	for i0 := lo; i0 < hi; i0 += mmRowBlock {
		i1 := i0 + mmRowBlock
		if i1 > hi {
			i1 = hi
		}
		rows := i1 - i0
		acc := ws.acc[:rows*n]
		zero64(acc)
		for kb := 0; kb < k; kb += kChunk32 {
			kmax := kb + kChunk32
			if kmax > k {
				kmax = k
			}
			chunk := ws.chunk[:rows*n]
			zero32(chunk)
			for kk := kb; kk < kmax; kk++ {
				brow := b[kk*n : (kk+1)*n]
				for r := 0; r < rows; r++ {
					if av := a[(i0+r)*k+kk]; av != 0 {
						Axpy32(chunk[r*n:(r+1)*n], brow, av)
					}
				}
			}
			FoldAcc32(acc, chunk)
		}
		for r := 0; r < rows; r++ {
			Narrow(dst[(i0+r)*n:(i0+r+1)*n], acc[r*n:(r+1)*n])
		}
	}
	mm32Free.put(ws)
}

// MatMulT1Into32 computes dst = aᵀ × b for float32 matrices a (k×m) and
// b (k×n), writing the m×n result over dst — the float32 twin of
// MatMulT1Into, with chunked float64 accumulation.
func MatMulT1Into32(dst, a, b *T32) {
	k, m := a.Shape[0], a.Shape[1]
	n := b.Shape[1]
	if b.Shape[0] != k || dst.Shape[0] != m || dst.Shape[1] != n {
		panic("tensor: MatMulT1Into32 shape mismatch")
	}
	runKernel32(kind32MatMulT1, dst.Data, a.Data, b.Data, m, k, n)
}

// matmulT1Range32 computes rows [lo,hi) of dst = aᵀb where a is k×m and
// b is k×n.
func matmulT1Range32(dst, a, b []float32, lo, hi, k, m, n int) {
	if k <= kChunk32 {
		for i := lo; i < hi; i++ {
			zero32(dst[i*n : (i+1)*n])
		}
		for kk := 0; kk < k; kk++ {
			arow := a[kk*m : (kk+1)*m]
			brow := b[kk*n : (kk+1)*n]
			for i := lo; i < hi; i++ {
				if av := arow[i]; av != 0 {
					Axpy32(dst[i*n:(i+1)*n], brow, av)
				}
			}
		}
		return
	}
	ws := mm32Free.get()
	ws.grow(t1RowBlock, n)
	for i0 := lo; i0 < hi; i0 += t1RowBlock {
		i1 := i0 + t1RowBlock
		if i1 > hi {
			i1 = hi
		}
		rows := i1 - i0
		acc := ws.acc[:rows*n]
		zero64(acc)
		for kb := 0; kb < k; kb += kChunk32 {
			kmax := kb + kChunk32
			if kmax > k {
				kmax = k
			}
			chunk := ws.chunk[:rows*n]
			zero32(chunk)
			for kk := kb; kk < kmax; kk++ {
				arow := a[kk*m : (kk+1)*m]
				brow := b[kk*n : (kk+1)*n]
				for r := 0; r < rows; r++ {
					if av := arow[i0+r]; av != 0 {
						Axpy32(chunk[r*n:(r+1)*n], brow, av)
					}
				}
			}
			FoldAcc32(acc, chunk)
		}
		for r := 0; r < rows; r++ {
			Narrow(dst[(i0+r)*n:(i0+r+1)*n], acc[r*n:(r+1)*n])
		}
	}
	mm32Free.put(ws)
}

// MatMulT2Into32 computes dst = a × bᵀ for float32 matrices a (m×k) and
// b (n×k), writing the m×n result over dst. Row-by-row dot products via
// DotAcc32, which carries the chunked float64 accumulation internally.
func MatMulT2Into32(dst, a, b *T32) {
	m, k := a.Shape[0], a.Shape[1]
	n := b.Shape[0]
	if b.Shape[1] != k || dst.Shape[0] != m || dst.Shape[1] != n {
		panic("tensor: MatMulT2Into32 shape mismatch")
	}
	runKernel32(kind32MatMulT2, dst.Data, a.Data, b.Data, m, k, n)
}

// matmulT2Range32 computes rows [lo,hi) of dst = a×bᵀ.
func matmulT2Range32(dst, a, b []float32, lo, hi, k, n int) {
	for i := lo; i < hi; i++ {
		arow := a[i*k : (i+1)*k]
		drow := dst[i*n : (i+1)*n]
		for j := 0; j < n; j++ {
			drow[j] = float32(DotAcc32(arow, b[j*k:(j+1)*k]))
		}
	}
}

// kind32 selects the row kernel a mat32Ranger dispatches to.
type kind32 uint8

const (
	kind32MatMul kind32 = iota
	kind32MatMulT1
	kind32MatMulT2
)

// mat32Ranger carries one float32 matmul dispatch through the shared
// compute pool; recycled via mat32RangerFree for zero-allocation launches.
type mat32Ranger struct {
	wg        sync.WaitGroup
	kind      kind32
	dst, a, b []float32
	k, m, n   int
}

// RunRange implements sched.Ranger: rows [lo, hi) of the selected kernel.
// Ranges are disjoint and every destination element is produced by exactly
// one range, so parallel results equal serial ones.
func (r *mat32Ranger) RunRange(lo, hi int) {
	switch r.kind {
	case kind32MatMul:
		matmulRange32(r.dst, r.a, r.b, lo, hi, r.k, r.n)
	case kind32MatMulT1:
		matmulT1Range32(r.dst, r.a, r.b, lo, hi, r.k, r.m, r.n)
	case kind32MatMulT2:
		matmulT2Range32(r.dst, r.a, r.b, lo, hi, r.k, r.n)
	}
}

var mat32RangerFree freeList[mat32Ranger]

// runKernel32 executes one float32 matmul-family kernel over rows [0, m),
// splitting across the shared compute pool when m·n·k is large enough to
// amortize dispatch.
func runKernel32(kind kind32, dst, a, b []float32, m, k, n int) {
	nw := runtime.GOMAXPROCS(0)
	if work := m * n * k; work < parallelThreshold || nw <= 1 || m < 2 {
		switch kind {
		case kind32MatMul:
			matmulRange32(dst, a, b, 0, m, k, n)
		case kind32MatMulT1:
			matmulT1Range32(dst, a, b, 0, m, k, m, n)
		case kind32MatMulT2:
			matmulT2Range32(dst, a, b, 0, m, k, n)
		}
		return
	}
	r := mat32RangerFree.get()
	r.kind, r.dst, r.a, r.b, r.k, r.m, r.n = kind, dst, a, b, k, m, n
	sched.Shared().ForEach(m, nw, r, &r.wg)
	r.dst, r.a, r.b = nil, nil, nil // don't pin operand memory in the free list
	mat32RangerFree.put(r)
}
