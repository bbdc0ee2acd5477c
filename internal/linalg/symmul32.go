package linalg

import (
	"runtime"
	"sync"

	"repro/internal/sched"
	"repro/internal/tensor"
)

// symThreshold32 is the multiply-add count below which SymMulT1Into32 runs
// serially; it mirrors the threshold of the float32 tensor matmul kernels.
const symThreshold32 = 64 * 64 * 64

// symBlock32 is the destination-row tile of the float32 symmetric multiply:
// each tile streams a's rows once for up to symBlock32 destination rows.
const symBlock32 = 8

// SymMulT1Into32 computes the Gram matrix dst = aᵀ × a for a float32 a
// (k×m), writing an m×m result — the float32 twin of SymMulT1Into, and the
// kernel the mixed-precision covariance updates (A = aᵀa/N, G = gᵀg) run
// on. Only the upper triangle is computed; the lower triangle is mirrored.
//
// Accumulation follows the package-wide mixed-precision discipline:
// products are summed in float32 within k-chunks, each chunk is folded into
// a float64 accumulator, and the total is rounded back to float32 once.
// When k fits in a single chunk the result is bit-identical to the chunked
// path (widening a float32 and rounding it back is exact). Large products
// split row-blocked across the shared compute pool with zero steady-state
// heap allocation.
func SymMulT1Into32(dst, a *tensor.T32) {
	k, m := a.Shape[0], a.Shape[1]
	if dst.Shape[0] != m || dst.Shape[1] != m {
		panic("linalg: SymMulT1Into32 shape mismatch")
	}
	nw := runtime.GOMAXPROCS(0)
	// Half the work of a general m×m×k product.
	if work := m * m * k / 2; work < symThreshold32 || nw <= 1 || m < 2 {
		symMulRange32(dst.Data, a.Data, 0, m, k, m)
	} else {
		r := sym32RangerPool.Get().(*sym32Ranger)
		r.dst, r.a, r.k, r.m = dst.Data, a.Data, k, m
		// Oversubscribe chunks: row i carries m−i products, so equal row
		// counts are imbalanced; smaller chunks let the pool level the load.
		sched.Shared().ForEach(m, 4*nw, r, &r.wg)
		r.dst, r.a = nil, nil
		sym32RangerPool.Put(r)
	}
	mirrorLower32(dst.Data, m)
}

// sym32Ranger is the pooled dispatch record for one parallel SymMulT1Into32.
type sym32Ranger struct {
	wg   sync.WaitGroup
	dst  []float32
	a    []float32
	k, m int
}

// RunRange implements sched.Ranger.
func (r *sym32Ranger) RunRange(lo, hi int) {
	symMulRange32(r.dst, r.a, lo, hi, r.k, r.m)
}

var sym32RangerPool = sync.Pool{New: func() any { return new(sym32Ranger) }}

// sym32Workspace holds one range's packed chunk and accumulator storage for
// a row block of upper-triangle segments; pooled for zero-allocation reuse.
type sym32Workspace struct {
	chunk []float32
	acc   []float64
}

var sym32Pool = sync.Pool{New: func() any { return new(sym32Workspace) }}

// grow sizes the workspace to hold at least need packed elements.
func (w *sym32Workspace) grow(need int) {
	if cap(w.chunk) < need {
		w.chunk = make([]float32, need)
	}
	w.chunk = w.chunk[:need]
	if cap(w.acc) < need {
		w.acc = make([]float64, need)
	}
	w.acc = w.acc[:need]
}

// symKChunk32 mirrors the tensor package's k-chunk extent (kChunk32) so
// both float32 kernel families share one accumulation granularity.
const symKChunk32 = 64

// symMulRange32 accumulates rows [lo, hi) of the upper triangle of aᵀa.
// Row i's segment spans columns [i, m). Row blocks pack their segments
// contiguously (offset r·(m−i0) − r(r−1)/2) so one FoldAcc32 call folds the
// whole block's chunk into the float64 accumulator.
func symMulRange32(dst, a []float32, lo, hi, k, m int) {
	if k <= symKChunk32 {
		// Single chunk: accumulate directly in the float32 destination —
		// bit-identical to the chunked path below.
		for i := lo; i < hi; i++ {
			seg := dst[i*m+i : (i+1)*m]
			for j := range seg {
				seg[j] = 0
			}
		}
		for kk := 0; kk < k; kk++ {
			arow := a[kk*m : (kk+1)*m]
			for i := lo; i < hi; i++ {
				if av := arow[i]; av != 0 {
					tensor.Axpy32(dst[i*m+i:(i+1)*m], arow[i:], av)
				}
			}
		}
		return
	}
	ws := sym32Pool.Get().(*sym32Workspace)
	for i0 := lo; i0 < hi; i0 += symBlock32 {
		i1 := i0 + symBlock32
		if i1 > hi {
			i1 = hi
		}
		rows := i1 - i0
		seg0 := m - i0 // longest (first) segment of the block
		packed := rows*seg0 - rows*(rows-1)/2
		ws.grow(packed)
		acc := ws.acc[:packed]
		for j := range acc {
			acc[j] = 0
		}
		for kb := 0; kb < k; kb += symKChunk32 {
			kmax := kb + symKChunk32
			if kmax > k {
				kmax = k
			}
			chunk := ws.chunk[:packed]
			for j := range chunk {
				chunk[j] = 0
			}
			for kk := kb; kk < kmax; kk++ {
				arow := a[kk*m : (kk+1)*m]
				for r := 0; r < rows; r++ {
					av := arow[i0+r]
					if av == 0 {
						continue
					}
					off := r*seg0 - r*(r-1)/2
					tensor.Axpy32(chunk[off:off+seg0-r], arow[i0+r:], av)
				}
			}
			tensor.FoldAcc32(acc, chunk)
		}
		for r := 0; r < rows; r++ {
			off := r*seg0 - r*(r-1)/2
			i := i0 + r
			tensor.Narrow(dst[i*m+i:(i+1)*m], acc[off:off+seg0-r])
		}
	}
	sym32Pool.Put(ws)
}

// mirrorLower32 copies the computed upper triangle into the lower one.
func mirrorLower32(dst []float32, m int) {
	for i := 1; i < m; i++ {
		for j := 0; j < i; j++ {
			dst[i*m+j] = dst[j*m+i]
		}
	}
}
