// Blocked symmetric eigensolver: Level-3 Householder tridiagonalization in
// the compact-WY representation, a GEMM-rate Q back-accumulation, and a
// batched-rotation QL iteration. This is the multi-threaded counterpart of
// the serial tred2/tql2 pair in eigen.go, built so that every parallel
// partition is a fixed chunk grid whose elements are each produced by
// exactly one chunk with a fixed serial reduction order — the
// sched.Pool.ForEach contract — making the result bitwise identical across
// repeated calls, team sizes, and GOMAXPROCS settings.
//
// Structure (for an n×n symmetric input, panel width b = eigBlock):
//
//  1. Blocked tridiagonalization. Columns are reduced in panels of width b.
//     Within a panel, column j's Householder reflector v_j and the product
//     w_j = τ(A v_j − V Wᵀv_j − W Vᵀv_j) − ½τ²(v_jᵀ·)v_j are accumulated
//     into a combined U = [V|W] panel; only the panel's own columns are
//     updated eagerly. The trailing matrix then receives one symmetric
//     rank-2b update A ← A − VWᵀ − WVᵀ, expressed as a single pooled
//     tensor.MatMulT2Into GEMM S = U·[W|V]ᵀ followed by a chunked
//     subtraction — the Level-3 step that carries ~2/3 of the reduction's
//     flops.
//  2. Q back-accumulation. Q is formed from the stored reflectors (kept in
//     the reduced matrix's lower triangle, LAPACK-style) in panels of width
//     accBlock, in reverse: Q ← (I − V T Vᵀ)Q. Only the bottom-right window
//     W = Q[j0+1:, j0+1:] is not yet identity; it is kept contiguous at the
//     front of Q's storage and re-strided in place as each panel widens it.
//     T comes from one Gram product VᵀV, and each panel is three pooled
//     GEMMs — M1 = VᵀW, M2 = T·M1, P = V·M2 — plus the subtraction W −= P,
//     so every Q element is the GEMM's fixed FMA chain whatever the team.
//     P is formed and subtracted accBlock rows at a time, in the panel
//     buffer M1 leaves free, so Q is the only n×n buffer the step writes.
//  3. Batched QL. The scalar shift/rotation recurrence of tql2 — which
//     touches only the tridiagonal d/e arrays — runs serially and records
//     each sweep's window and rotation cosines/sines into a bounded buffer
//     (16·n rotations). Q is transposed once, so one block of qlLanes
//     contiguous Qᵀ columns is qlLanes rows of Q; when the next sweep does
//     not fit, one lane-block parallel pass applies every buffered sweep, in
//     order, to each block with a per-lane carry chain whose arithmetic is
//     tql2's column-strided update. A rotation treats every row of Q
//     independently, so that grouping cannot change bits. The transpose
//     back to Q is fused with the eigenvalue sort's column permutation.
//
// Steps 1–3 run in arena workspaces: the transpose back, after QL has
// converged, is the first write to the caller's eigenbasis, so a failed
// solve leaves it untouched (see SymEigBlockedTimedInto).
package linalg

import (
	"fmt"
	"math"
	"sync"
	"time"

	"repro/internal/sched"
	"repro/internal/tensor"
)

const (
	// eigBlock is the panel width b of the blocked tridiagonalization. 32
	// keeps one U=[V|W] panel row (2b float64s) inside a cache line multiple
	// and the rank-2b GEMM dots long enough for the pooled kernels to run at
	// full throughput.
	eigBlock = 32

	// accBlock is the panel width of the back-accumulation. The reflectors
	// are stored in A's lower triangle and tau, so they regroup freely; at
	// 64 the products V·M2 and T·M1 have a 64-deep inner dimension and the
	// per-panel packing and dispatch are amortized over twice the flops.
	// It equals the U=[V|W] panel's row width, so the packed V and M1 reuse
	// the tridiagonalization's U and C panels once it is done.
	accBlock = 2 * eigBlock

	// eigBlockedMinDim is the dimension below which the blocked solver
	// falls back to the serial tred2/tql2 pair: small factors are
	// launch-overhead bound, and the serial pair wins outright. The
	// fallback ignores the team parameter entirely, so the determinism
	// contract (same bits for every team size) holds trivially there.
	eigBlockedMinDim = 128

	// qlLanes is the lane width of the QL rotation pass: one block of the
	// transposed eigenbasis is qlLanes contiguous columns (qlLanes rows of
	// Q), four ymm carries in the AVX kernel. The rotation buffer holds
	// qlLanes·n rotations, so every flush but the last carries more than
	// 15·n of them: one dispatch per batch of sweeps, not per sweep.
	qlLanes = 16
)

// eigArena pools the blocked solver's workspaces — the reduced matrix copy
// (whose lower triangle stores the Householder vectors, and which then
// holds the transposed eigenbasis during QL), the U=[V|W] and
// column-swapped panels (which the back-accumulation then reuses for its
// packed V and for its first and third products), the rank-2b update
// buffer (which then receives the back-accumulated Q), the
// back-accumulation's second product with its T and Gram blocks, the
// tridiagonal form and the QL rotation buffer — and the serial fallback's
// copy — so steady-state redecomposition performs no heap allocation.
// Checkouts are balanced per call (Get/Put), never Reset, so concurrent
// decompositions (the pipelined engine, intra-step factor teams) share the
// arena safely.
var eigArena = tensor.NewArena()

// EigKernelTimes accumulates the per-kernel wall time of one or more
// blocked eigendecompositions, in nanoseconds. The K-FAC engines surface
// these through StageStats so the stage profile shows where
// decomposition time goes, not just its total.
type EigKernelTimes struct {
	// TridiagNS is the blocked Householder reduction (panel factorization
	// plus trailing rank-2b GEMM updates).
	TridiagNS int64
	// BackAccumNS is the compact-WY Q back-accumulation.
	BackAccumNS int64
	// QLNS is the implicit-shift QL iteration with batched rotation
	// application, including the final eigenvalue sort.
	QLNS int64
}

// SymEigBlockedInto computes the eigendecomposition of symmetric matrix a
// into eg using the blocked multi-threaded solver with the given worker
// team size. The input is not modified; asymmetry up to round-off is
// tolerated (the routine operates on (A+Aᵀ)/2, exactly as SymEigInto).
//
// team bounds the chunk grid of the solver's internal parallel passes:
// team ≤ 1 runs every pass inline on the calling goroutine, team > 1
// dispatches over the shared scheduler pool. The result is bitwise
// IDENTICAL for every team value — partitions are fixed chunk grids whose
// output elements are each written by exactly one chunk with a fixed
// reduction order — so team is purely a performance knob. Concurrent calls
// on distinct Eigen targets are safe.
func SymEigBlockedInto(a *tensor.Tensor, eg *Eigen, team int) error {
	return SymEigBlockedTimedInto(a, eg, team, nil)
}

// SymEigBlockedTimedInto is SymEigBlockedInto accumulating per-kernel wall
// times into tm (when non-nil). Only the blocked kernels are itemized: the
// serial fallback below eigBlockedMinDim adds nothing to tm.
//
// On every error eg is left bit for bit as it was — Q, Values and their
// storage — so a caller may decompose straight into the decomposition it
// still preconditions with. Validation (shape, NaN/Inf) comes first. A
// finite input can still fail later: entries near math.MaxFloat64 overflow
// the symmetrized copy, and QL then cannot converge. Both paths therefore
// solve in arena workspaces and write eg only once QL has converged: the
// blocked path back-accumulates Q into the trailing-update buffer the
// tridiagonalization is done with, and the serial fallback copies out.
func SymEigBlockedTimedInto(a *tensor.Tensor, eg *Eigen, team int, tm *EigKernelTimes) error {
	n := a.Rows()
	if a.Cols() != n {
		return fmt.Errorf("linalg: SymEig requires square matrix, got %dx%d", a.Rows(), a.Cols())
	}
	for _, x := range a.Data {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return fmt.Errorf("linalg: SymEig input contains NaN/Inf")
		}
	}
	if n == 0 {
		tensor.Ensure(&eg.Q, 0, 0)
		eg.Values = eg.Values[:0]
		return nil
	}
	if n < eigBlockedMinDim {
		return symEigSmallInto(a, eg)
	}
	if team < 1 {
		team = 1
	}

	ws := eigWSPool.Get().(*eigWS)
	ws.team = team
	A := eigArena.Get(n, n)
	S := eigArena.Get(n, n)
	U := eigArena.Get(n, 2*eigBlock)
	C := eigArena.Get(n, 2*eigBlock)
	tauT := eigArena.Get(n)
	workT := eigArena.Get(4 * n)
	deT := eigArena.Get(2 * n)
	accT := eigArena.Get(accBlock*n + 2*accBlock*accBlock)
	rotT := eigArena.Get(2 * qlLanes * n)
	defer func() {
		ws.clear()
		eigWSPool.Put(ws)
		eigArena.Put(A)
		eigArena.Put(S)
		eigArena.Put(U)
		eigArena.Put(C)
		eigArena.Put(tauT)
		eigArena.Put(workT)
		eigArena.Put(deT)
		eigArena.Put(accT)
		eigArena.Put(rotT)
	}()

	// Symmetrized working copy; a is left untouched.
	symmetrize(A.Data, a.Data, n)

	d, e := deT.Data[:n], deT.Data[n:]
	start := time.Now()
	ws.blockedTridiag(A.Data, S, U, C, n, d, e, tauT.Data, workT.Data)
	tTri := time.Now()
	ws.backAccumulate(S.Data, A.Data, n, tauT.Data, U.Data, C.Data, accT.Data)
	tAcc := time.Now()
	err := ws.batchedQL(S.Data, n, d, e, rotT.Data, A.Data, eg)
	if tm != nil {
		tm.TridiagNS += tTri.Sub(start).Nanoseconds()
		tm.BackAccumNS += tAcc.Sub(tTri).Nanoseconds()
		tm.QLNS += time.Since(tAcc).Nanoseconds()
	}
	return err
}

// symEigSmallInto is the serial tred2/tql2 pair below eigBlockedMinDim. It
// works on an arena copy (under eigBlockedMinDim² floats) and copies it
// into eg only once QL has converged.
func symEigSmallInto(a *tensor.Tensor, eg *Eigen) error {
	n := a.Rows()
	V := eigArena.Get(n, n)
	deT := eigArena.Get(2 * n)
	defer eigArena.Put(V)
	defer eigArena.Put(deT)
	symmetrize(V.Data, a.Data, n)
	d, e := deT.Data[:n], deT.Data[n:]
	tred2(V.Data, n, d, e)
	if err := tql2(V.Data, n, d, e); err != nil {
		return err
	}
	eg.SetFrom(d, V.Data, n)
	return nil
}

// symmetrize writes (a + aᵀ)/2 of the row-major n×n a into dst.
func symmetrize(dst, a []float64, n int) {
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			dst[i*n+j] = 0.5 * (a[i*n+j] + a[j*n+i])
		}
	}
}

// eigWS carries the reusable non-tensor state of one blocked
// decomposition: the ranger structs the parallel passes dispatch through,
// the view headers handed to the pooled GEMM, the QL sweep windows and the sort
// permutation buffer. A sync.Pool recycles them so steady-state solves
// allocate nothing.
type eigWS struct {
	team int

	// View headers over arena storage for the pooled GEMMs (see view).
	views [4]tensor.Tensor

	tr trailRanger
	rb rotBatch
	lt laneTransRanger

	perm []int
}

var eigWSPool = sync.Pool{New: func() any { return &eigWS{} }}

// clear drops the slice references the rangers and views captured, so a
// pooled workspace does not keep arena storage reachable after the solve
// has handed it back.
func (ws *eigWS) clear() {
	for i := range ws.views {
		ws.views[i].Data = nil
	}
	ws.tr = trailRanger{}
	ws.rb = rotBatch{win: ws.rb.win[:0]}
	ws.lt = laneTransRanger{}
}

// view points header i at the leading rows×cols of data, reusing the
// header's shape slice, and returns it as a GEMM operand.
func (ws *eigWS) view(i int, data []float64, rows, cols int) *tensor.Tensor {
	t := &ws.views[i]
	t.Shape = append(t.Shape[:0], rows, cols)
	t.Data = data[:rows*cols]
	return t
}

// run executes r over [0,m) — inline when the team is 1 (or the range
// trivial), else as a team-wide ForEach over the shared pool. Both paths
// produce identical bits: every output element belongs to exactly one
// chunk and is computed with a fixed serial reduction order, so the chunk
// grid (and hence team) cannot affect results.
func (ws *eigWS) run(m int, r sched.Ranger) {
	if ws.team <= 1 || m < 2 {
		r.RunRange(0, m)
		return
	}
	sched.Shared().ForEach(m, ws.team, r)
}

// eigDot4 is a fixed-order dot product with four partial accumulators, the
// portable form of eigDot (simd.go): the serial order is a pure function of
// the slice length, never of the caller's chunk grid, which is what keeps
// chunked passes bitwise reproducible.
func eigDot4(a, b []float64) float64 {
	var s0, s1, s2, s3 float64
	i := 0
	for ; i+4 <= len(a); i += 4 {
		s0 += a[i] * b[i]
		s1 += a[i+1] * b[i+1]
		s2 += a[i+2] * b[i+2]
		s3 += a[i+3] * b[i+3]
	}
	for ; i < len(a); i++ {
		s0 += a[i] * b[i]
	}
	return (s0 + s1) + (s2 + s3)
}

// blockedTridiag reduces the symmetric matrix in A (row-major n×n) to
// tridiagonal form by blocked Householder similarity transformations.
// On return the diagonal and subdiagonal of A hold the tridiagonal form
// (extracted into d and e), A's strict lower triangle below the
// subdiagonal holds the normalized Householder vectors (v[0]=1 implicit on
// the subdiagonal row), and tau[j] the reflector scale of column j — the
// LAPACK dsytrd storage convention back-accumulation consumes.
func (ws *eigWS) blockedTridiag(A []float64, S, U, C *tensor.Tensor, n int, d, e, tau []float64, work []float64) {
	const b = eigBlock
	hv := work[0:n]
	x := work[n : 2*n]
	tmp1 := work[2*n : 3*n] // Wᵀv over the panel's prior columns
	tmp2 := work[3*n : 4*n] // Vᵀv over the panel's prior columns

	for j0 := 0; j0 < n-2; {
		w := b
		if j0+w > n-2 {
			w = n - 2 - j0
		}
		mt := n - 1 - j0 // panel rows: j0+1 .. n-1
		uz := U.Data[:mt*2*b]
		for i := range uz {
			uz[i] = 0
		}

		for jj := 0; jj < w; jj++ {
			j := j0 + jj
			m := n - 1 - j // reflector length: rows j+1 .. n-1

			// Apply the panel's previous reflector pairs to the stored
			// column j (rows j..n-1): A[p,j] −= V[p,:]·W[j,:]ᵀ + W[p,:]·V[j,:]ᵀ.
			// Row j is U panel row jj-1.
			if jj > 0 {
				vj := U.Data[(jj-1)*2*b : (jj-1)*2*b+jj]
				wj := U.Data[(jj-1)*2*b+b : (jj-1)*2*b+b+jj]
				for r := jj - 1; r < mt; r++ {
					urow := U.Data[r*2*b:]
					A[(j0+1+r)*n+j] -= eigDot(urow[:jj], wj) + eigDot(urow[b:b+jj], vj)
				}
			}

			// Householder reflector for A[j+1:n, j], with the same
			// sum-of-absolute-values scaling discipline as tred2.
			scale := 0.0
			for i := 0; i < m; i++ {
				scale += math.Abs(A[(j+1+i)*n+j])
			}
			if scale == 0 {
				// Zero column: H = I. Store v = e1 so back-accumulation
				// reads a well-defined (and, with τ=0, inert) reflector.
				tau[j] = 0
				U.Data[jj*2*b+jj] = 1
				continue
			}
			h := 0.0
			for i := 0; i < m; i++ {
				val := A[(j+1+i)*n+j] / scale
				hv[i] = val
				h += val * val
			}
			f := hv[0]
			g := math.Sqrt(h)
			if f > 0 {
				g = -g
			}
			hh := h - f*g // = uᵀu/2 for u = (f−g, a₁, …)
			u0 := f - g   // no cancellation: f and g have opposite signs
			tau[j] = u0 * u0 / hh
			inv := 1 / u0
			hv[0] = 1
			for i := 1; i < m; i++ {
				hv[i] *= inv
			}
			A[(j+1)*n+j] = scale * g // the subdiagonal entry e[j+1]
			for i := 1; i < m; i++ {
				A[(j+1+i)*n+j] = hv[i]
			}
			U.Data[jj*2*b+jj] = 1
			for i := 1; i < m; i++ {
				U.Data[(jj+i)*2*b+jj] = hv[i]
			}

			// tmp1 = Wᵀv, tmp2 = Vᵀv (serial: O(m·jj) in axpys of length
			// jj < 32; 10–14 % of tridiagonalisation at n = 432).
			for l := 0; l < jj; l++ {
				tmp1[l] = 0
				tmp2[l] = 0
			}
			if jj > 0 {
				for i := 0; i < m; i++ {
					vi := hv[i]
					if vi == 0 {
						continue
					}
					urow := U.Data[(jj+i)*2*b:]
					eigAxpy(tmp2[:jj], urow[:jj], vi)
					eigAxpy(tmp1[:jj], urow[b:b+jj], vi)
				}
			}

			// x = (A − VWᵀ − WVᵀ)·v: one row dot per trailing row, with the
			// prior-column corrections. Run inline: it is memory-bound
			// and one dispatch per column costs more than a team gains.
			for i := 0; i < m; i++ {
				p := j + 1 + i
				acc := eigDot(A[p*n+j+1:p*n+n], hv[:m])
				if jj > 0 {
					urow := U.Data[(jj+i)*2*b:]
					acc -= eigDot(urow[:jj], tmp1) + eigDot(urow[b:b+jj], tmp2)
				}
				x[i] = acc
			}

			// w = τx − ½τ²(xᵀv)·v, stored as W column jj.
			t := tau[j]
			xv := eigDot(x[:m], hv[:m])
			beta := 0.5 * t * t * xv
			for i := 0; i < m; i++ {
				U.Data[(jj+i)*2*b+b+jj] = t*x[i] - beta*hv[i]
			}
		}

		// Trailing symmetric rank-2w update on rows/cols ≥ j0+w:
		// A ← A − VWᵀ − WVᵀ, expressed as ONE pooled GEMM S = U·Cᵀ with
		// C = [W|V] (the column-swapped panel, so the single product sums
		// both terms), then a chunked per-row subtraction.
		rcount := mt - w + 1 // U rows w-1 .. mt-1 ↔ A rows j0+w .. n-1
		base := (w - 1) * 2 * b
		usl := U.Data[base : mt*2*b]
		csl := C.Data[base : mt*2*b]
		for r := 0; r < rcount; r++ {
			ur := usl[r*2*b:]
			cr := csl[r*2*b:]
			for l := 0; l < b; l++ {
				cr[l] = ur[b+l]
				cr[b+l] = ur[l]
			}
		}
		tensor.MatMulT2Into(ws.view(0, S.Data, rcount, rcount),
			ws.view(1, usl, rcount, 2*b), ws.view(2, csl, rcount, 2*b))

		ws.tr.A, ws.tr.S = A, S.Data
		ws.tr.n, ws.tr.off, ws.tr.m = n, j0+w, rcount
		ws.run(rcount, &ws.tr)

		j0 += w
	}

	d[0] = A[0]
	e[0] = 0
	for i := 1; i < n; i++ {
		d[i] = A[i*n+i]
		e[i] = A[i*n+i-1]
	}
}

// trailRanger subtracts the m×m product S from the block of A (row stride
// n) at rows/cols off..off+m-1, one matrix row per range element: the
// tridiagonalization's rank-2w trailing update and the back-accumulation's
// window update W −= V·M2.
type trailRanger struct {
	A, S      []float64
	n, off, m int
}

// RunRange implements sched.Ranger.
func (r *trailRanger) RunRange(lo, hi int) {
	for i := lo; i < hi; i++ {
		p := r.off + i
		arow := r.A[p*r.n+r.off : p*r.n+r.off+r.m]
		srow := r.S[i*r.m : (i+1)*r.m]
		for q := range arow {
			arow[q] -= srow[q]
		}
	}
}

// backAccumulate forms the tridiagonalization's orthogonal Q in q (n×n)
// from the Householder vectors stored in A's lower triangle, applying the
// compact-WY panels of width accBlock in reverse: Q ← (I − V T Vᵀ)Q. Before
// panel j0 is applied only the window W = Q[j0+1:, j0+1:] differs from the
// identity; it is held at the front of q with row stride mt = n−1−j0 (see
// widenWindow), so each panel is three GEMMs over contiguous operands and
// one chunked subtraction. V receives the packed panel and M1 the product
// VᵀW (n·b each: the tridiagonalization's U and C panels); work holds M2
// (b·n) followed by T and the Gram matrix G = VᵀV (b×b each). Once M2 is
// formed M1 is dead, and its buffer takes the product P = V·M2 b rows at a
// time: a GEMM element is its k-chain whatever rows the call covers, so
// the chunks are P's bits, and q is the only n×n buffer written.
func (ws *eigWS) backAccumulate(q, A []float64, n int, tau, V, M1, work []float64) {
	const b = accBlock
	M2, T, G := work[:b*n], work[b*n:b*n+b*b], work[b*n+b*b:b*n+2*b*b]
	mt := 0
	for j0 := (n - 3) / b * b; j0 >= 0; j0 -= b {
		w := min(b, n-2-j0)
		widenWindow(q, mt, n-1-j0-mt)
		mt = n - 1 - j0

		// Pack V (mt×b row-major): row r ↔ A row j0+1+r; unit diagonal,
		// stored components below, zero elsewhere (the columns past w
		// included). Row-wise contiguous reads from A's lower triangle.
		for r := 0; r < mt; r++ {
			vr := V[r*b : (r+1)*b]
			lim := min(r+1, w)
			arow := A[(j0+1+r)*n+j0:]
			for l := 0; l < lim; l++ {
				if l == r {
					vr[l] = 1
				} else {
					vr[l] = arow[l]
				}
			}
			clear(vr[lim:])
		}

		// T (w×w upper triangular, zero-padded to b×b, forward columnwise):
		// T[k,k] = τ_k and T[l,k] = −τ_k·Σ_{l≤j<k} T[l,j]·G[j,k]. G is
		// symmetric bit for bit (each element's products commute), so
		// column k is read as row k.
		v := ws.view(0, V, mt, b)
		tensor.MatMulT1Into(ws.view(1, G, b, b), v, v)
		clear(T)
		for k := 0; k < w; k++ {
			tk := tau[j0+k]
			gk := G[k*b:]
			for l := 0; l < k; l++ {
				T[l*b+k] = -tk * eigDot(T[l*b+l:l*b+k], gk[l:k])
			}
			T[k*b+k] = tk
		}

		// W ← W − V·(T·(VᵀW)). View 2 stays M2; views 0, 1, 3 are rebound.
		m1, m2 := ws.view(1, M1, b, mt), ws.view(2, M2, b, mt)
		tensor.MatMulT1Into(m1, v, ws.view(3, q, mt, mt))
		tensor.MatMulInto(m2, ws.view(3, T, b, b), m1)
		for r0 := 0; r0 < mt; r0 += b {
			rc := min(b, mt-r0)
			tensor.MatMulInto(ws.view(1, M1, rc, mt), ws.view(0, V[r0*b:], rc, b), m2)
			ws.tr.A, ws.tr.S = q[r0*mt:], M1
			ws.tr.n, ws.tr.off, ws.tr.m = mt, 0, mt
			ws.run(rc, &ws.tr)
		}
	}
	widenWindow(q, mt, n-mt)
}

// widenWindow re-strides the mt×mt window W at the front of q, in place,
// into the (mt+d)×(mt+d) window [[I, 0], [0, W]]; mt = 0 writes the d×d
// identity. Rows move last to first: for d ≥ 1 each row's destination lies
// wholly past its own source and every row not yet moved, so no row is
// overwritten before it is read.
func widenWindow(q []float64, mt, d int) {
	nt := mt + d
	for r := mt - 1; r >= 0; r-- {
		row := q[(d+r)*nt : (d+r+1)*nt]
		copy(row[d:], q[r*mt:(r+1)*mt])
		clear(row[:d])
	}
	for r := 0; r < d; r++ {
		row := q[r*nt : (r+1)*nt]
		clear(row)
		row[r] = 1
	}
}

// batchedQL runs tql2's implicit-shift QL iteration with the rotation
// application to Q batched: the scalar recurrence (d/e only) is byte-for-
// byte the serial algorithm and records each sweep's Givens pairs into rot
// (2·qlLanes·n float64s), and lane-block passes over qt (n×n scratch, which
// holds Qᵀ meanwhile) apply them with per-element arithmetic identical to
// the serial column loop. v is the back-accumulated Q, read only by the
// first transpose. Only once the recurrence has converged does it write eg:
// the eigenvalues, and Q through the transpose back.
func (ws *eigWS) batchedQL(v []float64, n int, d, e []float64, rot, qt []float64, eg *Eigen) error {
	ws.lt.q, ws.lt.qt, ws.lt.n, ws.lt.perm = v, qt, n, nil
	ws.run(laneBlocks(n), &ws.lt)
	ws.rb.qt, ws.rb.cs, ws.rb.n = qt, rot, n

	for i := 1; i < n; i++ {
		e[i-1] = e[i]
	}
	e[n-1] = 0

	f := 0.0
	tst1 := 0.0
	const eps = 2.220446049250313e-16 // 2^-52
	for l := 0; l < n; l++ {
		if t := math.Abs(d[l]) + math.Abs(e[l]); t > tst1 {
			tst1 = t
		}
		m := l
		for m < n {
			if math.Abs(e[m]) <= eps*tst1 {
				break
			}
			m++
		}
		if m > l {
			for iter := 0; ; iter++ {
				if iter > maxQLIter {
					return ErrNoConvergence
				}
				g := d[l]
				p := (d[l+1] - g) / (2 * e[l])
				r := math.Hypot(p, 1)
				if p < 0 {
					r = -r
				}
				d[l] = e[l] / (p + r)
				d[l+1] = e[l] * (p + r)
				dl1 := d[l+1]
				h := g - d[l]
				for i := l + 2; i < n; i++ {
					d[i] -= h
				}
				f += h

				rs := ws.qlRecord(l, m)
				p = d[m]
				c := 1.0
				c2, c3 := c, c
				el1 := e[l+1]
				s, s2 := 0.0, 0.0
				for i := m - 1; i >= l; i-- {
					c3 = c2
					c2 = c
					s2 = s
					g = c * e[i]
					h = c * p
					r = math.Hypot(p, e[i])
					e[i+1] = s * r
					s = e[i] / r
					c = p / r
					p = c*d[i] - s*g
					d[i+1] = h + s*(c*g+s*d[i])
					rs[2*(m-1-i)] = c
					rs[2*(m-1-i)+1] = s
				}
				p = -s * s2 * c3 * el1 * e[l] / dl1
				e[l] = s * p
				d[l] = c * p

				if math.Abs(e[l]) <= eps*tst1 {
					break
				}
			}
		}
		d[l] += f
		e[l] = 0
	}
	ws.qlFlush()

	// Sort eigenvalues ascending. The selection scan and d swaps are the
	// serial tql2 code; the column permutation is recorded and applied by
	// the transpose back to Q instead of per-swap column walks.
	if cap(ws.perm) < n {
		ws.perm = make([]int, n)
	}
	perm := ws.perm[:n]
	for i := range perm {
		perm[i] = i
	}
	for i := 0; i < n-1; i++ {
		k := i
		p := d[i]
		for j := i + 1; j < n; j++ {
			if d[j] < p {
				k = j
				p = d[j]
			}
		}
		if k != i {
			d[k] = d[i]
			d[i] = p
			perm[i], perm[k] = perm[k], perm[i]
		}
	}
	eg.Values = ensureFloats(eg.Values, n)
	copy(eg.Values, d)
	ws.lt.q, ws.lt.perm = tensor.Ensure(&eg.Q, n, n).Data, perm
	ws.run(laneBlocks(n), &ws.lt)
	return nil
}

// laneBlocks is the number of qlLanes-wide blocks covering n lanes; the
// last one holds the n mod qlLanes remainder.
func laneBlocks(n int) int { return (n + qlLanes - 1) / qlLanes }

// rotBatch is the QL rotation buffer: the (l, m) windows of the recorded
// sweeps and their rotations as (c, s) pairs in generation order, applied
// to the transposed eigenbasis by a pass over lane blocks. Each block owns
// its qlLanes columns of qt in every row and applies the sweeps in
// recording order, so the pass is deterministic for any chunk grid.
type rotBatch struct {
	qt   []float64 // n×n, Qᵀ: row j holds eigenbasis column j
	cs   []float64 // (c, s) pairs; len(cs)/2 rotations fit
	win  []int     // (l, m) per recorded sweep
	used int       // rotations recorded
	n    int
}

// qlRecord reserves the slots of one sweep over window (l, m) — m−l
// rotations, rotation t acting on columns (m−1−t, m−t) — flushing the
// buffered sweeps first when it does not fit, and returns them for the
// recurrence to fill with (c, s) pairs.
func (ws *eigWS) qlRecord(l, m int) []float64 {
	b := &ws.rb
	nrot := m - l
	if 2*(b.used+nrot) > len(b.cs) {
		ws.qlFlush()
	}
	rs := b.cs[2*b.used : 2*(b.used+nrot)]
	b.used += nrot
	b.win = append(b.win, l, m)
	return rs
}

// qlFlush applies every buffered sweep in one pass over lane blocks and
// empties the buffer.
func (ws *eigWS) qlFlush() {
	b := &ws.rb
	if b.used == 0 {
		return
	}
	ws.run(laneBlocks(b.n), b)
	b.used, b.win = 0, b.win[:0]
}

// RunRange implements sched.Ranger over lane blocks.
func (b *rotBatch) RunRange(lo, hi int) {
	n := b.n
	for blk := lo; blk < hi; blk++ {
		k0 := blk * qlLanes
		w := min(qlLanes, n-k0)
		off := 0
		for i := 0; i < len(b.win); i += 2 {
			l, m := b.win[i], b.win[i+1]
			rotLanes(b.qt[l*n+k0:m*n+k0+w], n, w, b.cs[2*off:2*(off+m-l)])
			off += m - l
		}
	}
}

// laneTransRanger moves the eigenbasis between q (row-major n×n) and its
// transpose qt over lane blocks of qlLanes rows of q. With perm nil it
// writes qt = qᵀ; otherwise q[k][j] = qt[perm[j]][k], the transpose back
// fused with the eigenvalue sort's column permutation. Each block owns its
// rows of q and columns of qt.
type laneTransRanger struct {
	q, qt []float64
	perm  []int
	n     int
}

// RunRange implements sched.Ranger over lane blocks.
func (r *laneTransRanger) RunRange(lo, hi int) {
	n := r.n
	for blk := lo; blk < hi; blk++ {
		k0 := blk * qlLanes
		w := min(qlLanes, n-k0)
		q := r.q[k0*n : (k0+w)*n]
		if r.perm == nil {
			for j := 0; j < n; j++ {
				lanes := r.qt[j*n+k0 : j*n+k0+w]
				for i := range lanes {
					lanes[i] = q[i*n+j]
				}
			}
			continue
		}
		for j, pj := range r.perm {
			for i, x := range r.qt[pj*n+k0 : pj*n+k0+w] {
				q[i*n+j] = x
			}
		}
	}
}
