// Blocked symmetric eigensolver: Level-3 Householder tridiagonalization in
// the compact-WY representation, a divide-and-conquer solve of the
// tridiagonal whose merges are GEMMs, and the reflectors applied straight
// onto the tridiagonal's eigenvectors. This is the multi-threaded
// counterpart of the serial tred2/tql2 pair in eigen.go, built so that
// every parallel partition is a fixed chunk grid whose elements are each
// produced by exactly one chunk with a fixed serial reduction order — the
// sched.Pool.ForEach contract — making the result bitwise identical across
// repeated calls, team sizes, and GOMAXPROCS settings.
//
// Structure (for an n×n symmetric input, panel width b = eigBlock):
//
//  1. Blocked tridiagonalization. Columns are reduced in panels of width b.
//     Within a panel, column j's Householder reflector v_j and the product
//     w_j = τ(A v_j − V Wᵀv_j − W Vᵀv_j) − ½τ²(v_jᵀ·)v_j are accumulated
//     as rows of a transposed panel [Vᵀ;Wᵀ], so each of the panel's
//     corrections — the eager update of column j, the products Wᵀv_j and
//     Vᵀv_j, and their share of x = A v_j — is a few axpys or dots over a
//     whole column, not one short call per row. Only the panel's own
//     columns are updated eagerly. The trailing matrix then receives one
//     symmetric rank-2b update A ← A − VWᵀ − WVᵀ, expressed as a single
//     pooled tensor.MatMulT1Into GEMM S = [Vᵀ;Wᵀ]ᵀ·[Wᵀ;Vᵀ] followed by a
//     chunked subtraction — the Level-3 step that carries ~2/3 of the
//     reduction's flops. The reflectors stay in the reduced matrix's lower
//     triangle, LAPACK-style.
//  2. Divide and conquer (eigen_dc.go): the tridiagonal's eigenvectors Z,
//     ascending, written into the caller's eigenbasis, from tql2 leaves
//     merged up a split tree fixed by n, each merge two structured GEMMs.
//  3. Reflector application. Z ← H₀H₁⋯H_{n−3}·Z in reverse panels of
//     accBlock reflectors, Z[j0+1:, :] ← (I − V T Vᵀ)·Z[j0+1:, :]: T from
//     one Gram product VᵀV, then three pooled GEMMs — V·T, VᵀZ and their
//     product P — and the chunked subtraction Z −= P, so every element is
//     the GEMM's fixed FMA chain whatever the team.
//
// The solve runs in its workspace (eigWS), and every step that can fail —
// the input and tridiagonal finiteness checks and the leaves' QL — comes
// before the first write to the caller's eigenbasis, so a failed solve
// leaves it untouched (see SymEigBlockedTimedInto).
package linalg

import (
	"fmt"
	"math"
	"slices"
	"sync"
	"time"

	"repro/internal/sched"
	"repro/internal/tensor"
)

const (
	// eigBlock is the panel width b of the blocked tridiagonalization. 32
	// keeps the rank-2b GEMM's inner dimension long enough for the pooled
	// kernels to run at full throughput.
	eigBlock = 32

	// accBlock is the panel width of the reflector application: its
	// products have a 64-deep inner dimension, and the packed V and VᵀZ
	// reuse the tridiagonalization's U and C panels.
	accBlock = 2 * eigBlock

	// eigBlockedMinDim is the dimension below which the blocked solver
	// falls back to the serial tred2/tql2 pair: small factors are
	// launch-overhead bound, and the serial pair wins outright. The
	// fallback ignores the team parameter entirely, so the determinism
	// contract (same bits for every team size) holds trivially there.
	eigBlockedMinDim = 128
)

// EigKernelTimes accumulates the per-kernel wall time of one or more
// blocked eigendecompositions, in nanoseconds. The K-FAC engines surface
// these through StageStats so the stage profile shows where
// decomposition time goes, not just its total.
type EigKernelTimes struct {
	// TridiagNS is the blocked Householder reduction (panel factorization
	// plus trailing rank-2b GEMM updates).
	TridiagNS int64
	// BackAccumNS is the compact-WY application of the reflectors to the
	// tridiagonal's eigenvectors (the name predates it: Q is no longer
	// back-accumulated).
	BackAccumNS int64
	// QLNS is the divide-and-conquer solve of the tridiagonal — leaves,
	// merges and the eigenvalue order (the name predates it: QL now only
	// solves the leaves).
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
// the symmetrized copy, and the tridiagonal is then not finite. Both paths
// therefore solve in their workspace (eigWS). The blocked path checks the
// tridiagonal and solves every leaf before its first write to eg.Q — the
// merges and the reflector application cannot fail — and the serial
// fallback copies out once QL has converged.
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

	ws := acquireEigWS(team, n)
	defer ws.release()
	A, S := ensureFloats(&ws.a, n*n), ensureFloats(&ws.s, n*n)
	U, C := ensureFloats(&ws.u, 2*eigBlock*n), ensureFloats(&ws.c, 2*eigBlock*n)
	tau, work := ensureFloats(&ws.tau, n), ensureFloats(&ws.work, dcFloats*n)
	de, acc := ensureFloats(&ws.de, 3*n), ensureFloats(&ws.acc, accBlock*n+2*accBlock*accBlock)

	// Symmetrized working copy; a is left untouched.
	symmetrize(A, a.Data, n)

	d, e, et := de[:n], de[n:2*n], de[2*n:]
	start := time.Now()
	ws.blockedTridiag(A, S, U, C, n, d, e, tau, work)
	tTri := time.Now()

	exp, ok := unitScale(d, e)
	if !ok {
		return ErrNoConvergence
	}
	if err := ws.dcLeaves(d, e, et, acc); err != nil {
		return err
	}
	q := tensor.Ensure(&eg.Q, n, n).Data
	ws.dcMerges(d, e, acc, S, q, U, C, work)
	tDC := time.Now()
	ws.applyReflectors(q, A, n, tau, U, C, acc, S)
	vals := ensureFloats(&eg.Values, n)
	for i, v := range d {
		vals[i] = math.Ldexp(v, exp)
	}
	if tm != nil {
		tm.TridiagNS += tTri.Sub(start).Nanoseconds()
		tm.QLNS += tDC.Sub(tTri).Nanoseconds()
		tm.BackAccumNS += time.Since(tDC).Nanoseconds()
	}
	return nil
}

// unitScale scales the tridiagonal (d, e) to unit max norm by a power of
// two, which is exact, so the deflation tolerances are relative to it, and
// returns the exponent that scales the eigenvalues back — or false when the
// tridiagonal is not finite.
func unitScale(d, e []float64) (exp int, ok bool) {
	norm := 0.0
	for i := range d {
		norm = max(norm, math.Abs(d[i]), math.Abs(e[i]))
	}
	if math.IsNaN(norm) || math.IsInf(norm, 0) {
		return 0, false
	}
	_, exp = math.Frexp(norm)
	for i := range d {
		d[i], e[i] = math.Ldexp(d[i], -exp), math.Ldexp(e[i], -exp)
	}
	return exp, true
}

// symEigSmallInto is the serial tred2/tql2 pair below eigBlockedMinDim. It
// works on a copy in its workspace's reduced-matrix buffer (under
// eigBlockedMinDim² floats) and copies it into eg only once QL has
// converged.
func symEigSmallInto(a *tensor.Tensor, eg *Eigen) error {
	n := a.Rows()
	ws := acquireEigWS(1, n)
	defer ws.release()
	V, de := ensureFloats(&ws.a, n*n), ensureFloats(&ws.de, 2*n)
	symmetrize(V, a.Data, n)
	d, e := de[:n], de[n:]
	tred2(V, n, d, e)
	if err := tql2(V, n, d, e); err != nil {
		return err
	}
	eg.SetFrom(d, V, n)
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

// eigWS is the one workspace of a solve — a blocked full solve, a serial
// solve below eigBlockedMinDim or a power refresh: its buffers, the ranger
// structs the parallel passes dispatch through, the view headers handed to
// the pooled GEMM, the divide and conquer's state and its index workspace.
// Each solve sizes the buffers it uses with ensureFloats, so a buffer grows
// to the largest size it has been asked for and keeps it; their contents
// are unspecified, possibly a differently sized solve's leftovers.
// eigWSFree recycles workspaces so steady-state solves allocate nothing.
type eigWS struct {
	team int

	// The blocked full solve's buffers: a the reduced matrix (its lower
	// triangle then holds the reflectors); s the rank-2b update buffer (a
	// divide-and-conquer level, then the product P); u and c the panels
	// (the transposed [Vᵀ;Wᵀ] panel and the GEMM's packed operands;
	// secular-vector panels; then the packed V and VᵀZ), n·2·eigBlock
	// each; tau the reflector scales; work a merge's dcFloats·n floats; de
	// the tridiagonal (d, e and the leaves' copy of e); acc the leaves
	// (then V·T, T and G). The serial solve takes its copy from a and d, e
	// from de; the power refresh's use is documented on powerWS.
	a, s, u, c, tau, work, de, acc []float64

	// View headers over the workspace's and the caller's storage for the
	// pooled GEMMs (see view).
	views [4]tensor.Tensor

	tr  trailRanger
	dc  dcState
	grp tensor.Group[float64] // a merge panel's two products

	ints []int // dcInts·n index workspace of a merge
}

// eigWSFree holds the idle workspaces in ascending order of their
// reduced-matrix buffer's capacity. Not a sync.Pool: the collector empties
// a sync.Pool, and every refill would re-allocate a workspace's buffers.
// eigWSIdle only bounds how many idle workspaces are kept: concurrent
// solves are bounded by the eig scheduler's GOMAXPROCS slots, and past it a
// workspace is left to the collector.
var eigWSFree struct {
	sync.Mutex
	ws []*eigWS
}

const eigWSIdle = 16

// acquireEigWS takes from eigWSFree the smallest idle workspace whose
// buffers hold a solve of order n, else the largest (or a new one), for a
// solve by a team of the given size. A large solve thus runs on a
// workspace already grown for it, so the pool keeps one large set per
// large solve in flight, not one per solve of any size.
func acquireEigWS(team, n int) *eigWS {
	var ws *eigWS
	eigWSFree.Lock()
	if free := eigWSFree.ws; len(free) > 0 {
		i := slices.IndexFunc(free, func(w *eigWS) bool { return cap(w.a) >= n*n })
		if i < 0 {
			i = len(free) - 1
		}
		ws = free[i]
		eigWSFree.ws = slices.Delete(free, i, i+1)
	}
	eigWSFree.Unlock()
	if ws == nil {
		ws = new(eigWS)
	}
	ws.team = team
	return ws
}

// release drops the slice references the rangers and views captured — the
// caller's eigenbasis among them — so a pooled workspace keeps only its own
// buffers reachable, and returns ws to eigWSFree.
func (ws *eigWS) release() {
	for i := range ws.views {
		ws.views[i].Data = nil
	}
	ws.tr = trailRanger{}
	ws.dc = dcState{}
	eigWSFree.Lock()
	if free := eigWSFree.ws; len(free) < eigWSIdle {
		i := slices.IndexFunc(free, func(w *eigWS) bool { return cap(w.a) > cap(ws.a) })
		if i < 0 {
			i = len(free)
		}
		eigWSFree.ws = slices.Insert(free, i, ws)
	}
	eigWSFree.Unlock()
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
// LAPACK dsytrd storage convention the reflector application consumes.
//
// A panel of w columns is held transposed in C while it is reduced: row l
// of Vᵀ at C[l·mt:] and of Wᵀ at C[(w+l)·mt:], mt the panel's rows
// (A rows j0+1..n−1), so every per-column correction is an eigAxpy or
// eigDot over a whole column. Row l is written, and read, only from
// element l on.
func (ws *eigWS) blockedTridiag(A, S, U, C []float64, n int, d, e, tau, work []float64) {
	x := work[0:n]
	tmp1 := work[n : 2*n]   // Wᵀv over the panel's prior columns
	tmp2 := work[2*n : 3*n] // Vᵀv over the panel's prior columns

	for j0 := 0; j0 < n-2; {
		w := min(eigBlock, n-2-j0)
		mt := n - 1 - j0 // panel rows: j0+1 .. n-1
		vt := func(l int) []float64 { return C[l*mt : (l+1)*mt] }
		wt := func(l int) []float64 { return C[(w+l)*mt : (w+l+1)*mt] }

		for jj := 0; jj < w; jj++ {
			j := j0 + jj
			m := n - 1 - j // reflector length: rows j+1 .. n-1

			// Gather column j (rows j..n-1; row j is panel row jj-1) and
			// apply the panel's previous reflector pairs to it:
			// col −= V·W[jj-1,:]ᵀ + W·V[jj-1,:]ᵀ.
			col := x[:m+1]
			for i := range col {
				col[i] = A[(j+i)*n+j]
			}
			for l := 0; l < jj; l++ {
				vl, wl := vt(l)[jj-1:], wt(l)[jj-1:]
				eigAxpy(col, vl, -wl[0])
				eigAxpy(col, wl, -vl[0])
			}

			// Householder reflector for col[1:], with the same
			// sum-of-absolute-values scaling discipline as tred2. v is
			// built in place as Vᵀ row jj.
			hv := vt(jj)[jj:]
			scale := 0.0
			for _, c := range col[1:] {
				scale += math.Abs(c)
			}
			if scale == 0 {
				// Zero column: H = I. Store v = e1 and w = 0, so the
				// reflector application and the panel's later columns
				// read a well-defined (and, with τ=0, inert) reflector.
				for i, c := range col {
					A[(j+i)*n+j] = c
				}
				tau[j] = 0
				hv[0] = 1
				clear(hv[1:])
				clear(wt(jj)[jj:])
				continue
			}
			h := 0.0
			for i, c := range col[1:] {
				val := c / scale
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
			A[j*n+j] = col[0]
			A[(j+1)*n+j] = scale * g // the subdiagonal entry e[j+1]
			for i := 1; i < m; i++ {
				A[(j+1+i)*n+j] = hv[i]
			}

			// tmp1 = Wᵀv, tmp2 = Vᵀv over the panel's prior columns.
			for l := 0; l < jj; l++ {
				tmp1[l] = eigDot(wt(l)[jj:], hv)
				tmp2[l] = eigDot(vt(l)[jj:], hv)
			}

			// x = (A − VWᵀ − WVᵀ)·v: one row dot per trailing row, then
			// the prior-column corrections as whole-column axpys. Run
			// inline: it is memory-bound and one dispatch per column
			// costs more than a team gains.
			x := x[:m]
			for i := range x {
				p := j + 1 + i
				x[i] = eigDot(A[p*n+j+1:p*n+n], hv)
			}
			for l := 0; l < jj; l++ {
				eigAxpy(x, vt(l)[jj:], -tmp1[l])
				eigAxpy(x, wt(l)[jj:], -tmp2[l])
			}

			// w = τx − ½τ²(xᵀv)·v, stored as Wᵀ row jj.
			t := tau[j]
			beta := 0.5 * t * t * eigDot(x, hv)
			wj := wt(jj)[jj:]
			for i, xi := range x {
				wj[i] = t*xi - beta*hv[i]
			}
		}

		// Trailing symmetric rank-2w update on rows/cols ≥ j0+w:
		// A ← A − VWᵀ − WVᵀ, expressed as ONE pooled GEMM S = Xᵀ·Y with
		// X = [Vᵀ;Wᵀ] and Y = [Wᵀ;Vᵀ] (the row-swapped panel, so the
		// single product sums both terms), then a chunked per-row
		// subtraction. One pass packs both from panel columns w-1..mt-1
		// (↔ A rows j0+w..n-1): Y into U, and X over the panel itself,
		// each row moving down to stride rcount — never past a row not
		// yet read.
		rcount := mt - w + 1
		for k := 0; k < 2*w; k++ {
			src := C[k*mt+w-1 : (k+1)*mt]
			copy(U[(k+w)%(2*w)*rcount:], src)
			copy(C[k*rcount:], src)
		}
		tensor.MatMulT1Into(ws.view(0, S, rcount, rcount),
			ws.view(1, C, 2*w, rcount), ws.view(2, U, 2*w, rcount))

		ws.tr.A, ws.tr.S = A, S
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

// trailRanger subtracts the product S (row stride m) from rows off.. and
// columns off..off+m-1 of A (row stride n), one matrix row per range
// element: the tridiagonalization's rank-2w trailing update and the
// reflector application's update Z −= P.
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

// applyReflectors overwrites z (n×n) with H₀H₁⋯H_{n−3}·z, the reflectors
// H_j = I − τ_j v_j v_jᵀ stored in A's lower triangle and tau, applying the
// compact-WY panels of (at most) accBlock reflectors in reverse:
// Z[j0+1:, :] ← (I − V T Vᵀ)·Z[j0+1:, :], a contiguous row block of z, as
// P = (V·T)·(VᵀZ) and Z −= P. V receives the packed panel and VᵀZ goes to
// M1 (n·b each: the tridiagonalization's U and C panels); work holds V·T
// (n·b) followed by T and the Gram matrix G = VᵀV (b×b each), and p receives
// P (the n×n trailing-update buffer).
func (ws *eigWS) applyReflectors(z, A []float64, n int, tau, V, M1, work, p []float64) {
	const b = accBlock
	VT, T, G := work[:b*n], work[b*n:b*n+b*b], work[b*n+b*b:b*n+2*b*b]
	for j0 := (n - 3) / b * b; j0 >= 0; j0 -= b {
		w := min(b, n-2-j0)
		mt := n - 1 - j0

		// Pack V (mt×w row-major): row r ↔ A row j0+1+r; unit diagonal,
		// stored components below, zero above. Row-wise contiguous reads
		// from A's lower triangle.
		for r := 0; r < mt; r++ {
			vr := V[r*w : (r+1)*w]
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

		// T (w×w upper triangular, forward columnwise): T[k,k] = τ_k and
		// T[l,k] = −τ_k·Σ_{l≤j<k} T[l,j]·G[j,k]. G is symmetric bit for bit
		// (each element's products commute), so column k is read as row k.
		v := ws.view(0, V, mt, w)
		tensor.MatMulT1Into(ws.view(1, G, w, w), v, v)
		clear(T[:w*w])
		for k := 0; k < w; k++ {
			tk := tau[j0+k]
			gk := G[k*w:]
			for l := 0; l < k; l++ {
				T[l*w+k] = -tk * eigDot(T[l*w+l:l*w+k], gk[l:k])
			}
			T[k*w+k] = tk
		}

		// Z ← Z − (V·T)·(VᵀZ) on rows j0+1.. .
		zr := z[(j0+1)*n:]
		vt, m1 := ws.view(2, VT, mt, w), ws.view(1, M1, w, n)
		tensor.MatMulInto(vt, v, ws.view(3, T, w, w))
		tensor.MatMulT1Into(m1, v, ws.view(3, zr, mt, n))
		tensor.MatMulInto(ws.view(0, p, mt, n), vt, m1)
		ws.tr.A, ws.tr.S = zr, p
		ws.tr.n, ws.tr.off, ws.tr.m = n, 0, n
		ws.run(mt, &ws.tr)
	}
}
