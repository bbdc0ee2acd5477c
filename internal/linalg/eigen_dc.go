package linalg

import (
	"math"
	"sync/atomic"
)

// Tridiagonal divide and conquer: the eigenvectors Z and eigenvalues of the
// symmetric tridiagonal (d, e) that blockedTridiag produces — Cuppen's
// method with LAPACK dstedc's deflation and Gu–Eisenstat's eigenvectors.
//
// The split tree is fixed by n: level t has 2^t nodes, node i spanning rows
// [i·n >> t, (i+1)·n >> t), down to leaves of at most dcLeaf rows. Cutting
// at every node's midpoint first (|β| = |e[mid]| off both diagonal entries
// beside the cut) leaves independent leaves, each solved by tql2 on an
// identity block; a merge then solves D + ρ·zzᵀ, with D the halves'
// eigenvalues, z = [last row of Z₁; sign(β)·first row of Z₂]/√2, ρ = 2|β|.
// It deflates as dlaed2 does — a pole with ρ|z_i| ≤ tol keeps its vector,
// and of two poles with |t·c·s| ≤ tol the first is rotated out — and finds
// root j of 1 + Σ ρz_i²/(d_i − λ) = 0, in (d_j, d_{j+1}), as an offset τ_j
// from its nearer pole o_j, so that d_i − λ_j = (d_i − d_{o_j}) − τ_j stays
// accurate. Its eigenvector is ẑ_i/(d_i − λ_j), normalised, with ẑ
// recomputed from the roots, which keeps the vectors orthogonal whatever
// each root's accuracy. Ordering the secular rows top-only, mixed (rotated
// across the halves), bottom-only makes the product with diag(Z₁, Z₂) two
// GEMMs over contiguous operands: the top rows against the top-only and
// mixed columns, the bottom rows against the mixed and bottom-only ones.
//
// A node's eigenvectors are stored row-major, columns in ascending
// eigenvalue order, at offset lo·M_t of its level's buffer, M_t = ⌈n/2^t⌉.
// Leaves have their own buffer and merged levels alternate between two n×n
// buffers, the root landing in the caller's eigenbasis: the leaves' QL is
// the last step that can fail. Each phase is chunked over the team with one
// owner per output element and a fixed serial order inside it, and the
// GEMMs are worker-independent, so Z's bits do not depend on the team.

const (
	// dcLeaf is the largest leaf of the split tree; a leaf is one tql2.
	dcLeaf = 32

	// dcPanel bounds the secular-vector panel: it (k×w) and its GEMM output
	// (m×w) each fit n·dcPanel floats, the tridiagonalization's U and C.
	dcPanel = 2 * eigBlock

	// dcFloats and dcInts are a merge's float64 and int workspace, in
	// vectors of n.
	dcFloats = 10
	dcInts   = 8
)

// The phases of dcState.RunRange, each over its own element kind.
const (
	dcLeaves  = iota // leaves: tql2
	dcRoots          // roots: secularRoot
	dcZhat           // poles: ẑ_i
	dcFill           // rows: diag(Z₁, Z₂) into the output slots, rotated
	dcPack           // rows: the GEMM operands
	dcVec            // panel columns: secular vectors
	dcScatter        // rows: the product into the roots' slots
)

// dcDepth is the depth of the split tree: the smallest t with
// ⌈n/2^t⌉ ≤ dcLeaf.
func dcDepth(n int) int {
	t := 0
	for dcSpan(n, t) > dcLeaf {
		t++
	}
	return t
}

// dcSpan is M_t = ⌈n/2^t⌉: level t's largest node and its blocks' stride.
func dcSpan(n, t int) int { return (n + 1<<t - 1) >> t }

// dcState is the divide and conquer's state: the leaves' inputs and the
// current merge's sizes, vectors and index maps, read by the phase it runs
// as a sched.Ranger.
type dcState struct {
	phase, n, depth int
	d, e, leaf      []float64
	failed          atomic.Bool

	// A merge of halves of m1 and m−m1 rows: k surviving poles, the first
	// k1 top-only and k12 with top rows; nrot rotations; the panel holds
	// roots j0..j0+w−1.
	m, m1, k, k1, k12, nrot, j0, w int

	c1, c2, y, up, tmp                      []float64
	pole, zs, zsq, tau, zhat, rc, rs, scale []float64

	// slot is each input column's output column; rotp/rotc each rotation's
	// input columns; org each root's origin pole; rowpos each pole's row
	// in the type-ordered secular matrix; rslot each root's output column.
	slot, rotp, rotc, org, rowpos, rslot []int
}

// RunRange implements sched.Ranger over the current phase's elements.
func (st *dcState) RunRange(lo, hi int) {
	for i := lo; i < hi; i++ {
		switch st.phase {
		case dcLeaves:
			st.leafAt(i)
		case dcRoots:
			st.org[i], st.tau[i] = secularRoot(st.pole[:st.k], st.zsq[:st.k], i)
		case dcZhat:
			st.zhatAt(i)
		case dcFill:
			st.fillRow(i)
		case dcPack:
			st.packRow(i)
		case dcVec:
			st.vecCol(i)
		case dcScatter:
			row := st.y[i*st.m : (i+1)*st.m]
			for q, x := range st.tmp[i*st.w : (i+1)*st.w] {
				row[st.rslot[st.j0+q]] = x * st.scale[st.j0+q]
			}
		}
	}
}

// dcRun runs phase over [0, m).
func (ws *eigWS) dcRun(phase, m int) {
	ws.dc.phase = phase
	ws.run(m, &ws.dc)
}

// dcLeaves tears the scaled tridiagonal at every cut of the split tree and
// solves each leaf by tql2 on an identity block in leaf, at offset
// lo·M_depth. Each leaf's QL runs on a copy of e in et; on return d holds
// each leaf's eigenvalues in ascending order.
func (ws *eigWS) dcLeaves(d, e, et, leaf []float64) error {
	n := len(d)
	depth := dcDepth(n)
	for t := 0; t < depth; t++ {
		for i := 0; i < 1<<t; i++ {
			mid := (2*i + 1) * n >> (t + 1)
			d[mid-1] -= math.Abs(e[mid])
			d[mid] -= math.Abs(e[mid])
		}
	}
	copy(et, e)
	st := &ws.dc
	st.n, st.depth, st.d, st.e, st.leaf = n, depth, d, et, leaf
	st.failed.Store(false)
	ws.dcRun(dcLeaves, 1<<depth)
	if st.failed.Load() {
		return ErrNoConvergence
	}
	return nil
}

// leafAt solves leaf i.
func (st *dcState) leafAt(i int) {
	n, t := st.n, st.depth
	r0, r1 := i*n>>t, (i+1)*n>>t
	m := r1 - r0
	v := st.leaf[r0*dcSpan(n, t):][:m*m]
	clear(v)
	for j := 0; j < m; j++ {
		v[j*m+j] = 1
	}
	st.e[r0] = 0
	if tql2(v, m, st.d[r0:r1], st.e[r0:r1]) != nil {
		st.failed.Store(true)
	}
}

// dcMerges merges the leaves up the split tree. Level t's blocks live in
// leaf (t = depth), q (t even) or s (t odd), so the root's eigenvectors
// land in q, row-major n×n with ascending eigenvalues, which d then holds.
// It returns how many of the n eigenvalues the top merge deflated.
func (ws *eigWS) dcMerges(d, e, leaf, s, q, up, tmp, work []float64) (deflated int) {
	n, depth := len(d), ws.dc.depth
	if cap(ws.ints) < dcInts*n {
		ws.ints = make([]int, dcInts*n)
	}
	x := leaf
	for t := depth - 1; t >= 0; t-- {
		y := s
		if t%2 == 0 {
			y = q
		}
		sc, sp := dcSpan(n, t+1), dcSpan(n, t)
		for i := 0; i < 1<<t; i++ {
			lo, mid, hi := i*n>>t, (2*i+1)*n>>(t+1), (i+1)*n>>t
			deflated = ws.dcMerge(d[lo:hi], mid-lo, e[mid], x[lo*sc:mid*sc], x[mid*sc:hi*sc],
				y[lo*sp:][:(hi-lo)*(hi-lo)], up, tmp, work)
		}
		x = y
	}
	return deflated
}

// dcMerge merges two solved halves of m1 and m2 = len(d) − m1 rows: c1
// and c2 hold their eigenvectors (m1×m1 and m2×m2, at their heads) and d
// their eigenvalues, each half ascending; beta is the coupling torn at the
// cut. It writes the merged eigenvectors into y (m×m) and the merged
// eigenvalues, ascending, into d, and returns how many deflated. c1 and c2
// then hold the GEMM operands; up and tmp hold n·dcPanel floats, work
// dcFloats·n.
func (ws *eigWS) dcMerge(d []float64, m1 int, beta float64, c1, c2, y []float64, up, tmp, work []float64) int {
	st := &ws.dc
	m := len(d)
	m2 := m - m1
	fs := func(i int) []float64 { return work[i*m : (i+1)*m] }
	z, dval := fs(0), fs(1)
	st.pole, st.zs, st.zsq, st.tau, st.zhat, st.rc, st.rs, st.scale = fs(2), fs(3), fs(4), fs(5), fs(6), fs(7), fs(8), fs(9)
	is := func(i int) []int { return ws.ints[i*m : (i+1)*m] }
	idx, sup, cols, dcol := is(0), is(1), is(2), is(3)
	st.slot, st.rotp, st.rotc, st.org = is(4), is(5), is(6), is(7)
	st.rowpos, st.rslot = idx, cols // reused once the sweep and the poles are done
	st.m, st.m1, st.c1, st.c2, st.y = m, m1, c1, c2, y

	// z, and the poles' ascending order: the halves merged, ties to the top.
	rho, sgn := 2*math.Abs(beta), math.Copysign(1, beta)
	for i := 0; i < m1; i++ {
		z[i] = math.Sqrt2 / 2 * c1[(m1-1)*m1+i]
	}
	for i := 0; i < m2; i++ {
		z[m1+i] = sgn * math.Sqrt2 / 2 * c2[i]
	}
	zmax := 0.0
	for p, a, b := 0, 0, m1; p < m; p++ {
		if b == m || (a < m1 && d[a] <= d[b]) {
			idx[p], a = a, a+1
		} else {
			idx[p], b = b, b+1
		}
		sup[p] = 1 // support: 1 top rows, 2 bottom rows, 3 both
		if p >= m1 {
			sup[p] = 2
		}
		zmax = max(zmax, math.Abs(z[p]))
	}

	// Deflation (dlaed2), relative to the node's largest pole and z
	// component; the tridiagonal was scaled to unit norm. d is the poles'
	// scratch until the merged order overwrites it.
	tol := 8 * 0x1p-53 * max(math.Abs(d[idx[0]]), math.Abs(d[idx[m-1]]), zmax)
	k, nd, nrot, pj := 0, 0, 0, -1
	for _, c := range idx {
		switch {
		case rho*math.Abs(z[c]) <= tol:
			dcol[nd], dval[nd] = c, d[c]
			nd++
			continue
		case pj < 0:
			pj = c
			continue
		}
		r := math.Hypot(z[c], z[pj])
		cs, s := z[c]/r, -z[pj]/r
		if math.Abs((d[c]-d[pj])*cs*s) > tol {
			cols[k], k, pj = pj, k+1, c
			continue
		}
		// Rotate column pj out: its z component becomes 0.
		z[c], z[pj] = r, 0
		sup[c] |= sup[pj]
		st.rotp[nrot], st.rotc[nrot], st.rc[nrot], st.rs[nrot] = pj, c, cs, s
		nrot++
		dcol[nd], dval[nd] = pj, d[pj]*cs*cs+d[c]*s*s
		nd++
		d[c] = d[pj]*s*s + d[c]*cs*cs
		pj = c
	}
	if pj >= 0 {
		cols[k], k = pj, k+1
	}
	st.k, st.nrot = k, nrot

	// The secular problem: its roots, ẑ, and the secular rows' type order.
	var next [4]int // by support: top-only, then mixed, then bottom-only
	for j, c := range cols[:k] {
		st.pole[j], st.zs[j], st.zsq[j] = d[c], z[c], rho*z[c]*z[c]
		next[sup[c]]++
	}
	st.k1, st.k12 = next[1], next[1]+next[3]
	next[1], next[3], next[2] = 0, st.k1, st.k12
	for j, c := range cols[:k] {
		st.rowpos[j], next[sup[c]] = next[sup[c]], next[sup[c]]+1
	}
	ws.dcRun(dcRoots, k)
	ws.dcRun(dcZhat, k)

	// The deflated values ascending (insertion sort: nearly sorted), then
	// the merged order, which fixes every column's slot.
	for i := 1; i < nd; i++ {
		for j := i; j > 0 && dval[j-1] > dval[j]; j-- {
			dval[j], dval[j-1], dcol[j], dcol[j-1] = dval[j-1], dval[j], dcol[j-1], dcol[j]
		}
	}
	for p, a, b := 0, 0, 0; p < m; p++ {
		if b < nd && (a == k || dval[b] < st.pole[st.org[a]]+st.tau[a]) {
			st.slot[dcol[b]], d[p] = p, dval[b]
			b++
			continue
		}
		d[p] = st.pole[st.org[a]] + st.tau[a]
		st.slot[cols[a]], st.rslot[a] = p, p
		a++
	}

	// diag(Z₁, Z₂), rotated, in y's slots; the operands; then the product
	// in panels of w roots.
	ws.dcRun(dcFill, m)
	if k == 0 {
		return m
	}
	ws.dcRun(dcPack, m)
	pw := min(k, st.n*dcPanel/m)
	for j0 := 0; j0 < k; j0 += pw {
		w := min(pw, k-j0)
		st.j0, st.w, st.up, st.tmp = j0, w, up[:k*w], tmp[:m*w]
		ws.dcRun(dcVec, w)
		// One grid for both halves; a half without operand columns is an
		// empty product, which zeroes its rows.
		ws.grp.MatMul(ws.view(0, st.tmp, m1, w), ws.view(1, c1, m1, st.k12), ws.view(2, st.up, st.k12, w))
		ws.grp.MatMul(ws.view(0, st.tmp[m1*w:], m2, w), ws.view(1, c2, m2, k-st.k1),
			ws.view(2, st.up[st.k1*w:], k-st.k1, w))
		ws.grp.Run()
		ws.dcRun(dcScatter, m)
	}
	return nd
}

// zhatAt recomputes ẑ_i = ±√(−Δ_ii·∏_{j≠i} Δ_ij/(d_i − d_j)) from the roots,
// Δ_ij = d_i − λ_j, with z_i's sign.
func (st *dcState) zhatAt(i int) {
	di := st.pole[i]
	w := (di - st.pole[st.org[i]]) - st.tau[i]
	for j := 0; j < st.k; j++ {
		if j != i {
			w *= ((di - st.pole[st.org[j]]) - st.tau[j]) / (di - st.pole[j])
		}
	}
	st.zhat[i] = math.Copysign(math.Sqrt(math.Abs(w)), st.zs[i])
}

// fillRow writes row r of diag(Z₁, Z₂) into y, input column c at slot[c],
// and applies the deflation's rotations to it.
func (st *dcState) fillRow(r int) {
	m, m1 := st.m, st.m1
	row := st.y[r*m : (r+1)*m]
	live, dead := st.slot[:m1], st.slot[m1:m]
	var src []float64
	if r < m1 {
		src = st.c1[r*m1:][:m1]
	} else {
		live, dead, src = dead, live, st.c2[(r-m1)*(m-m1):][:m-m1]
	}
	for c, s := range live {
		row[s] = src[c]
	}
	for _, s := range dead {
		row[s] = 0
	}
	for t := 0; t < st.nrot; t++ {
		a, b, c, s := st.slot[st.rotp[t]], st.slot[st.rotc[t]], st.rc[t], st.rs[t]
		row[a], row[b] = c*row[a]+s*row[b], c*row[b]-s*row[a]
	}
}

// packRow packs row r of y into the GEMM operands: a top row into c1's
// m1×k12 matrix of top-only and mixed columns, a bottom row into c2's
// m2×(k−k1) matrix of mixed and bottom-only columns, both in secular-row
// order.
func (st *dcState) packRow(r int) {
	row := st.y[r*st.m : (r+1)*st.m]
	if r < st.m1 {
		dst := st.c1[r*st.k12:][:st.k12]
		for j, p := range st.rowpos[:st.k] {
			if p < st.k12 {
				dst[p] = row[st.rslot[j]]
			}
		}
		return
	}
	nb := st.k - st.k1
	dst := st.c2[(r-st.m1)*nb:][:nb]
	for j, p := range st.rowpos[:st.k] {
		if p >= st.k1 {
			dst[p-st.k1] = row[st.rslot[j]]
		}
	}
}

// vecCol writes the secular vector of root j0+q into the panel's column q,
// its rows in type order, and its reciprocal norm into scale: the scatter
// normalises the product's columns.
func (st *dcState) vecCol(q int) {
	j := st.j0 + q
	po, tau := st.pole[st.org[j]], st.tau[j]
	s := 0.0
	for i, p := range st.rowpos[:st.k] {
		v := st.zhat[i] / ((st.pole[i] - po) - tau)
		st.up[p*st.w+q] = v
		s += v * v
	}
	st.scale[j] = 1 / math.Sqrt(s)
}

// maxSecularIter bounds one root's iterations; bisection alone halves the
// bracket, so the bound is never reached on a root the floating-point
// bracket can still split.
const maxSecularIter = 200

// secularRoot returns root j of f(λ) = 1 + Σ_i zsq_i/(pole_i − λ), for
// strictly increasing poles and positive weights zsq (ρ·z_i²), as an origin
// o ∈ {j, j+1} and an offset τ, λ_j = pole_o + τ. The origin is the pole
// nearer the root, from f's sign at the midpoint of (pole_j, pole_{j+1});
// the last root's is pole_{k−1}, its bracket (0, Σ zsq]. Each step solves a
// rational model of f — the poles either side of the root plus constants,
// matched in value and slope (the "middle way"), or the last pole alone —
// and falls back to bisection when the step leaves the bracket, so the
// iteration always converges; it stops when |f| is within its evaluation
// error, the model's step is within two ulps of τ, or the bracket cannot
// split.
func secularRoot(pole, zsq []float64, j int) (o int, tau float64) {
	const eps = 0x1p-52
	k := len(pole)
	o, lo, hi := j, 0.0, 0.0
	if j < k-1 {
		hi = (pole[j+1] - pole[j]) / 2
	} else {
		for _, w := range zsq {
			hi += w
		}
	}
	tau = hi
	f, psi, phi, dpsi, dphi := secularEval(pole, zsq, o, j, tau)
	if f < 0 && j < k-1 {
		// Past the midpoint: measure from pole_{j+1}. The midpoint's values
		// seed the first step; only τ's origin moves.
		o, lo, hi, tau = j+1, -hi, 0, -hi
	} else if f < 0 {
		hi *= 2 // round-off put the last root's bound below it
	}
	po := pole[o]
	for iter := 0; iter < maxSecularIter; iter++ {
		if math.Abs(f) <= eps*(8*(phi-psi+1)+math.Abs(tau)*(dpsi+dphi)) {
			break
		}
		if f < 0 {
			lo = tau
		} else {
			hi = tau
		}
		// The model ψ ≈ a + s/(d1 − η) (and φ ≈ b + sb/(d2 − η)), with d1
		// and d2 τ's distances to the poles either side of the root. A
		// degenerate model's step falls outside the bracket.
		d1 := (pole[j] - po) - tau
		s := dpsi * d1 * d1
		c := f - s/d1
		eta := d1 + s/c
		if j < k-1 {
			d2 := (pole[j+1] - po) - tau
			sb := dphi * d2 * d2
			c -= sb / d2
			// The root in (d1, d2) of c·η² − b·η + d1·d2·f = 0.
			b, c0 := c*(d1+d2)+s+sb, d1*d2*f
			qq := 0.5 * (b + math.Copysign(math.Sqrt(b*b-4*c*c0), b))
			if eta = c0 / qq; !(eta > d1 && eta < d2) {
				eta = qq / c
			}
		}
		next := tau + eta
		if iter >= maxSecularIter/4 || !(next > lo && next < hi) {
			if next = lo + (hi-lo)/2; next <= lo || next >= hi {
				break
			}
		} else if math.Abs(eta) <= 2*eps*math.Abs(tau) {
			tau = next // the model's step is within two ulps: resolved
			break
		}
		tau = next
		f, psi, phi, dpsi, dphi = secularEval(pole, zsq, o, j, tau)
	}
	return o, tau
}

// secularEval evaluates f at pole_o + τ, with its parts over the poles up
// to j (psi ≤ 0) and past j (phi ≥ 0) and their derivatives.
func secularEval(pole, zsq []float64, o, j int, tau float64) (f, psi, phi, dpsi, dphi float64) {
	po := pole[o]
	for i, w := range zsq[:j+1] {
		inv := 1 / ((pole[i] - po) - tau)
		psi, dpsi = psi+w*inv, dpsi+w*inv*inv
	}
	for i, w := range zsq[j+1:] {
		inv := 1 / ((pole[j+1+i] - po) - tau)
		phi, dphi = phi+w*inv, dphi+w*inv*inv
	}
	return 1 + psi + phi, psi, phi, dpsi, dphi
}
