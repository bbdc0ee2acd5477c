package linalg

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"repro/internal/tensor"
)

// powerBlock is the power refresh's QR panel width: the reflectors a
// compact-WY block applies at once (64 measured no faster).
const powerBlock = eigBlock

// SymEigPowerInto refreshes eg for a new symmetric matrix a with one step of
// orthogonal iteration from eg's basis Q₀: Q₁R = qr(A·Q₀), with Q₀'s
// columns taken in descending order of eg.Values and R's diagonal made
// non-negative, then Values[j] = q₁ⱼᵀ a q₁ⱼ, the diagonal of Q₁ᵀAQ₁.
// Right after a full solve of the same a, Q₁ is that solve's basis in
// descending order (up to round-off and the basis of a repeated
// eigenvalue), and the values are its eigenvalues. Values are in Q's column
// order, not sorted.
//
// The QR is Householder with compact-WY panels of powerBlock reflectors, so
// a rank-deficient A·Q₀ (a K-FAC factor with fewer samples than rows)
// still yields an orthonormal Q₁. It runs on the transpose W = (A·Q₀)ᵀ,
// whose rows are A·Q₀'s columns: every reflector is a contiguous row, and
// the trailing matrix, packed at the end of W's storage at its own row
// stride, takes each panel as GEMMs; the panels' reflectors are packed
// from the start of the same storage. Q₁ is then accumulated backwards,
// panel by panel, in a second n×n workspace. Every product is a pooled
// GEMM and every reduction has a fixed order, so the result is bitwise
// independent of the worker count. Below eigBlockedMinDim the panels run
// the portable vector kernels, so there, as for the serial full solve, the
// bits do not depend on the build either. The buffers are the solve's
// eigWS's (see powerWS), the two n×n ones the full solve's a and s.
//
// eg must already hold an n×n basis. On every error — a shape mismatch, a
// NaN/Inf input, or a non-finite eigenvalue (entries near
// math.MaxFloat64) — eg is left bit for bit as it was.
func SymEigPowerInto(a *tensor.Tensor, eg *Eigen) error {
	n := a.Rows()
	if a.Cols() != n {
		return fmt.Errorf("linalg: SymEigPower requires square matrix, got %dx%d", a.Rows(), a.Cols())
	}
	if eg.Q == nil || eg.Q.Rows() != n || eg.Q.Cols() != n || len(eg.Values) != n {
		return fmt.Errorf("linalg: SymEigPower needs an %dx%d basis to refresh", n, n)
	}
	for _, x := range a.Data {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return fmt.Errorf("linalg: SymEigPower input contains NaN/Inf")
		}
	}
	if n == 0 {
		return nil
	}
	ws := acquireEigWS(1, n)
	defer ws.release()
	C, de := ensureFloats(&ws.c, 2*powerBlock*n), ensureFloats(&ws.de, 3*n)
	p := powerWS{
		ws: ws, n: n, w: ensureFloats(&ws.a, n*n), q: ensureFloats(&ws.s, n*n),
		vt: ensureFloats(&ws.u, powerBlock*n),
		s:  C[:n*powerBlock], s2: C[n*powerBlock:],
		t:   ensureFloats(&ws.tau, powerBlock*powerBlock),
		tau: de[:n], beta: de[n : 2*n],
		dot: eigDot, axpy: eigAxpy,
	}
	if n < eigBlockedMinDim {
		// Where the full solve is the serial pair, the refresh too runs
		// portable code only, so its bits do not depend on the build.
		p.dot, p.axpy = eigDot4, eigAxpyGeneric
	}
	lam := de[2*n:]

	// Q₀'s columns in descending order of their values: the QR's first
	// columns are the ones A·Q₀ keeps best, and a column of the null space
	// is last, where it only completes the basis.
	if cap(ws.ints) < n {
		ws.ints = make([]int, n)
	}
	perm, vals := ws.ints[:n], eg.Values
	for i := range perm {
		perm[i] = i
	}
	slices.SortStableFunc(perm, func(i, j int) int { return cmp.Compare(vals[j], vals[i]) })
	q0 := eg.Q.Data
	for i := range n {
		row, dst := q0[i*n:(i+1)*n], p.q[i*n:(i+1)*n]
		for j, c := range perm {
			dst[j] = row[c]
		}
	}
	// W = Q₀ᵀA: row j is (A·q₀ⱼ)ᵀ, A being symmetric.
	tensor.MatMulT1Into(ws.view(0, p.w, n, n), ws.view(1, p.q, n, n), a)

	p.factor()
	p.formQ()
	q1 := p.q
	for i := range n {
		row := q1[i*n : (i+1)*n]
		for k, b := range p.beta {
			if b < 0 {
				row[k] = -row[k]
			}
		}
	}
	rayleighValues(ws, lam, a, ws.view(3, q1, n, n), p.w)
	for j, v := range lam {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("linalg: SymEigPower eigenvalue %d is %v", j, v)
		}
	}
	copy(eg.Q.Data, q1)
	copy(eg.Values, lam)
	return nil
}

// powerWS is one power refresh's view of its eigWS: w (the eigWS's a)
// holds W and then the packed reflectors, q (its s) the permuted Q₀, then
// the trailing update's product, then Q₁; vt (its u) holds a panel's
// reflectors as rows (kb×m), t (its tau) the panel's kb×kb compact-WY
// factor, s/s2 (its c) the panel GEMMs' narrow operands, tau and beta (its
// de, before the eigenvalues) the reflectors' scales and R's diagonal
// before the sign fix; dot and axpy are the vector kernels the panels run.
type powerWS struct {
	ws              *eigWS
	n               int
	w, q, vt, s, s2 []float64
	t, tau, beta    []float64
	dot             func(a, b []float64) float64
	axpy            func(dst, src []float64, a float64)
}

// factor computes the Householder QR of Y = Wᵀ. Before panel k0 the
// trailing matrix — Y's rows and columns from k0 on, transposed — is the
// last m² floats of w at row stride m = n−k0; after it, the panel's
// reflector rows (kb×m, the implicit zeros and unit written out) are
// appended to the store at the start of w and the trailing matrix shrinks
// by kb. The store never reaches the live trailing rows.
func (p *powerWS) factor() {
	n, w := p.n, p.w
	off := 0
	for k0 := 0; k0 < n; k0 += powerBlock {
		m := n - k0
		kb := min(powerBlock, m)
		tr := w[n*n-m*m:]
		for i := range kb {
			x := tr[i*m+i : (i+1)*m]
			alpha, tau, beta := x[0], 0.0, x[0]
			if xn := math.Sqrt(p.dot(x[1:], x[1:])); xn != 0 {
				beta = -math.Copysign(math.Hypot(alpha, xn), alpha)
				tau = (beta - alpha) / beta
				for r, inv := 1, 1/(alpha-beta); r < len(x); r++ {
					x[r] *= inv
				}
			}
			x[0] = 1
			p.tau[k0+i], p.beta[k0+i] = tau, beta
			if tau == 0 {
				continue
			}
			for j := i + 1; j < kb; j++ {
				y := tr[j*m+i : (j+1)*m]
				p.axpy(y, x, -tau*p.dot(x, y))
			}
		}
		vt := p.vt[:kb*m]
		for i := range kb {
			row := vt[i*m : (i+1)*m]
			clear(row[:i])
			copy(row[i:], tr[i*m+i:(i+1)*m])
		}
		p.panel(k0, kb, m)
		if mt := m - kb; mt > 0 {
			// W₂ ← W₂ − ((W₂V)T)Vᵀ: the panel's block reflector applied to
			// the trailing columns of Y.
			w2 := tr[kb*m : m*m]
			ws := p.ws
			tensor.MatMulT2Into(ws.view(0, p.s, mt, kb), ws.view(1, w2, mt, m), ws.view(2, vt, kb, m))
			p.mul(p.s2, p.s, p.t, mt, kb, kb)
			p.mul(p.q, p.s2, vt, mt, kb, m)
			p.axpy(w2, p.q[:mt*m], -1)
		}
		copy(w[off:], vt)
		off += kb * m
		if mt := m - kb; mt > 0 {
			// Pack the trailing rows' trailing columns to stride mt at the
			// end of w, last row first: every element moves to a higher
			// address, past every row still to be read.
			base := n*n - mt*mt
			for r := m - 1; r >= kb; r-- {
				copy(w[base+(r-kb)*mt:base+(r-kb+1)*mt], tr[r*m+kb:(r+1)*m])
			}
		}
	}
}

// formQ accumulates Q₁ = B₀B₁⋯ from the packed reflectors into q, last
// panel first: before panel k0 the product of the later panels is the last
// (m−kb)² floats of q at row stride m−kb; it is moved to rows and columns
// kb.. of an m×m matrix at the end of q (first row first: every element
// moves to a lower address, behind every row still to be read), bordered
// with the identity, and multiplied by the panel's block reflector. The
// last step leaves Q₁ at stride n.
func (p *powerWS) formQ() {
	n, q := p.n, p.q
	off := 0
	for k0 := 0; k0 < n; k0 += powerBlock {
		off += min(powerBlock, n-k0) * (n - k0)
	}
	last := (n - 1) / powerBlock * powerBlock
	for k0 := last; k0 >= 0; k0 -= powerBlock {
		m := n - k0
		kb := min(powerBlock, m)
		mt := m - kb
		off -= kb * m
		c := q[n*n-m*m:]
		prev := q[n*n-mt*mt:]
		for r := range mt {
			copy(c[(r+kb)*m+kb:(r+kb+1)*m], prev[r*mt:(r+1)*mt])
			clear(c[(r+kb)*m : (r+kb)*m+kb])
		}
		for i := range kb {
			row := c[i*m : (i+1)*m]
			clear(row)
			row[i] = 1
		}
		vt := p.vt[:kb*m]
		copy(vt, p.w[off:off+kb*m])
		p.panel(k0, kb, m)
		// C ← C − V(T(VᵀC)), the product formed in w's free tail.
		x, x2, tmp := p.s[:kb*m], p.s2[:kb*m], p.w[n*n-m*m:]
		p.mul(x, vt, c, kb, m, m)
		p.mul(x2, p.t, x, kb, kb, m)
		ws := p.ws
		tensor.MatMulT1Into(ws.view(0, tmp, m, m), ws.view(1, vt, kb, m), ws.view(2, x2, kb, m))
		p.axpy(c, tmp, -1)
	}
}

// panel builds, from the panel's reflector rows Vᵀ in vt (kb×m), the
// upper-triangular T of B = H₀⋯H_{kb−1} = I − VTVᵀ (the forward,
// column-wise compact-WY recurrence).
func (p *powerWS) panel(k0, kb, m int) {
	vt, t := p.vt, p.t[:kb*kb]
	clear(t)
	for i := range kb {
		tau := p.tau[k0+i]
		t[i*kb+i] = tau
		if tau == 0 {
			continue
		}
		vi := vt[i*m+i : (i+1)*m]
		// T[0:i, i] = −τᵢ T[0:i, 0:i] (Vᵀvᵢ)[0:i]; row l of Vᵀ is zero
		// before column l ≤ i, so the dot starts at i.
		for l := range i {
			t[l*kb+i] = p.dot(vt[l*m+i:(l+1)*m], vi)
		}
		for l := range i {
			s := 0.0
			for r := l; r < i; r++ {
				s += t[l*kb+r] * t[r*kb+i]
			}
			t[l*kb+i] = s
		}
		for l := range i {
			t[l*kb+i] *= -tau
		}
	}
}

// mul sets dst (rows×cols) = a (rows×k) × b (k×cols) with the pooled GEMM.
func (p *powerWS) mul(dst, a, b []float64, rows, k, cols int) {
	ws := p.ws
	tensor.MatMulInto(ws.view(0, dst, rows, cols), ws.view(1, a, rows, k), ws.view(2, b, k, cols))
}

// rayleighValues sets lam[j] = q_jᵀ a q_j for every column q_j of the n×n
// q: Y = A·Q is one GEMM into y (n×n), reduced into lam column by column
// with the rows in ascending order. It uses ws's view header 0.
func rayleighValues(ws *eigWS, lam []float64, a, q *tensor.Tensor, y []float64) {
	n := a.Rows()
	tensor.MatMulInto(ws.view(0, y, n, n), a, q)
	qd := q.Data
	clear(lam)
	for i := range n {
		qi, yi := qd[i*n:(i+1)*n], y[i*n:(i+1)*n]
		for j, v := range yi {
			lam[j] += qi[j] * v
		}
	}
}
