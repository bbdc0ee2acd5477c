package tensor

import (
	"math"
	"runtime"
	"sort"
	"sync"
	"time"
	"unsafe"

	"repro/internal/sched"
)

// The GEMM: one driver and one float64 micro-kernel under every matrix
// product of both element types — MatMulInto, MatMulT1Into, MatMulT2Into
// and MatVec at either Elem and, through MatMulT1UpperInto, both consumers
// of the Gram's upper triangle: linalg.SymMulT1Into and the K-FAC factor
// fold, which scales it into the running average and mirrors it.
//
// Arithmetic definition — the whole determinism story of the product
// family: every output element is
//
//	c[i][j] = fma(a[i][k-1], b[k-1][j], … fma(a[i][1], b[1][j], fma(a[i][0], b[0][j], +0)) …)
//
// one float64 fused multiply-add per term, k ascending, starting from +0.
// Nothing else about a run can reach the result: tile position, edge
// handling, k-blocking (a float64 stored to C and reloaded is the same
// float64), block grid, worker count, which operand was stored transposed,
// and which kernel set runs — the 4×24 AVX-512 tile, the 4×12 AVX2 tile or
// their math.FMA twin, each at its own panel width — all leave each
// element's chain untouched. There is no zero-skip, so NaN and ±Inf in
// either operand propagate as IEEE 754 says.
//
// A float32 product is the same chain on the widened operands, rounded to
// float32 once: MatMulInto on float32 tensors is Narrow(MatMulInto(Widen(a),
// Widen(b))) bit for bit, so everything above holds for it unrestated.
//
// Structure: C is cut into blocks of at most gemmMC×gemmNC; one block is one
// chunk of the grid (gemmGrid), which may hold several products. Per k-block
// of at most gemmKC the chunk runs the gemmMR×nr micro-kernel over the block,
// B panel outermost so it stays in L1, each call down the panel's column of
// row tiles. The micro-kernel reads each operand through strides, so it
// takes the tiles of op(A) and a panel of op(B) either where they are stored
// or from a packed copy in the workspace — gemmMR-lane panels of op(A),
// panels of op(B) as wide as the kernel set's tile (gemmKernels.nr),
// float64, zero-padded to whole panels. gemmPacks decides
// which, per operand and per block: a copy pays only where a panel is reused
// by many tiles, is transposed, must be widened from float32, or must be
// padded because the tile would read past the operand. The N/T1/T2 variants
// differ only in the strides and packers that reach each operand. An
// operand is a stored matrix or the patch matrix of a channels-last image
// (gemmSrc): of the latter, each k-block first copies the rows and columns
// the block reads into a window in the workspace, and from there on the
// window is a stored matrix to gemmPacks, the packers and the kernel. A
// float64 block accumulates in dst; a float32 block accumulates in a float64
// scratch the workspace holds and is narrowed into dst after its last
// k-block.
const (
	gemmMR = 4 // micro-tile rows: broadcast lanes of op(A)

	// gemmNRMax is the widest micro-tile of any kernel set (gemmKernels.nr):
	// it sizes the workspace's edge tile.
	gemmNRMax = 24

	// Block caps, which bound the workspace: at most gemmMC·gemmKC float64 =
	// 192 KiB of op(A) pack buffer, where a block packed op(A) (a float32
	// source, a partial row tile), plus one op(B) panel, gemmNRMax·gemmKC =
	// 24 KiB, where a block packed op(B), plus, where float32 blocks were
	// computed, gemmMC·gemmNC float64 = 288 KiB of C scratch, plus, where a
	// block read a patch matrix, a window of at most gemmMC·gemmKC elements
	// for op(A) and gemmKC·gemmNC for op(B), 384 KiB for both at float64 and
	// 192 KiB at float32: at most 1080 KiB in all, 504 KiB without windows.
	// A float64 product whose operands are all read in place grows none of
	// them. There are as many workspaces as goroutines were ever inside the
	// driver at once (callers plus pool workers), recycled through gemmFree.
	gemmMC = 192
	gemmNC = 192
	gemmKC = 128

	// gemmParallelWork is the multiply-add count below which a grid runs on
	// the calling goroutine: waking pool workers costs more than it saves.
	gemmParallelWork = 1 << 18

	// gemmBInPlaceTiles is the most row tiles a block may have for its
	// non-transposed op(B) to be read in place (gemmPacks): a packed panel
	// is read by every row tile of the block, so its copy pays once enough
	// of them share it. The crossover, from paired runs of the same shapes
	// packing op(B) always against never (AVX-512, one core, six rounds in
	// alternating order; N and T1 at k = n = 216 and 432): at 4–8 row tiles
	// in place ran 1.01–1.20× the packed rate (median per shape), at 10
	// tiles 0.86–1.00×, at 12–16 tiles 0.78–0.98×. Where op(B)'s rows lie 4
	// KiB apart (n = 512) they share L1 sets, and in place ran 0.93–1.02×
	// already at 4–8 tiles (docs/PERFORMANCE.md).
	gemmBInPlaceTiles = 8
)

// gemmKernels is one implementation of the inner routines: the micro-kernel,
// the two panel movers the packers are built on and the register-only FMA
// loop its roofline is measured with. There are three, bit-identical: the
// portable Go set and, in the amd64 build, the AVX2 and AVX-512 assembly
// sets (simd_amd64.go), of which init picks the widest the host runs.
type gemmKernels struct {
	isa isa // the instruction set it needs, which also names it
	// nr is the micro-tile's column count: the width of a packed op(B)
	// panel, a multiple of 4 and at most gemmNRMax.
	nr int
	// tile computes columns [0, cols) of mt gemmMR×nr tiles, cols ≥ 1, one
	// under the other against one panel of op(B): rows of c (row stride
	// ldc) continue from their stored values when load is set and from +0
	// otherwise, then take kc fused multiply-adds each, step p of row r of
	// tile t from op(A)'s a[t·ta + r·lda + p·sa] and op(B)'s row b[p·sb:],
	// into c[(t·gemmMR + r)·ldc:]. A packed panel is the call with lda = 1,
	// sa = gemmMR and sb = nr; the stored operand is the call with its own
	// strides. Columns [cols, nr) of c are computed from columns [cols, nr)
	// of b unless exactCols is set.
	tile func(kc, mt int, a []float64, lda, sa, ta int, b []float64, sb int, c []float64, ldc, cols int, load bool)
	// exactCols: tile reads no column of b and writes no column of c past
	// cols, so a partial panel of a float64 block runs straight on dst and
	// op(B) is read in place however few columns the panel has.
	exactCols bool
	// narrow, when set, is the set that runs the products wider than one of
	// this set's column vectors (nr/3: a tile is three vectors wide) but no
	// wider than one of narrow's panels (forWidth).
	narrow *gemmKernels
	// copySteps moves nr adjacent values per step: dst[p·nr+l] =
	// src[p·ld+l] for p < kc.
	copySteps func(dst, src []float64, ld, kc int)
	// transLanes4 transposes four rows of src into four adjacent lanes:
	// dst[p·w+l] = src[l·ld+p] for l < 4, p < kc.
	transLanes4 func(dst, src []float64, ld, kc, w int)
	// fmaPeak runs iters steps of independent fused multiply-add chains with
	// every operand in a register — as many chains, as wide, as tile keeps
	// in flight — and returns the floating-point operations performed.
	fmaPeak func(iters int) int
}

// gemmGo is the portable set; gemmActive is the one MatMul*Into use — the
// portable set unless simd_amd64.go swapped in an assembly set at init.
var (
	gemmGo = gemmKernels{isa: isaPortable, nr: 12, tile: gemmKernelGo,
		copySteps: copyStepsGo, transLanes4: transLanes4Go[float64], fmaPeak: fmaPeakLoopGo}
	gemmActive = gemmGo
)

// gemmKernelGo is the portable micro-kernel (4×12, all columns whatever
// cols says) and the bit-exact reference for the assembly ones.
func gemmKernelGo(kc, mt int, a []float64, lda, sa, ta int, b []float64, sb int, c []float64, ldc, _ int, load bool) {
	for t := range mt {
		gemmTileGo(kc, a[t*ta:], lda, sa, b, sb, c[t*gemmMR*ldc:], ldc, load)
	}
}

// gemmTileGo computes one tile of gemmKernelGo. It walks the tile two
// columns at a time so the eight running sums stay in registers; the
// per-element chain is the same.
func gemmTileGo(kc int, a []float64, lda, sa int, b []float64, sb int, c []float64, ldc int, load bool) {
	const nr = 12
	end := (kc - 1) * sa
	a0, a1, a2, a3 := a[:end+1], a[lda:lda+end+1], a[2*lda:2*lda+end+1], a[3*lda:3*lda+end+1]
	b = b[:(kc-1)*sb+nr]
	r0, r1, r2, r3 := c[:nr], c[ldc:ldc+nr], c[2*ldc:2*ldc+nr], c[3*ldc:3*ldc+nr]
	for j := 0; j < nr; j += 2 {
		var c00, c01, c10, c11, c20, c21, c30, c31 float64
		if load {
			c00, c01 = r0[j], r0[j+1]
			c10, c11 = r1[j], r1[j+1]
			c20, c21 = r2[j], r2[j+1]
			c30, c31 = r3[j], r3[j+1]
		}
		for p := 0; p < kc; p++ {
			ap := p * sa
			bp := b[p*sb+j : p*sb+j+2 : p*sb+j+2]
			b0, b1 := bp[0], bp[1]
			c00 = math.FMA(a0[ap], b0, c00)
			c01 = math.FMA(a0[ap], b1, c01)
			c10 = math.FMA(a1[ap], b0, c10)
			c11 = math.FMA(a1[ap], b1, c11)
			c20 = math.FMA(a2[ap], b0, c20)
			c21 = math.FMA(a2[ap], b1, c21)
			c30 = math.FMA(a3[ap], b0, c30)
			c31 = math.FMA(a3[ap], b1, c31)
		}
		r0[j], r0[j+1] = c00, c01
		r1[j], r1[j+1] = c10, c11
		r2[j], r2[j+1] = c20, c21
		r3[j], r3[j+1] = c30, c31
	}
}

// FMAPeakGFLOPS measures the FMA throughput of one core with every operand
// in a register under the active kernel set: the roofline the kernel
// benchmarks report their fraction of.
func FMAPeakGFLOPS() float64 { return gemmActive.peakGFLOPS() }

// peakGFLOPS is the best of five timings of ks.fmaPeak, about 10 ms in all.
func (ks *gemmKernels) peakGFLOPS() float64 {
	const iters = 1 << 18
	ks.fmaPeak(iters) // warm up
	best := 0.0
	for r := 0; r < 5; r++ {
		t0 := time.Now()
		flops := ks.fmaPeak(iters)
		best = max(best, float64(flops)/time.Since(t0).Seconds()/1e9)
	}
	return best
}

// fmaPeakLoopGo is eight scalar math.FMA chains, the portable kernel's
// register tile.
func fmaPeakLoopGo(iters int) int {
	x, y := 1.0000001, 1e-9
	var c0, c1, c2, c3, c4, c5, c6, c7 float64
	for i := 0; i < iters; i++ {
		c0 = math.FMA(x, y, c0)
		c1 = math.FMA(x, y, c1)
		c2 = math.FMA(x, y, c2)
		c3 = math.FMA(x, y, c3)
		c4 = math.FMA(x, y, c4)
		c5 = math.FMA(x, y, c5)
		c6 = math.FMA(x, y, c6)
		c7 = math.FMA(x, y, c7)
	}
	fmaPeakSink = c0 + c1 + c2 + c3 + c4 + c5 + c6 + c7
	return iters * 8 * 2
}

// fmaPeakSink keeps fmaPeakLoopGo's chains live.
var fmaPeakSink float64

// copyStepsGo is the portable set's gemmKernels.copySteps.
func copyStepsGo(dst, src []float64, ld, kc int) {
	const nr = 12
	for p := 0; p < kc; p++ {
		copy(dst[p*nr:p*nr+nr], src[p*ld:])
	}
}

// transLanes4Go is the portable gemmKernels.transLanes4 and, at S = float32,
// the widening lane packer of both kernel sets.
func transLanes4Go[S Elem](dst []float64, src []S, ld, kc, w int) {
	s0, s1, s2, s3 := src[:kc], src[ld:ld+kc], src[2*ld:2*ld+kc], src[3*ld:3*ld+kc]
	for p := range s0 {
		q := dst[p*w : p*w+4 : p*w+4]
		q[0], q[1], q[2], q[3] = float64(s0[p]), float64(s1[p]), float64(s2[p]), float64(s3[p])
	}
}

// packLanes packs a w-wide panel whose lanes are rows of src: lane l, step p
// comes from src[l·ld + p]. Lanes past rows are zero. This is the packer for
// a packed op(A) of MatMulInto/MatMulT2Into (w = gemmMR) and for op(B) of
// MatMulT2Into (w = gemmKernels.nr).
func packLanes[S Elem](ks *gemmKernels, dst []float64, src []S, ld, rows, kc, w int) {
	dst = dst[:kc*w]
	if rows < w {
		clear(dst)
	}
	src64, is64 := any(src).([]float64)
	l := 0
	for ; l+4 <= rows; l += 4 {
		if is64 {
			ks.transLanes4(dst[l:], src64[l*ld:], ld, kc, w)
		} else {
			transLanes4Go(dst[l:], src[l*ld:], ld, kc, w)
		}
	}
	for ; l < rows; l++ {
		d := dst[l:]
		for p, v := range src[l*ld : l*ld+kc] {
			d[p*w] = float64(v)
		}
	}
}

// packSteps packs a w-wide panel whose steps are rows of src: lane l, step p
// comes from src[p·ld + l]. Lanes past cols are zero. This is the packer for
// a packed op(A) of MatMulT1Into (w = gemmMR) and for a packed op(B) of
// MatMulInto/MatMulT1Into (w = gemmKernels.nr).
func packSteps[S Elem](ks *gemmKernels, dst []float64, src []S, ld, cols, kc, w int) {
	dst = dst[:kc*w]
	if src64, ok := any(src).([]float64); ok && cols == w && w == ks.nr {
		ks.copySteps(dst, src64, ld, kc)
		return
	}
	if cols < w {
		clear(dst)
	}
	for p := 0; p < kc; p++ {
		d := dst[p*w : p*w+cols]
		for l, v := range src[p*ld : p*ld+cols] {
			d[l] = float64(v)
		}
	}
}

// gemmSrc is an operand as the driver reads it. It is one of two kinds: a
// stored matrix, row-major with row stride ld, read in place or packed from
// where it lies; or the patch matrix of a channels-last image under a window
// (Patches; im.win.KH > 0), of which no copy exists — each k-block copies the
// rows and columns its block reads into the workspace (view), and from there
// on it is read as a stored matrix is. A pre-packed operand would be a third
// kind, a third case of view.
type gemmSrc[E Elem] struct {
	data []E // the stored matrix, or the image
	ld   int
	im   patchGeom
}

// storedSrc is the stored matrix data with row stride ld.
func storedSrc[E Elem](data []E, ld int) gemmSrc[E] { return gemmSrc[E]{data: data, ld: ld} }

// patchesSrc is p's patch matrix.
func patchesSrc[E Elem](p Patches[E]) gemmSrc[E] {
	return gemmSrc[E]{data: p.Image.Data, im: p.geom()}
}

// gemmView is where one k-block reads an operand: element (r, c) of the
// stored matrix at s[(r−r0)·ld + c−c0].
type gemmView[E Elem] struct {
	s          []E
	ld, r0, c0 int
}

// at returns the index of element (r, c) in v.s.
func (v *gemmView[E]) at(r, c int) int { return (r-v.r0)*v.ld + c - v.c0 }

// view returns where rows [r0, r1) and columns [c0, c1) of the operand's
// stored matrix are read: the matrix itself, or a patch matrix's window
// copied into *buf.
func (o *gemmSrc[E]) view(buf *[]E, r0, r1, c0, c1 int) gemmView[E] {
	if o.im.win.KH == 0 {
		return gemmView[E]{s: o.data, ld: o.ld}
	}
	need := (r1 - r0) * (c1 - c0)
	if cap(*buf) < need {
		*buf = make([]E, need)
	}
	copyWindow((*buf)[:need], o.data, &o.im, r0, r1, c0, c1)
	return gemmView[E]{s: (*buf)[:need], ld: c1 - c0, r0: r0, c0: c0}
}

// gemmJob describes one product of a grid. Operand storage: a is m×k, or
// k×m when aT; b is k×n, or n×k when bT.
type gemmJob[E Elem] struct {
	dst     []E
	a, b    gemmSrc[E]
	m, n, k int
	aT, bT  bool
	upper   bool         // skip tiles strictly below the diagonal
	ks      *gemmKernels // the grid's set, or its narrow set
	work    int          // multiply-adds: m·n·k, halved for an upper product
	bm, bn  int          // block extent in rows / columns
	gn      int          // blocks per grid row
}

// gemmWorkspace is what one goroutine computing blocks holds: the pack
// buffers, once it has packed an operand, and, once it has computed a
// float32 block, the float64 C scratch — all grown on demand up to the
// block caps (gemmMC, gemmNC, gemmKC).
type gemmWorkspace struct {
	pa, pb []float64
	c      []float64                   // float32 blocks accumulate here, in whole micro-tiles
	edge   [gemmMR * gemmNRMax]float64 // private C tile for partial micro-tiles of a float64 block
	// The windows of patch-matrix operands (gemmSrc.view), op(A)'s and
	// op(B)'s, at the product's element type.
	wa, wb     []float64
	wa32, wb32 []float32
}

// windows returns ws's window buffers for element type E.
func windows[E Elem](ws *gemmWorkspace) (wa, wb *[]E) {
	if a, ok := any(&ws.wa).(*[]E); ok {
		return a, any(&ws.wb).(*[]E)
	}
	return any(&ws.wa32).(*[]E), any(&ws.wb32).(*[]E)
}

// freeList recycles kernel workspaces, so a kernel performs no heap
// allocation once as many exist as goroutines were ever inside it at once
// (callers plus pool workers). A mutex-guarded stack, not a sync.Pool: the
// collector empties a sync.Pool, which would re-allocate up to 1080 KiB of
// GEMM workspace per worker after every other collection, and the race
// detector makes it drop Puts, which the steady-state zero-allocation
// suites (run under -race in CI) would see. The zero value is ready.
type freeList[T any] struct {
	mu   sync.Mutex
	list []*T
}

// get pops a recycled workspace, or allocates a zero one.
func (f *freeList[T]) get() *T {
	f.mu.Lock()
	defer f.mu.Unlock()
	if n := len(f.list); n > 0 {
		ws := f.list[n-1]
		f.list = f.list[:n-1]
		return ws
	}
	return new(T)
}

// put returns ws for reuse.
func (f *freeList[T]) put(ws *T) {
	f.mu.Lock()
	f.list = append(f.list, ws)
	f.mu.Unlock()
}

// gemmFree is the one list both element types draw workspaces from.
var gemmFree freeList[gemmWorkspace]

// gridFree recycles the grid records of single products (gemm), one list
// per element type.
var gridFree struct {
	f64 freeList[gemmGrid[float64]]
	f32 freeList[gemmGrid[float32]]
}

// gridFreeOf returns gridFree's list for element type E.
func gridFreeOf[E Elem]() *freeList[gemmGrid[E]] {
	if f, ok := any(&gridFree.f64).(*freeList[gemmGrid[E]]); ok {
		return f
	}
	return any(&gridFree.f32).(*freeList[gemmGrid[E]])
}

// gemmGrid is a group of independent products laid end to end on one block
// grid: product i owns blocks [ends[i-1], ends[i]), largest product first.
// Every product runs through one — a single MatMul*Into is a grid of one —
// so there is one grid policy and one fan-out decision, taken on the grid's
// total work.
type gemmGrid[E Elem] struct {
	ks   *gemmKernels // nil selects gemmActive
	jobs []gemmJob[E]
	ends []int
}

// add appends the product dst (m×n) = op(a)·op(b) of stored matrices; with
// upper set (m == n, b == a) only the micro-tiles that meet the upper
// triangle are written.
func (g *gemmGrid[E]) add(dst, a, b []E, m, n, k int, aT, bT, upper bool) {
	if len(a) < m*k || len(b) < k*n {
		panic("tensor: matmul operand storage shorter than its shape")
	}
	// The assembly indexes these without bounds checks; from here on every
	// access is within the extents the shapes name.
	lda, ldb := k, n
	if aT {
		lda = m
	}
	if bT {
		ldb = k
	}
	g.addSrc(dst, storedSrc(a[:m*k], lda), storedSrc(b[:k*n], ldb), m, n, k, aT, bT, upper)
}

// addSrc appends the product dst (m×n) = op(a)·op(b) of operands of either
// kind. Products with nothing to multiply are finished here.
func (g *gemmGrid[E]) addSrc(dst []E, a, b gemmSrc[E], m, n, k int, aT, bT, upper bool) {
	if len(dst) < m*n {
		panic("tensor: matmul operand storage shorter than its shape")
	}
	dst = dst[:m*n]
	if overlaps(dst, a.data) || overlaps(dst, b.data) {
		panic("tensor: matmul destination aliases an operand")
	}
	if m == 0 || n == 0 {
		return
	}
	if k == 0 {
		clear(dst)
		return
	}
	work := m * n * k
	if upper {
		work /= 2
	}
	g.jobs = append(g.jobs, gemmJob[E]{dst: dst, a: a, b: b, m: m, n: n, k: k,
		aT: aT, bT: bT, upper: upper, work: work})
}

// run computes every product added since the last run and empties the grid.
// The grid fans out over sched.Shared() when the machine has more than one
// worker and the total work reaches gemmParallelWork. Each product is then
// cut into blocks in proportion to its share of that work — about 2·workers
// blocks for the whole grid, so a grid of one is split exactly as a lone
// product — and every block is one chunk: a claim-based ForEach levels
// uneven blocks (edges, the triangle of an upper product, small products)
// across whoever is free.
func (g *gemmGrid[E]) run() {
	if len(g.jobs) == 0 {
		return
	}
	if g.ks == nil {
		g.ks = &gemmActive
	}
	// Largest product first, so the long blocks start before the short ones
	// that fill in behind them. Insertion sort: stable and allocation-free.
	total := 0
	for i := range g.jobs {
		total += g.jobs[i].work
		for j := i; j > 0 && g.jobs[j].work > g.jobs[j-1].work; j-- {
			g.jobs[j], g.jobs[j-1] = g.jobs[j-1], g.jobs[j]
		}
	}
	nw := runtime.GOMAXPROCS(0)
	if nw < 2 || total < gemmParallelWork {
		nw = 0
	}
	g.ends = g.ends[:0]
	blocks := 0
	for i := range g.jobs {
		target := 1
		if nw > 0 {
			target = (2*nw*g.jobs[i].work + total - 1) / total
		}
		jb := &g.jobs[i]
		jb.ks = g.ks.forWidth(jb.n)
		blocks += jb.grid(target)
		g.ends = append(g.ends, blocks)
	}
	if nw == 0 {
		g.RunRange(0, blocks)
	} else {
		sched.Shared().ForEach(blocks, blocks, g)
	}
	clear(g.jobs) // don't pin operand memory
	g.jobs = g.jobs[:0]
}

// forWidth returns the set that runs a product n columns wide: ks itself,
// or its narrow set where that one takes the product.
func (ks *gemmKernels) forWidth(n int) *gemmKernels {
	if ks.narrow != nil && n > ks.nr/3 && n <= ks.narrow.nr {
		return ks.narrow
	}
	return ks
}

// grid picks the product's block extents — whole micro-tiles of its kernel
// set, capped by the pack buffers, halving the longer side until there are
// at least target blocks (near-square blocks re-pack the least operand
// data), then evened out over the resulting grid — and returns the block
// count. An upper product whose whole triangle fits one block stays one
// block: cut, its blocks each stream op(A)'s k-slices and pack op(B)'s
// panels again, and the triangle does not share out evenly. The Gram at
// k = 4096, m = 72 cut four ways ran its blocks at 15, 9, 3 and 9 tiles'
// work, took 1.3–1.6× the one block's time run one after another, and two
// workers took longer than one (docs/PERFORMANCE.md).
func (g *gemmJob[E]) grid(target int) int {
	nr := g.ks.nr
	tm, tn := (g.m+gemmMR-1)/gemmMR, (g.n+nr-1)/nr
	bm, bn := min(tm, gemmMC/gemmMR), min(tn, gemmNC/nr)
	if g.upper && bm == tm && bn == tn {
		target = 1
	}
	for ((tm+bm-1)/bm)*((tn+bn-1)/bn) < target && (bm > 1 || bn > 1) {
		if bn == 1 || (bm > 1 && bm*gemmMR >= bn*nr) {
			bm = (bm + 1) / 2
		} else {
			bn = (bn + 1) / 2
		}
	}
	gm, gn := (tm+bm-1)/bm, (tn+bn-1)/bn
	g.bm, g.bn, g.gn = (tm+gm-1)/gm*gemmMR, (tn+gn-1)/gn*nr, gn
	return gm * gn
}

// RunRange implements sched.Ranger over blocks [lo, hi) of the grid, on
// whichever goroutine claimed them.
func (g *gemmGrid[E]) RunRange(lo, hi int) {
	ws := gemmFree.get()
	i := sort.SearchInts(g.ends, lo+1)
	for t := lo; t < hi; t++ {
		for g.ends[i] <= t {
			i++
		}
		b := t // block b of product i
		if i > 0 {
			b -= g.ends[i-1]
		}
		jb := &g.jobs[i]
		i0, j0 := (b/jb.gn)*jb.bm, (b%jb.gn)*jb.bn
		jb.block(ws, i0, min(i0+jb.bm, jb.m), j0, min(j0+jb.bn, jb.n))
	}
	gemmFree.put(ws)
}

// gemmPacks is the one pack-or-in-place decision: whether the micro-kernel
// reads a row tile of op(A) mr rows tall (packA) and a panel of op(B) cols
// wide (packB) from a packed copy rather than where the operand is stored,
// in a block of rowTiles row tiles of a float64 (wide) or float32 product.
// A float32 operand is always packed, since it is widened as it is packed.
// Otherwise op(A) is read in place in whole row tiles — N/T2 at row stride k
// and step 1, T1 at row stride 1 and step m — and packed only in a partial
// tile, whose missing rows the packed panel pads with zeros. op(B) is packed
// when it is transposed (T2: its steps would be strided), when the panel is
// shared by more than gemmBInPlaceTiles row tiles, or when the panel is
// partial and the tile computes all nr columns (the padding keeps it from
// reading past the operand); an exactCols tile masks its last vector and
// reads a partial panel in place.
func gemmPacks(ks *gemmKernels, wide, bT bool, rowTiles, mr, cols int) (packA, packB bool) {
	packA = !wide || mr < gemmMR
	packB = !wide || bT || rowTiles > gemmBInPlaceTiles || (cols < ks.nr && !ks.exactCols)
	return packA, packB
}

// block computes C[i0:i1, j0:j1].
func (g *gemmJob[E]) block(ws *gemmWorkspace, i0, i1, j0, j1 int) {
	if g.upper && i0 >= j1 {
		return
	}
	ks := g.ks
	nr := ks.nr
	mp := (i1 - i0 + gemmMR - 1) / gemmMR
	np := (j1 - j0 + nr - 1) / nr
	// Even k-blocks: same count as cutting at gemmKC, no short last block.
	kb := (g.k + gemmKC - 1) / gemmKC
	kc := (g.k + kb - 1) / kb
	_, wide := any(g.dst).([]float64)
	// c is where the micro-kernel accumulates this block, origin at its
	// first element: dst itself when dst is float64, else the scratch, whose
	// whole micro-tiles need no edge path. The element type is resolved here,
	// once, so the tile loop below is the same for both.
	var c []float64
	var dst32 []float32 // dst when the block goes through the scratch
	ldc := g.n
	switch dst := any(g.dst).(type) {
	case []float64:
		c = dst[i0*ldc+j0:]
	case []float32:
		dst32 = dst
		ldc = np * nr
		if need := mp * gemmMR * ldc; cap(ws.c) < need {
			ws.c = make([]float64, need)
		}
		c = ws.c[:mp*gemmMR*ldc]
	}
	direct := dst32 == nil
	edge := ws.edge[:]
	wa, wb := windows[E](ws)
	for p0 := 0; p0 < g.k; p0 += kc {
		kc := min(kc, g.k-p0)
		// Where this k-block reads each operand. A Gram's diagonal block
		// reads the same rows and columns as both, so one window serves.
		var av, bv gemmView[E]
		if g.aT {
			av = g.a.view(wa, p0, p0+kc, i0, i1)
		} else {
			av = g.a.view(wa, i0, i1, p0, p0+kc)
		}
		switch {
		case g.upper && i0 == j0 && i1 == j1:
			bv = av
		case g.bT:
			bv = g.b.view(wb, j0, j1, p0, p0+kc)
		default:
			bv = g.b.view(wb, p0, p0+kc, j0, j1)
		}
		// The operands as float64, for the tiles read in place (wide only).
		a64, _ := any(av.s).([]float64)
		b64, _ := any(bv.s).([]float64)
		for ip := 0; ip < mp; ip++ {
			i := i0 + ip*gemmMR
			mr := min(gemmMR, i1-i)
			if packA, _ := gemmPacks(ks, wide, g.bT, mp, mr, nr); !packA {
				continue
			}
			if need := mp * gemmMR * kc; cap(ws.pa) < need {
				ws.pa = make([]float64, need)
			}
			if g.aT {
				packSteps(ks, ws.pa[ip*gemmMR*kc:], av.s[av.at(p0, i):], av.ld, mr, kc, gemmMR)
			} else {
				packLanes(ks, ws.pa[ip*gemmMR*kc:], av.s[av.at(i, p0):], av.ld, mr, kc, gemmMR)
			}
		}
		load := p0 > 0
		for jp := 0; jp < np; jp++ {
			j := j0 + jp*nr
			cols := min(nr, j1-j)
			if g.upper && j+cols <= i0 {
				continue // wholly below the diagonal: no tile meets it
			}
			// op(B)'s panel: step p, column l at bp[p·sb + l]. A packed panel
			// is packed just before its tiles run, so one buffer serves.
			var bp []float64
			sb := nr
			if _, packB := gemmPacks(ks, wide, g.bT, mp, gemmMR, cols); !packB {
				bp, sb = b64[bv.at(p0, j):], bv.ld
			} else {
				if need := nr * kc; cap(ws.pb) < need {
					ws.pb = make([]float64, need)
				}
				bp = ws.pb[:nr*kc]
				if g.bT {
					packLanes(ks, bp, bv.s[bv.at(j, p0):], bv.ld, cols, kc, nr)
				} else {
					packSteps(ks, bp, bv.s[bv.at(p0, j):], bv.ld, cols, kc, nr)
				}
			}
			// The row tiles that run against this panel: all of the block's,
			// or of an upper product those that meet the upper triangle. The
			// first run of them goes to the kernel in one call, straight onto
			// c; on a float64 block a partial last tile, and every tile of a
			// partial panel the kernel computes whole, go through the private
			// edge tile instead.
			mt := mp
			if g.upper {
				mt = min(mp, (j+cols-i0+gemmMR-1)/gemmMR)
			}
			run := mt
			if direct && cols < nr && !ks.exactCols {
				run = 0
			} else if direct && i0+mt*gemmMR > i1 {
				run = mt - 1
			}
			for ip := 0; ip < mt; ip++ {
				i := i0 + ip*gemmMR
				mr := min(gemmMR, i1-i)
				// op(A)'s tile: row r, step p at ap[r·lda + p·sa], the next
				// tile ta further on.
				var ap []float64
				var lda, sa, ta int
				switch packA, _ := gemmPacks(ks, wide, g.bT, mp, mr, cols); {
				case packA:
					ap, lda, sa, ta = ws.pa[ip*gemmMR*kc:], 1, gemmMR, gemmMR*kc
				case g.aT:
					ap, lda, sa, ta = a64[av.at(p0, i):], 1, av.ld, gemmMR
				default:
					ap, lda, sa, ta = a64[av.at(i, p0):], av.ld, 1, gemmMR*av.ld
				}
				ct := c[ip*gemmMR*ldc+jp*nr:]
				if ip < run {
					ks.tile(kc, run-ip, ap, lda, sa, ta, bp, sb, ct, ldc, cols, load)
					ip = run - 1
					continue
				}
				// Edge tile of a float64 block: run the kernel on a private
				// full-size tile and move only the valid part.
				if load {
					for r := 0; r < mr; r++ {
						copy(edge[r*nr:r*nr+cols], ct[r*ldc:])
					}
				}
				ks.tile(kc, 1, ap, lda, sa, ta, bp, sb, edge, nr, cols, load)
				for r := 0; r < mr; r++ {
					copy(ct[r*ldc:r*ldc+cols], edge[r*nr:])
				}
			}
		}
	}
	if !direct {
		// The one rounding of a float32 product. Of an upper product, row i
		// is narrowed from the tile that holds its diagonal element on: the
		// scratch left of it was not computed.
		iEnd := i1
		if g.upper {
			iEnd = min(i1, j1)
		}
		for i := i0; i < iEnd; i++ {
			lo := 0
			if g.upper && i > j0 {
				lo = (i - j0) / nr * nr
			}
			Narrow(dst32[i*g.n+j0+lo:i*g.n+j1], c[(i-i0)*ldc+lo:(i-i0)*ldc+j1-j0])
		}
	}
}

// gemm computes dst (m×n) = op(a)·op(b) with the given kernel set as a grid
// of one product; with upper set (m == n) only the micro-tiles that meet the
// upper triangle are written.
func gemm[E Elem](ks *gemmKernels, dst, a, b []E, m, n, k int, aT, bT, upper bool) {
	free := gridFreeOf[E]()
	g := free.get()
	g.ks = ks
	g.add(dst, a, b, m, n, k, aT, bT, upper)
	g.run()
	free.put(g)
}

// gemmSrcs is gemm on operands of either kind.
func gemmSrcs[E Elem](ks *gemmKernels, dst []E, a, b gemmSrc[E], m, n, k int, aT, bT, upper bool) {
	free := gridFreeOf[E]()
	g := free.get()
	g.ks = ks
	g.addSrc(dst, a, b, m, n, k, aT, bT, upper)
	g.run()
	free.put(g)
}

// overlaps reports whether the two slices share any byte of storage.
func overlaps[X, Y Elem](x []X, y []Y) bool {
	if len(x) == 0 || len(y) == 0 {
		return false
	}
	xp := uintptr(unsafe.Pointer(unsafe.SliceData(x)))
	yp := uintptr(unsafe.Pointer(unsafe.SliceData(y)))
	return xp < yp+uintptr(len(y))*unsafe.Sizeof(y[0]) && yp < xp+uintptr(len(x))*unsafe.Sizeof(x[0])
}
