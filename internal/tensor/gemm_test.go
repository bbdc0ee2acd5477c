package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"runtime/debug"
	"testing"
)

// gemmCase is one product shape and storage variant of the driver.
type gemmCase struct {
	m, n, k       int
	aT, bT, upper bool
}

func (c gemmCase) String() string {
	return fmt.Sprintf("m=%d n=%d k=%d aT=%v bT=%v upper=%v", c.m, c.n, c.k, c.aT, c.bT, c.upper)
}

// operands draws a and b for the case; an upper case multiplies a by itself.
func (c gemmCase) operands(rng *rand.Rand) (a, b []float64) {
	a = Randn(rng, 1, c.m*c.k).Data
	if c.upper {
		return a, a
	}
	return a, Randn(rng, 1, c.k*c.n).Data
}

// refChain is the arithmetic definition written down: every element the
// k-ascending math.FMA chain from +0.
func (c gemmCase) refChain(a, b []float64) []float64 {
	out := make([]float64, c.m*c.n)
	for i := 0; i < c.m; i++ {
		for j := 0; j < c.n; j++ {
			var s float64
			for p := 0; p < c.k; p++ {
				av, bv := a[i*c.k+p], 0.0
				if c.aT {
					av = a[p*c.m+i]
				}
				if c.bT {
					bv = b[j*c.k+p]
				} else {
					bv = b[p*c.n+j]
				}
				s = math.FMA(av, bv, s)
			}
			out[i*c.n+j] = s
		}
	}
	return out
}

// run executes the case on the given kernel set. The destination starts as
// NaN so an element the driver failed to write cannot pass for a result, and
// is followed by a guard a kernel writing past the last row would change.
func run[E Elem](t testing.TB, c gemmCase, ks *gemmKernels, a, b []E) []E {
	t.Helper()
	const guard = 2 * gemmNRMax
	buf := make([]E, c.m*c.n+guard)
	for i := range buf {
		buf[i] = E(math.NaN())
	}
	dst := buf[:c.m*c.n]
	gemm(ks, dst, a, b, c.m, c.n, c.k, c.aT, c.bT, c.upper)
	for _, v := range buf[len(dst):] {
		if v == v {
			t.Fatalf("%v: %v: the product wrote past its destination", ks.isa, c)
		}
	}
	return dst
}

// bitsOf returns v's IEEE 754 encoding.
func bitsOf[E Elem](v E) uint64 {
	if f, ok := any(v).(float32); ok {
		return uint64(math.Float32bits(f))
	}
	return math.Float64bits(float64(v))
}

// sameBits compares got with want bit for bit; an upper case is compared on
// and above the diagonal only.
func sameBits[E Elem](t *testing.T, label string, c gemmCase, got, want []E) {
	t.Helper()
	for i := 0; i < c.m; i++ {
		for j := 0; j < c.n; j++ {
			if c.upper && j < i {
				continue
			}
			g, w := got[i*c.n+j], want[i*c.n+j]
			if bitsOf(g) != bitsOf(w) {
				t.Fatalf("%s: %v: element (%d,%d) = %x, want %x", label, c, i, j, g, w)
			}
		}
	}
}

// narrowed returns s rounded to float32 and widened returns s converted to
// float64, through the scalar loops rather than the primitives under test.
func narrowed(s []float64) []float32 {
	out := make([]float32, len(s))
	narrowScalar(out, s)
	return out
}

func widened(s []float32) []float64 {
	out := make([]float64, len(s))
	widenScalar(out, s)
	return out
}

// gemmProblem is a case's operands and expected product at both element
// types. The float64 oracle is the written-down chain; the float32 operands
// are the float64 ones rounded, and their oracle is that chain on the
// widened operands, narrowed — the definition of a float32 product.
type gemmProblem struct {
	a, b, want       []float64
	a32, b32, want32 []float32
}

func (c gemmCase) problem(rng *rand.Rand) gemmProblem {
	a, b := c.operands(rng)
	a32, b32 := narrowed(a), narrowed(b)
	if c.upper {
		b32 = a32
	}
	return gemmProblem{
		a: a, b: b, want: c.refChain(a, b),
		a32: a32, b32: b32, want32: narrowed(c.refChain(widened(a32), widened(b32))),
	}
}

// check runs the problem at both element types on the given kernel set.
func (c gemmCase) check(t *testing.T, label string, ks *gemmKernels, p gemmProblem) {
	t.Helper()
	sameBits(t, label+"/float64", c, run(t, c, ks, p.a, p.b), p.want)
	sameBits(t, label+"/float32", c, run(t, c, ks, p.a32, p.b32), p.want32)
}

// gemmCases is the shape set of the bit-identity tests: every small edge
// (partial micro-tiles in both directions — n = 1…49 cuts a 12- or 24-column
// panel and its 8-wide vectors to every width, in a product narrow enough
// to be handed to the AVX2 tile and in one that is not, and runs past two
// 24-wide panels — and k around the k-block), a random sample of m, n, k ∈
// 1…70, blocks on either side of gemmBInPlaceTiles (op(B) read in place,
// then packed), and the shapes the benchmark models issue.
func gemmCases() []gemmCase {
	var shapes [][3]int // m, n, k
	for m := 1; m <= 9; m++ {
		for n := 1; n <= 49; n++ {
			for _, k := range []int{1, 2, 7, gemmKC - 1, gemmKC, gemmKC + 1} {
				shapes = append(shapes, [3]int{m, n, k})
			}
		}
	}
	rng := rand.New(rand.NewSource(70))
	for i := 0; i < 200; i++ {
		shapes = append(shapes, [3]int{1 + rng.Intn(70), 1 + rng.Intn(70), 1 + rng.Intn(70)})
	}
	for _, m := range []int{gemmMR*gemmBInPlaceTiles - 1, gemmMR * gemmBInPlaceTiles, gemmMR*gemmBInPlaceTiles + 1} {
		shapes = append(shapes, [3]int{m, 2*gemmNRMax + 5, gemmKC + 3})
	}
	shapes = append(shapes,
		[3]int{48, 432, 432}, [3]int{48, 432, 48}, [3]int{24, 216, 216}, // precondition
		[3]int{1152, 12, 108}, [3]int{12, 108, 1152}, [3]int{1152, 108, 12}, // conv, stage 1
		[3]int{72, 48, 432}, [3]int{8, 10, 48}, // conv stage 3, classifier
		[3]int{200, 200, 64},               // eig trailing update
		[3]int{70, 70, 2*gemmKC + 3},       // three k-blocks
		[3]int{gemmMC + 5, gemmNC + 7, 33}, // past the block caps
	)
	var cases []gemmCase
	for _, s := range shapes {
		m, n, k := s[0], s[1], s[2]
		cases = append(cases,
			gemmCase{m: m, n: n, k: k},
			gemmCase{m: m, n: n, k: k, aT: true},
			gemmCase{m: m, n: n, k: k, bT: true},
			gemmCase{m: m, n: m, k: k, aT: true, upper: true})
	}
	return cases
}

// variant names the case's orientation: N, T1, T2 or the Gram product.
func (c gemmCase) variant() string {
	switch {
	case c.upper:
		return "upper"
	case c.aT:
		return "T1"
	case c.bT:
		return "T2"
	}
	return "N"
}

// packBranch is one branch gemmPacks takes: an orientation, an operand
// ('A' or 'B') and whether it is packed.
type packBranch struct {
	variant string
	operand byte
	packed  bool
}

// checkPackBranches holds the float64 cases to reaching, on kernel set ks,
// both branches of gemmPacks for op(A) and op(B) in every orientation they
// hold — in place and packed — except op(B) of T2, which is always packed
// (float32 operands are always packed too). It follows each case's block
// grid as a grid of one product on one worker lays it out.
func checkPackBranches(t *testing.T, ks *gemmKernels, cases []gemmCase) {
	t.Helper()
	seen := map[packBranch]int{}
	for _, c := range cases {
		jb := gemmJob[float64]{m: c.m, n: c.n, k: c.k, aT: c.aT, bT: c.bT, upper: c.upper, ks: ks.forWidth(c.n)}
		nr := jb.ks.nr
		for b := range jb.grid(1) {
			i0, j0 := (b/jb.gn)*jb.bm, (b%jb.gn)*jb.bn
			i1, j1 := min(i0+jb.bm, c.m), min(j0+jb.bn, c.n)
			mp := (i1 - i0 + gemmMR - 1) / gemmMR
			for i := i0; i < i1; i += gemmMR {
				for j := j0; j < j1; j += nr {
					packA, packB := gemmPacks(jb.ks, true, c.bT, mp, min(gemmMR, i1-i), min(nr, j1-j))
					seen[packBranch{c.variant(), 'A', packA}]++
					seen[packBranch{c.variant(), 'B', packB}]++
				}
			}
		}
	}
	for _, v := range []string{"N", "T1", "T2", "upper"} {
		if seen[packBranch{v, 'A', true}]+seen[packBranch{v, 'A', false}] == 0 {
			continue // no case of this orientation
		}
		for _, op := range []byte{'A', 'B'} {
			for _, packed := range []bool{false, true} {
				n := seen[packBranch{v, op, packed}]
				how := map[bool]string{false: "in place", true: "packed"}[packed]
				if v == "T2" && op == 'B' && !packed {
					if n > 0 {
						t.Errorf("%v: %d tiles read a transposed op(B) in place", ks.isa, n)
					}
					continue
				}
				if n == 0 {
					t.Errorf("%v: no %s tile reads op(%c) %s", ks.isa, v, op, how)
				}
			}
		}
	}
}

// TestGEMMPacksDecision holds gemmPacks, the one pack-or-in-place
// decision, to its table — on a 12-wide tile that computes every column
// (the portable and AVX2 sets) and a 24-wide one that masks its last
// vector (the AVX-512 set) — and logs what it decides for each kernel set
// the host runs.
func TestGEMMPacksDecision(t *testing.T) {
	whole := &gemmKernels{isa: isaAVX2, nr: 12}
	exact := &gemmKernels{isa: isaAVX512, nr: 24, exactCols: true}
	const lim = gemmBInPlaceTiles
	for _, c := range []struct {
		what         string
		ks           *gemmKernels
		wide, bT     bool
		rowTiles     int
		mr, cols     int
		packA, packB bool
	}{
		{"float64 N/T1, whole tile, at the row-tile limit", whole, true, false, lim, gemmMR, 12, false, false},
		{"… masked tile", exact, true, false, lim, gemmMR, 24, false, false},
		{"one row tile past the limit", whole, true, false, lim + 1, gemmMR, 12, false, true},
		{"… masked tile", exact, true, false, lim + 1, gemmMR, 24, false, true},
		{"transposed op(B) (T2)", whole, true, true, 1, gemmMR, 12, false, true},
		{"… masked tile", exact, true, true, 1, gemmMR, 24, false, true},
		{"partial row tile", whole, true, false, 1, 3, 12, true, false},
		{"… masked tile, of a T2 product", exact, true, true, lim + 1, 1, 24, true, true},
		{"partial panel on a tile that computes every column", whole, true, false, 1, gemmMR, 11, false, true},
		{"partial panel on the masked tile", exact, true, false, 1, gemmMR, 1, false, false},
		{"… past the row-tile limit", exact, true, false, lim + 1, gemmMR, 5, false, true},
		{"float32 sources, widened as packed", whole, false, false, 1, gemmMR, 12, true, true},
		{"… masked tile", exact, false, false, 1, gemmMR, 24, true, true},
	} {
		packA, packB := gemmPacks(c.ks, c.wide, c.bT, c.rowTiles, c.mr, c.cols)
		if packA != c.packA || packB != c.packB {
			t.Errorf("%s (%v, wide=%v bT=%v rowTiles=%d mr=%d cols=%d): packA, packB = %v, %v, want %v, %v",
				c.what, c.ks.isa, c.wide, c.bT, c.rowTiles, c.mr, c.cols, packA, packB, c.packA, c.packB)
		}
	}
	for _, ks := range hostKernelSets() {
		_, partial := gemmPacks(ks, true, false, 1, gemmMR, ks.nr-1)
		t.Logf("%v (4×%d tile): float64 op(A) in place in whole row tiles (N/T2 row stride k, T1 step m); "+
			"op(B) of N/T1 in place in blocks of ≤ %d row tiles, partial panels %s; T2's op(B) and float32 operands packed",
			ks.isa, ks.nr, lim, map[bool]string{false: "too (masked last vector)", true: "packed"}[partial])
	}
}

// TestGEMMKernelSetsBitIdentical is the kernel-equality gate: every kernel
// set the host runs — the portable math.FMA set and, where the build and CPU
// have them, the AVX2 and AVX-512 assembly sets, each at its own panel
// width — must reproduce the written-down FMA chain bit for bit: every
// variant (the upper Gram product included), every edge, both element
// types, with each operand read in place and packed (checkPackBranches). A
// set the host cannot run is skipped with the reason.
func TestGEMMKernelSetsBitIdentical(t *testing.T) {
	t.Logf("active GEMM kernel set: %v", gemmActive.isa)
	cases := gemmCases()
	rng := rand.New(rand.NewSource(1))
	problems := make([]gemmProblem, len(cases))
	for i, c := range cases {
		problems[i] = c.problem(rng)
	}
	forEachKernelSet(t, func(t *testing.T, ks *gemmKernels) {
		checkPackBranches(t, ks, cases)
		for i, c := range cases {
			c.check(t, ks.isa.String(), ks, problems[i])
		}
	})
}

// TestGEMMBitIdenticalAcrossGOMAXPROCS: the block grid follows the worker
// count, the bits must not, under every kernel set the host runs. Shapes are
// past gemmParallelWork so the grid really changes.
func TestGEMMBitIdenticalAcrossGOMAXPROCS(t *testing.T) {
	cases := []gemmCase{
		{m: 190, n: 170, k: 140},
		{m: 48, n: 432, k: 432},
		{m: 190, n: 170, k: 140, aT: true},
		{m: 1152, n: 108, k: 36, bT: true},
		{m: 260, n: 260, k: 150, aT: true, upper: true},
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	rng := rand.New(rand.NewSource(2))
	problems := make([]gemmProblem, len(cases))
	for i, c := range cases {
		if work := c.m * c.n * c.k; work < 2*gemmParallelWork { // 2×: an upper case counts half
			t.Fatalf("%v: %d multiply-adds would not fan out", c, work)
		}
		problems[i] = c.problem(rng)
	}
	forEachKernelSet(t, func(t *testing.T, ks *gemmKernels) {
		for i, c := range cases {
			for _, procs := range []int{1, 2, 4, 8} {
				runtime.GOMAXPROCS(procs)
				c.check(t, fmt.Sprintf("%v GOMAXPROCS=%d", ks.isa, procs), ks, problems[i])
			}
		}
	})
}

// product is one entry point of the family at float64 operand types; the
// float32 entry points are wrapped by via32.
type product struct {
	name string
	run  func(dst, a, b *Tensor)
}

// via32 runs a float32 product on the narrowed operands and widens the
// result, so one test body drives both element types. NaN and ±Inf survive
// both conversions.
func via32(run func(dst, a, b *T32)) func(dst, a, b *Tensor) {
	return func(dst, a, b *Tensor) {
		d32, a32, b32 := NewT32(dst.Shape...), NewT32(a.Shape...), NewT32(b.Shape...)
		a32.NarrowFrom(a)
		b32.NarrowFrom(b)
		run(d32, a32, b32)
		Convert(dst, d32)
	}
}

var (
	products64 = []product{
		{"MatMulInto", MatMulInto[float64]},
		{"MatMulT1Into", MatMulT1Into[float64]},
		{"MatMulT2Into", MatMulT2Into[float64]},
	}
	products32 = []product{
		{"MatMulInto32", via32(MatMulInto[float32])},
		{"MatMulT1Into32", via32(MatMulT1Into[float32])},
		{"MatMulT2Into32", via32(MatMulT2Into[float32])},
	}
	gram64 = product{"MatMulT1UpperInto", func(dst, a, _ *Tensor) { MatMulT1UpperInto(dst, a) }}
	gram32 = product{"MatMulT1UpperInto32", via32(func(dst, a, _ *T32) { MatMulT1UpperInto(dst, a) })}
)

// TestMatMulPropagatesNonFinite: NaN and ±Inf in either operand reach the
// output even when the other operand's matching entry is zero (0·Inf is
// NaN). The old kernels skipped zero multipliers and returned 0 here.
func TestMatMulPropagatesNonFinite(t *testing.T) {
	checkPropagatesNonFinite(t, products64, gram64)
	// The issue's one-liner.
	if got := MatMul(FromSlice([]float64{0}, 1, 1), FromSlice([]float64{math.Inf(1)}, 1, 1)).Data[0]; !math.IsNaN(got) {
		t.Errorf("[[0]]·[[+Inf]] = %v, want NaN", got)
	}
}

// TestMatMul32PropagatesNonFinite: the same for the float32 entry points.
func TestMatMul32PropagatesNonFinite(t *testing.T) {
	checkPropagatesNonFinite(t, products32, gram32)
}

func checkPropagatesNonFinite(t *testing.T, products []product, gram product) {
	const k = 5 // a, b are k×k
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		for _, pr := range products {
			for _, inA := range []bool{true, false} {
				a, b, dst := New(k, k), New(k, k), New(k, k) // all zero
				if inA {
					a.Data[2*k+2] = bad
				} else {
					b.Data[2*k+2] = bad
				}
				pr.run(dst, a, b)
				nans := 0
				for _, v := range dst.Data {
					if math.IsNaN(v) {
						nans++
					}
				}
				// One bad entry meets a zero in every product of one row or
				// one column of the result.
				if nans != k {
					t.Errorf("%s with %v in a=%v: %d NaN outputs, want %d\n%v", pr.name, bad, inA, nans, k, dst.Data)
				}
			}
		}
		// The Gram kernel: a bad entry in column 2 poisons row 2 and column
		// 2 of aᵀa (0·bad off the diagonal, bad² on it); the upper-triangle
		// product must show its share.
		a, dst := New(k, k), New(k, k)
		a.Data[1*k+2] = bad
		gram.run(dst, a, a)
		for j := 0; j < k; j++ {
			lo, hi := min(2, j), max(2, j)
			got := dst.Data[lo*k+hi]
			if j == 2 && !math.IsNaN(got) && !math.IsInf(got, 1) {
				t.Errorf("%s with %v: diagonal element (2,2) = %v, want bad²", gram.name, bad, got)
			}
			if j != 2 && !math.IsNaN(got) {
				t.Errorf("%s with %v: element (%d,%d) = %v, want NaN", gram.name, bad, lo, hi, got)
			}
		}
	}
}

// mustPanic fails the test unless fn panics.
func mustPanic(t *testing.T, name string, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s: aliased destination accepted", name)
		}
	}()
	fn()
}

// TestMatMulAliasPanics: the documented "dst must not alias a or b" is
// checked — the kernel reloads C tiles between k-blocks, so an aliased
// destination would give wrong numbers, not stale ones.
func TestMatMulAliasPanics(t *testing.T) {
	a, b := New(6, 6), New(6, 6)
	mustPanic(t, "MatMulInto dst=a", func() { MatMulInto(a, a, b) })
	mustPanic(t, "MatMulInto dst=b", func() { MatMulInto(b, a, b) })
	mustPanic(t, "MatMulT1Into dst=a", func() { MatMulT1Into(a, a, b) })
	mustPanic(t, "MatMulT2Into dst=b", func() { MatMulT2Into(b, a, b) })
	mustPanic(t, "MatMulT1UpperInto dst=a", func() { MatMulT1UpperInto(a, a) })
	// A partial overlap: dst is a window into the tail of a's storage.
	buf := make([]float64, 60)
	wa := FromSlice(buf[:36], 6, 6)
	wd := FromSlice(buf[24:60], 6, 6)
	mustPanic(t, "MatMulInto overlapping windows", func() { MatMulInto(wd, wa, b) })
	// Disjoint windows of one buffer are fine.
	big := make([]float64, 72)
	MatMulInto(FromSlice(big[36:], 6, 6), FromSlice(big[:36], 6, 6), b)
}

// TestMatMul32AliasPanics: the float32 entry points check it too. The overlap
// test must scale by the element size, so the windows here share exactly one
// float32, then none.
func TestMatMul32AliasPanics(t *testing.T) {
	a, b := NewT32(6, 6), NewT32(6, 6)
	mustPanic(t, "MatMulInto32 dst=a", func() { MatMulInto32(a, a, b) })
	mustPanic(t, "MatMulInto32 dst=b", func() { MatMulInto32(b, a, b) })
	mustPanic(t, "MatMulT1Into32 dst=a", func() { MatMulT1Into(a, a, b) })
	mustPanic(t, "MatMulT2Into32 dst=b", func() { MatMulT2Into(b, a, b) })
	mustPanic(t, "MatMulT1UpperInto32 dst=a", func() { MatMulT1UpperInto(a, a) })
	buf := make([]float32, 72)
	window := func(lo int) *T32 { return &T32{Shape: []int{6, 6}, Data: buf[lo : lo+36]} }
	mustPanic(t, "MatMulInto32 windows sharing one element", func() { MatMulInto32(window(35), window(0), b) })
	MatMulInto32(window(36), window(0), b)
}

// TestMatMulZeroAllocSteadyState asserts the float64 product family
// allocates nothing once the job and pack-buffer pools are warm, on the
// serial path and on the path that fans out over the shared pool.
func TestMatMulZeroAllocSteadyState(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	a := Randn(rng, 1, 24, 200)
	b := Randn(rng, 1, 200, 24)
	bT := Randn(rng, 1, 24, 200)
	dst := New(24, 24)
	big := Randn(rng, 1, 170, 170) // 4.9M multiply-adds: fans out
	bigDst := New(170, 170)
	step := func() {
		MatMulInto(dst, a, b)
		MatMulT1Into(dst, b, b)
		MatMulT2Into(dst, a, bT)
		MatMulT1UpperInto(dst, b)
		MatMulInto(bigDst, big, big)
		MatMulT2Into(bigDst, big, big)
	}
	step() // warm the pools
	if allocs := testing.AllocsPerRun(10, step); allocs != 0 {
		t.Fatalf("float64 matmul kernels allocate %v times per step", allocs)
	}
}

// record adds case c on operands a, b to g through the Group entry point of
// its variant and returns the destination, NaN-filled so an element the
// grid failed to write cannot pass for a result.
func record[E Elem](g *Group[E], c gemmCase, a, b []E) []E {
	dst := make([]E, c.m*c.n)
	for i := range dst {
		dst[i] = E(math.NaN())
	}
	d := FromSlice(dst, c.m, c.n)
	switch {
	case c.aT:
		g.MatMulT1(d, FromSlice(a, c.k, c.m), FromSlice(b, c.k, c.n))
	case c.bT:
		g.MatMulT2(d, FromSlice(a, c.m, c.k), FromSlice(b, c.n, c.k))
	default:
		g.MatMul(d, FromSlice(a, c.m, c.k), FromSlice(b, c.k, c.n))
	}
	return dst
}

// checkGroup runs every case as one group on the given kernel set and holds
// each product to the one-product call of the same case and to the
// written-down chain, bit for bit.
func checkGroup[E Elem](t *testing.T, label string, ks *gemmKernels, cases []gemmCase, operands func(i int) (a, b, want []E)) {
	t.Helper()
	var g Group[E]
	g.grid.ks = ks
	dsts := make([][]E, len(cases))
	for i, c := range cases {
		a, b, _ := operands(i)
		dsts[i] = record(&g, c, a, b)
	}
	g.Run()
	for i, c := range cases {
		a, b, want := operands(i)
		sameBits(t, label, c, dsts[i], run(t, c, ks, a, b))
		sameBits(t, label+" vs chain", c, dsts[i], want)
	}
}

// TestGroupMatchesOneProductCalls: a group of mixed N/T1/T2 products
// — a sample of the edge shapes plus the model shapes and the shapes on
// either side of gemmBInPlaceTiles, enough work to fan out — gives every
// product exactly the bits of its one-product call and of the written-down
// chain, at both element types, with both kernel sets, whatever the worker
// count; at one worker each orientation reads each operand both in place
// and packed (checkPackBranches; the group holds no Gram product).
func TestGroupMatchesOneProductCalls(t *testing.T) {
	all := gemmCases()
	var cases []gemmCase
	for i, c := range all {
		// The last 14 shapes are the crossover's and the model's; past 2^24
		// multiply-adds a case only slows the race run down.
		if (i%10 == 0 || i >= len(all)-56) && c.m*c.n*c.k <= 1<<24 && !c.upper {
			cases = append(cases, c)
		}
	}
	rng := rand.New(rand.NewSource(4))
	problems := make([]gemmProblem, len(cases))
	for i, c := range cases {
		problems[i] = c.problem(rng)
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, set := range []struct {
		name string
		ks   *gemmKernels
	}{{"portable", &gemmGo}, {"active", &gemmActive}} {
		checkPackBranches(t, set.ks, cases)
		for _, procs := range []int{1, 2, 4, 8} {
			runtime.GOMAXPROCS(procs)
			label := fmt.Sprintf("%s GOMAXPROCS=%d", set.name, procs)
			checkGroup(t, label+"/float64", set.ks, cases, func(i int) (a, b, want []float64) {
				return problems[i].a, problems[i].b, problems[i].want
			})
			checkGroup(t, label+"/float32", set.ks, cases, func(i int) (a, b, want []float32) {
				return problems[i].a32, problems[i].b32, problems[i].want32
			})
		}
	}
}

// TestGroupZeroAllocSteadyState: a reused Group allocates nothing once its
// record and the workspaces are warm, at both element types, on a grid that
// fans out and on one that runs inline.
func TestGroupZeroAllocSteadyState(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	a, b, bT := Randn(rng, 1, 24, 200), Randn(rng, 1, 200, 24), Randn(rng, 1, 24, 200)
	big := Randn(rng, 1, 170, 170)
	d1, d2, d3, bigDst := New(24, 24), New(24, 24), New(24, 24), New(170, 170)
	a32, b32, big32 := NewT32(24, 200), NewT32(200, 24), NewT32(170, 170)
	small32, dst32 := NewT32(24, 24), NewT32(170, 170)
	a32.NarrowFrom(a)
	b32.NarrowFrom(b)
	big32.NarrowFrom(big)
	var g Group[float64]
	var g32 Group[float32]
	step := func() {
		g.MatMul(d1, a, b)
		g.MatMulT1(d2, b, b)
		g.MatMulT2(d3, a, bT)
		g.Run() // small: inline
		g.MatMul(d1, a, b)
		g.MatMulT2(bigDst, big, big)
		g.Run() // fans out
		g32.MatMul(small32, a32, b32)
		g32.MatMul(dst32, big32, big32)
		g32.Run()
	}
	step()
	if allocs := testing.AllocsPerRun(10, step); allocs != 0 {
		t.Fatalf("a reused Group allocates %v times per run", allocs)
	}
}

// TestGEMMReadsNoBytePastOperands: every operand and the destination end
// exactly where an inaccessible page begins (guarded), so a micro-kernel
// that read an operand in place past its last element — a full vector of a
// partial op(B) panel, a row of a partial op(A) tile — or wrote past the
// destination faults, and the fault fails the test. m, n and k are no
// multiples of gemmMR, of either panel width or of gemmKC, so partial row
// tiles, partial panels, several k-blocks, the narrow set's hand-off and
// both sides of gemmBInPlaceTiles are all reached, in every orientation and
// the Gram product, on every kernel set the host runs, at both element
// types. A patch-matrix operand's image ends at such a page too, read
// through windows whose last row takes the image's last pixel (no padding)
// and windows clipped by padding, with and without the ones column. Each
// product runs on the calling goroutine, whose faults debug.SetPanicOnFault
// turns into a panic guardedRun recovers.
func TestGEMMReadsNoBytePastOperands(t *testing.T) {
	var cases []gemmCase
	for _, s := range [][3]int{{13, 29, 259}, {13, 11, 259}, {6, 7, 131}, {37, 7, 133}, {29, 53, 133}, {37, 53, 133}} {
		m, n, k := s[0], s[1], s[2]
		cases = append(cases,
			gemmCase{m: m, n: n, k: k},
			gemmCase{m: m, n: n, k: k, aT: true},
			gemmCase{m: m, n: n, k: k, bT: true},
			gemmCase{m: m, n: m, k: k, aT: true, upper: true})
	}
	rng := rand.New(rand.NewSource(6))
	problems := make([]gemmProblem, len(cases))
	for i, c := range cases {
		if c.m*c.n*c.k >= gemmParallelWork {
			t.Fatalf("%v would fan out to goroutines whose faults are not recovered", c)
		}
		problems[i] = c.problem(rng)
	}
	forEachKernelSet(t, func(t *testing.T, ks *gemmKernels) {
		for i, c := range cases {
			p := problems[i]
			sameBits(t, ks.isa.String()+"/float64", c, guardedRun(t, c, ks, p.a, p.b), p.want)
			sameBits(t, ks.isa.String()+"/float32", c, guardedRun(t, c, ks, p.a32, p.b32), p.want32)
		}
		for _, pc := range []patchCase{
			{n: 2, h: 5, w: 4, c: 3, win: Window{3, 3, 1, 0}},
			{n: 1, h: 6, w: 5, c: 5, win: Window{3, 3, 2, 1}, ones: true},
			{n: 2, h: 3, w: 7, c: 2, win: Window{1, 1, 1, 0}},
		} {
			x := pc.image(rng)
			x32 := NewT32(x.Shape...)
			x32.NarrowFrom(x)
			other := Randn(rng, 1, 32*200).Data
			other32 := narrowed(other)
			for _, pp := range patchProducts() {
				label := ks.isa.String() + "/" + pc.String() + "/" + pp.name
				cols := unfolded(pc, x)
				_, n, _ := pp.dims(cols.Rows(), cols.Cols())
				_, want := runPatchProduct(ks, pc, pp, x, other)
				samePatchBits(t, label+"/float64", pp.upper, n, guardedPatchRun(t, ks, pc, pp, x, other), want)
				_, want32 := runPatchProduct(ks, pc, pp, x32, other32)
				samePatchBits(t, label+"/float32", pp.upper, n, guardedPatchRun(t, ks, pc, pp, x32, other32), want32)
			}
		}
	})
}

// guardedRun computes case c on guarded copies of a and b into a guarded
// destination and returns the destination.
func guardedRun[E Elem](t *testing.T, c gemmCase, ks *gemmKernels, a, b []E) []E {
	t.Helper()
	ga := guarded(t, a)
	gb := ga
	if !c.upper {
		gb = guarded(t, b)
	}
	dst := guarded(t, make([]E, c.m*c.n))
	func() {
		defer debug.SetPanicOnFault(debug.SetPanicOnFault(true))
		defer func() {
			if r := recover(); r != nil {
				t.Fatalf("%v: %v: touched memory past an operand: %v", ks.isa, c, r)
			}
		}()
		gemm(ks, dst, ga, gb, c.m, c.n, c.k, c.aT, c.bT, c.upper)
	}()
	return dst
}
