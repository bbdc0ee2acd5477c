package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
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
// NaN so an element the driver failed to write cannot pass for a result.
func (c gemmCase) run(ks *gemmKernels, a, b []float64) []float64 {
	dst := make([]float64, c.m*c.n)
	for i := range dst {
		dst[i] = math.NaN()
	}
	gemm(ks, dst, a, b, c.m, c.n, c.k, c.aT, c.bT, c.upper)
	return dst
}

// sameBits compares got with want bit for bit; an upper case is compared on
// and above the diagonal only.
func (c gemmCase) sameBits(t *testing.T, label string, got, want []float64) {
	t.Helper()
	for i := 0; i < c.m; i++ {
		for j := 0; j < c.n; j++ {
			if c.upper && j < i {
				continue
			}
			g, w := got[i*c.n+j], want[i*c.n+j]
			if math.Float64bits(g) != math.Float64bits(w) {
				t.Fatalf("%s: %v: element (%d,%d) = %x, want %x", label, c, i, j, g, w)
			}
		}
	}
}

// gemmCases is the shape set of the bit-identity tests: every small edge
// (partial micro-tiles in both directions, k around the k-block), a random
// sample of m, n, k ∈ 1…70, and the shapes the benchmark models issue.
func gemmCases() []gemmCase {
	var shapes [][3]int // m, n, k
	for m := 1; m <= 9; m++ {
		for _, n := range []int{1, 2, 11, 12, 13, 23, 24, 25} {
			for _, k := range []int{1, 2, 7, gemmKC - 1, gemmKC, gemmKC + 1} {
				shapes = append(shapes, [3]int{m, n, k})
			}
		}
	}
	rng := rand.New(rand.NewSource(70))
	for i := 0; i < 200; i++ {
		shapes = append(shapes, [3]int{1 + rng.Intn(70), 1 + rng.Intn(70), 1 + rng.Intn(70)})
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

// TestGEMMKernelSetsBitIdentical is the kernel-equality gate: the active
// kernel set (the AVX2 assembly where the build and CPU have it) and the
// portable math.FMA set, linked into this one binary, must both reproduce
// the written-down FMA chain bit for bit — every variant, every edge.
func TestGEMMKernelSetsBitIdentical(t *testing.T) {
	t.Logf("active float64 GEMM kernel set: %s", KernelISA())
	rng := rand.New(rand.NewSource(1))
	for _, c := range gemmCases() {
		a, b := c.operands(rng)
		want := c.refChain(a, b)
		c.sameBits(t, "portable", c.run(&gemmGo, a, b), want)
		c.sameBits(t, "active", c.run(&gemmActive, a, b), want)
	}
}

// TestGEMMBitIdenticalAcrossGOMAXPROCS: the block grid follows the worker
// count, the bits must not. Shapes are past gemmParallelWork so the grid
// really changes.
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
	for _, c := range cases {
		if work := c.m * c.n * c.k; work < 2*gemmParallelWork { // 2×: an upper case counts half
			t.Fatalf("%v: %d multiply-adds would not fan out", c, work)
		}
		a, b := c.operands(rng)
		want := c.refChain(a, b)
		for _, procs := range []int{1, 2, 4, 8} {
			runtime.GOMAXPROCS(procs)
			c.sameBits(t, fmt.Sprintf("GOMAXPROCS=%d", procs), c.run(&gemmActive, a, b), want)
		}
	}
}

// TestMatMulPropagatesNonFinite: NaN and ±Inf in either operand reach the
// output even when the other operand's matching entry is zero (0·Inf is
// NaN). The old kernels skipped zero multipliers and returned 0 here.
func TestMatMulPropagatesNonFinite(t *testing.T) {
	products := []struct {
		name string
		run  func(dst, a, b *Tensor) // a, b are k×k with k = 5
	}{
		{"MatMulInto", MatMulInto},
		{"MatMulT1Into", MatMulT1Into},
		{"MatMulT2Into", MatMulT2Into},
	}
	const k = 5
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
		MatMulT1UpperInto(dst, a)
		for j := 0; j < k; j++ {
			lo, hi := min(2, j), max(2, j)
			got := dst.Data[lo*k+hi]
			if j == 2 && !math.IsNaN(got) && !math.IsInf(got, 1) {
				t.Errorf("MatMulT1UpperInto with %v: diagonal element (2,2) = %v, want bad²", bad, got)
			}
			if j != 2 && !math.IsNaN(got) {
				t.Errorf("MatMulT1UpperInto with %v: element (%d,%d) = %v, want NaN", bad, lo, hi, got)
			}
		}
	}
	// The issue's one-liner.
	if got := MatMul(FromSlice([]float64{0}, 1, 1), FromSlice([]float64{math.Inf(1)}, 1, 1)).Data[0]; !math.IsNaN(got) {
		t.Errorf("[[0]]·[[+Inf]] = %v, want NaN", got)
	}
}

// TestMatMulAliasPanics: the documented "dst must not alias a or b" is
// checked — the kernel reloads C tiles between k-blocks, so an aliased
// destination would give wrong numbers, not stale ones.
func TestMatMulAliasPanics(t *testing.T) {
	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: aliased destination accepted", name)
			}
		}()
		fn()
	}
	a, b := New(6, 6), New(6, 6)
	mustPanic("MatMulInto dst=a", func() { MatMulInto(a, a, b) })
	mustPanic("MatMulInto dst=b", func() { MatMulInto(b, a, b) })
	mustPanic("MatMulT1Into dst=a", func() { MatMulT1Into(a, a, b) })
	mustPanic("MatMulT2Into dst=b", func() { MatMulT2Into(b, a, b) })
	mustPanic("MatMulT1UpperInto dst=a", func() { MatMulT1UpperInto(a, a) })
	// A partial overlap: dst is a window into the tail of a's storage.
	buf := make([]float64, 60)
	wa := FromSlice(buf[:36], 6, 6)
	wd := FromSlice(buf[24:60], 6, 6)
	mustPanic("MatMulInto overlapping windows", func() { MatMulInto(wd, wa, b) })
	// Disjoint windows of one buffer are fine.
	big := make([]float64, 72)
	MatMulInto(FromSlice(big[36:], 6, 6), FromSlice(big[:36], 6, 6), b)
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
