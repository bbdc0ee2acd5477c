package tensor

import (
	"math"
	"math/rand"
	"testing"
)

// randT32 returns a shape-sized float32 tensor with entries drawn uniformly
// from [-1, 1) (values representable exactly at float32 by construction).
func randT32(rng *rand.Rand, shape ...int) *T32 {
	t := NewT32(shape...)
	for i := range t.Data {
		t.Data[i] = float32(rng.Float64()*2 - 1)
	}
	return t
}

// widen64 returns the float64 tensor holding exactly t's values.
func widen64(t *T32) *Tensor {
	d := New(t.Shape...)
	Widen(d.Data, t.Data)
	return d
}

// mixedTol is the per-element absolute error budget the float32 products
// were admitted under when they summed 64-term chunks in float32: 512·ε₃₂
// relative to scale (a bound on Σ|aᵢ||bᵢ|). It is kept as the looser of the
// two gates checkMatClose applies.
func mixedTol(scale float64) float64 {
	const eps32 = 1.1920929e-07
	return 64 * eps32 * 8 * (scale + 1)
}

// withinOneULP32 reports whether g is w or one of its two float32
// neighbours.
func withinOneULP32(g, w float32) bool {
	inf := float32(math.Inf(1))
	return g == w || g == math.Nextafter32(w, inf) || g == math.Nextafter32(w, -inf)
}

// checkMatClose fails if got strays from want, the float64 product of the
// same float32 operands, anywhere by more than one float32 ULP of want
// rounded — the chain is float64, so the only float32 rounding is the store
// (TestGEMMKernelSetsBitIdentical pins the distance to zero) — or by more
// than mixedTol of the row scale.
func checkMatClose(t *testing.T, name string, got *T32, want *Tensor, scale float64) {
	t.Helper()
	tol := mixedTol(scale)
	for i, g := range got.Data {
		if d := math.Abs(float64(g) - want.Data[i]); d > tol {
			t.Fatalf("%s: element %d: got %v want %v (|Δ|=%.3e > tol %.3e)", name, i, g, want.Data[i], d, tol)
		}
		if !withinOneULP32(g, float32(want.Data[i])) {
			t.Fatalf("%s: element %d: got %v, over one float32 ULP from the float64 product %v", name, i, g, want.Data[i])
		}
	}
}

// TestMatMul32FamilyMatchesFloat64Oracle drives each float32 matmul kernel
// over random shapes — one micro-tile to past the fan-out threshold — and
// compares against the float64 kernels run on widened copies of the same
// (exactly representable) inputs. This is the ULP-bounded oracle harness of
// the mixed-precision path: only the final rounding can differ.
func TestMatMul32FamilyMatchesFloat64Oracle(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	shapes := []struct{ m, k, n int }{
		{1, 1, 1}, {2, 3, 4}, {5, 64, 7}, {8, 65, 9},
		{16, 200, 24}, {33, 513, 17}, {96, 300, 80}, // last exceeds gemmParallelWork
	}
	for _, sh := range shapes {
		a := randT32(rng, sh.m, sh.k)
		b := randT32(rng, sh.k, sh.n)
		aT := randT32(rng, sh.k, sh.m)
		bT := randT32(rng, sh.n, sh.k)
		scale := float64(sh.k) // |entries| ≤ 1 ⇒ Σ|prod| ≤ k

		got := NewT32(sh.m, sh.n)
		want := New(sh.m, sh.n)
		MatMulInto32(got, a, b)
		MatMulInto(want, widen64(a), widen64(b))
		checkMatClose(t, "MatMulInto32", got, want, scale)

		MatMulT1Into(got, aT, b)
		MatMulT1Into(want, widen64(aT), widen64(b))
		checkMatClose(t, "MatMulT1Into32", got, want, scale)

		MatMulT2Into(got, a, bT)
		MatMulT2Into(want, widen64(a), widen64(bT))
		checkMatClose(t, "MatMulT2Into32", got, want, scale)
	}
}

// TestKernelPrimitivesMatchScalarOracle compares the active (possibly SIMD)
// implementations of every conversion primitive and layer pass against the
// portable scalar oracle at sizes straddling every vector-width boundary and
// tail case. Bit-equality: each conversion is an exact or correctly rounded
// elementwise operation, and each layer pass repeats its oracle's operations.
func TestKernelPrimitivesMatchScalarOracle(t *testing.T) {
	t.Logf("active kernel ISA: %s", kernelISA)
	rng := rand.New(rand.NewSource(7))
	sizes := []int{0, 1, 3, 4, 7, 8, 9, 31, 32, 33, 63, 64, 100, 511, 512, 513, 1000}
	for _, n := range sizes {
		x := make([]float32, n)
		for i := range x {
			x[i] = float32(rng.Float64()*2 - 1)
		}

		// Accumulate vs scalar (exact: both do float64 adds of exact widenings).
		acc1 := make([]float64, n)
		acc2 := make([]float64, n)
		for i := range acc1 {
			acc1[i] = rng.Float64()
			acc2[i] = acc1[i]
		}
		Accumulate(FromSlice(acc1, n), FromSlice(x, n))
		foldAccScalar(acc2, x)
		for i := range acc1 {
			if acc1[i] != acc2[i] {
				t.Fatalf("Accumulate n=%d i=%d: %v vs %v", n, i, acc1[i], acc2[i])
			}
		}

		// Widen and Narrow are exact conversions: bit-equality required.
		w1 := make([]float64, n)
		w2 := make([]float64, n)
		Widen(w1, x)
		widenScalar(w2, x)
		for i := range w1 {
			if w1[i] != w2[i] {
				t.Fatalf("Widen n=%d i=%d: %v vs %v", n, i, w1[i], w2[i])
			}
		}
		n1 := make([]float32, n)
		n2 := make([]float32, n)
		Narrow(n1, w1)
		narrowScalar(n2, w1)
		for i := range n1 {
			if n1[i] != n2[i] {
				t.Fatalf("Narrow n=%d i=%d: %v vs %v", n, i, n1[i], n2[i])
			}
		}
	}

	// The layer passes: channel counts with and without scalar tail channels
	// and past one four-vector block, row counts from none to the stage-1
	// shape's, on finite inputs (a long sum of the special values is NaN) and
	// on inputs with special values.
	for _, c := range []int{1, 3, 4, 5, 12, 13, 17, 48, 100} {
		for _, rows := range []int{0, 1, 7, 1152} {
			for _, specials := range []bool{false, true} {
				checkLayerPasses(t, rng, c, rows, specials)
			}
		}
	}
}

// layerInputs returns n values in [-2, 2), of which, with specials, about
// one in six is ±0, a subnormal, ±Inf or a NaN of one of two payloads.
func layerInputs(rng *rand.Rand, n int, specials bool) []float64 {
	special := []float64{0, math.Copysign(0, -1), math.SmallestNonzeroFloat64,
		-0x1p-1030, math.Inf(1), math.Inf(-1), math.NaN(),
		math.Float64frombits(0xfff8_0000_0000_0123)}
	x := make([]float64, n)
	for i := range x {
		if specials && rng.Intn(6) == 0 {
			x[i] = special[rng.Intn(len(special))]
		} else {
			x[i] = rng.Float64()*4 - 2
		}
	}
	return x
}

// checkLayerPasses runs every layer pass and its scalar oracle on the same
// [rows, c] inputs and fails unless each output matches bit for bit
// (Float64bits: NaN != NaN), a NaN matching any NaN: which of two NaN
// operands an operation returns is the compiler's choice in Go — the oracle
// inlined into its wrapper and called here directly return different ones.
func checkLayerPasses(t *testing.T, rng *rand.Rand, c, rows int, specials bool) {
	t.Helper()
	n := rows * c
	in := func(n int) []float64 { return layerInputs(rng, n, specials) }
	x, dy, xh, out := in(n), in(n), in(n), in(n)
	mean, inv, gamma, beta := in(c), in(c), in(c), in(c)
	same := func(pass string, got, want []float64) {
		t.Helper()
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) && !(math.IsNaN(got[i]) && math.IsNaN(want[i])) {
				t.Fatalf("%s c=%d rows=%d specials=%v i=%d: %v (%#x) vs oracle %v (%#x)", pass, c, rows, specials, i,
					got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
			}
		}
	}
	g1, g2, w1, w2 := make([]float64, c), make([]float64, c), make([]float64, c), make([]float64, c)
	ChannelSums(g1, x)
	channelSumsGo(w1, x, 0, c)
	same("ChannelSums", g1, w1)
	ChannelSqDevs(g1, x, mean)
	channelSqDevsGo(w1, x, mean, 0, c)
	same("ChannelSqDevs", g1, w1)
	ChannelSumPair(g1, g2, dy, xh)
	channelSumPairGo(w1, w2, dy, xh, 0, c)
	same("ChannelSumPair s", g1, w1)
	same("ChannelSumPair sp", g2, w2)

	e1, e2, f1, f2 := make([]float64, n), make([]float64, n), make([]float64, n), make([]float64, n)
	Normalize(e1, e2, x, mean, inv, gamma, beta)
	normalizeGo(f1, f2, x, mean, inv, gamma, beta, 0, c)
	same("Normalize xh", e1, f1)
	same("Normalize out", e2, f2)
	NormalizeGrad(e1, dy, xh, mean, inv, gamma, float64(rows))
	normalizeGradGo(f1, dy, xh, mean, inv, gamma, float64(rows), 0, c)
	same("NormalizeGrad", e1, f1)

	Rectify(e1, x)
	rectifyGo(f1, x)
	same("Rectify", e1, f1)
	AddRectify(e1, x, dy)
	addRectifyGo(f1, x, dy)
	same("AddRectify", e1, f1)
	RectifyGrad(e1, dy, out)
	rectifyGradGo(f1, dy, out)
	same("RectifyGrad", e1, f1)
	Add(e1, x, dy)
	addGo(f1, x, dy)
	same("Add", e1, f1)
	for _, wd := range []float64{0, 5e-4} {
		copy(e1, xh)
		copy(f1, xh)
		copy(e2, out)
		copy(f2, out)
		for range 2 {
			MomentumStep(e1, e2, dy, 0.1, 0.9, wd)
			momentumStepGo(f1, f2, dy, 0.1, 0.9, wd)
		}
		same("MomentumStep w", e1, f1)
		same("MomentumStep buf", e2, f2)
	}
}

// TestIm2Col32MatchesFloat64 checks the float32 lowering against the
// float64 one (exact: no arithmetic happens) and the widening Col2ImInto32
// scatter against the float64 Col2ImInto (tolerance: the float64 path sums
// float64 values, the mixed path sums widened float32 values — equal here
// because the inputs are exactly representable).
func TestIm2Col32MatchesFloat64(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	const n, c, h, w, kh, kw, stride, pad = 2, 3, 7, 6, 3, 3, 2, 1
	x32 := randT32(rng, n, c, h, w)
	x64 := widen64(x32)
	outH := ConvOutSize(h, kh, stride, pad)
	outW := ConvOutSize(w, kw, stride, pad)

	cols32 := NewT32(n*outH*outW, c*kh*kw)
	cols64 := New(n*outH*outW, c*kh*kw)
	Im2ColInto(cols32, x32, kh, kw, stride, pad)
	Im2ColInto(cols64, x64, kh, kw, stride, pad)
	for i, v := range cols32.Data {
		if float64(v) != cols64.Data[i] {
			t.Fatalf("Im2ColInto32 element %d: %v vs %v", i, v, cols64.Data[i])
		}
	}

	dx32 := New(n, c, h, w)
	dx64 := New(n, c, h, w)
	Col2ImInto(dx32, cols32, kh, kw, stride, pad)
	Col2ImInto(dx64, cols64, kh, kw, stride, pad)
	for i := range dx32.Data {
		if dx32.Data[i] != dx64.Data[i] {
			t.Fatalf("Col2ImInto32 element %d: %v vs %v", i, dx32.Data[i], dx64.Data[i])
		}
	}
}

// TestEnsure32ReusesStorage verifies the float32 buffer-reuse primitive:
// same capacity ⇒ same backing array, larger need ⇒ fresh allocation.
func TestEnsure32ReusesStorage(t *testing.T) {
	var buf *T32
	a := Ensure(&buf, 4, 8)
	a.Data[0] = 42
	b := Ensure(&buf, 8, 4)
	if &a.Data[0] != &b.Data[0] {
		t.Fatal("Ensure32 did not reuse storage for equal element count")
	}
	if b.Rows() != 8 || b.Cols() != 4 {
		t.Fatalf("Ensure32 shape = %v", b.Shape)
	}
	c := Ensure(&buf, 16, 16)
	if len(c.Data) != 256 {
		t.Fatalf("Ensure32 grow: len = %d", len(c.Data))
	}
	if allocs := testing.AllocsPerRun(100, func() { Ensure(&buf, 16, 16) }); allocs != 0 {
		t.Fatalf("steady-state Ensure32 allocates %v times per call", allocs)
	}
}

// TestMatMul32ZeroAllocSteadyState asserts the float32 products allocate
// nothing once the GEMM workspaces are warm — the same discipline the
// float64 hot path maintains.
func TestMatMul32ZeroAllocSteadyState(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	a := randT32(rng, 24, 200)
	b := randT32(rng, 200, 24)
	bT := randT32(rng, 24, 200)
	dst := NewT32(24, 24)
	// Warm the workspace pools.
	MatMulInto32(dst, a, b)
	MatMulT1Into(dst, b, b)
	MatMulT2Into(dst, a, bT)
	if allocs := testing.AllocsPerRun(10, func() {
		MatMulInto32(dst, a, b)
		MatMulT1Into(dst, b, b)
		MatMulT2Into(dst, a, bT)
	}); allocs != 0 {
		t.Fatalf("float32 matmul kernels allocate %v times per step", allocs)
	}
}

// TestCastAndLikeAtTheBoundary pins the boundary helper: at the tensor's own
// element type Cast and Like hand back the tensor itself, leave the buffer
// alone and allocate nothing; across types Cast converts into the reused
// buffer (one rounding when narrowing, exact when widening) and Like only
// shapes it; Convert onto itself is a no-op.
func TestCastAndLikeAtTheBoundary(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	x := Randn(rng, 1, 3, 5)
	var buf64 *Tensor
	var buf32 *T32
	if Cast(&buf64, x) != x || Like(&buf64, x) != x || buf64 != nil {
		t.Fatal("same-type Cast/Like must return the tensor itself and leave the buffer nil")
	}
	n := Cast(&buf32, x)
	if n != buf32 || n.Rows() != 3 || n.Cols() != 5 {
		t.Fatalf("narrowing Cast: got shape %v, buffer %p vs %p", n.Shape, n, buf32)
	}
	for i, v := range n.Data {
		if math.Float32bits(v) != math.Float32bits(float32(x.Data[i])) {
			t.Fatalf("narrowing Cast element %d: %v vs %v", i, v, float32(x.Data[i]))
		}
	}
	w := Cast(&buf64, n)
	for i, v := range w.Data {
		if v != float64(n.Data[i]) {
			t.Fatalf("widening Cast element %d: %v vs %v", i, v, n.Data[i])
		}
	}
	if l := Like(&buf32, New(5, 3)); l != n || l.Rows() != 5 || &l.Data[0] != &n.Data[0] {
		t.Fatal("cross-type Like must reshape the reused buffer")
	}
	before := x.Clone()
	Convert(x, x)
	if !x.Equal(before, 0) {
		t.Fatal("Convert onto itself changed the tensor")
	}
	if allocs := testing.AllocsPerRun(100, func() {
		Cast(&buf32, x)
		Cast(&buf64, x)
		Like(&buf32, x)
	}); allocs != 0 {
		t.Fatalf("steady-state Cast/Like allocate %v times per call", allocs)
	}
}
