package linalg

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/tensor"
)

// TestSymMulBitIdenticalToMatMulT1 is the kernel-equality gate: the
// symmetric multiply must reproduce the general matmul bit for bit — zero
// tolerance — across shapes small enough for the serial path and large
// enough to fan out over the shared pool, including matrices with exact
// zeros.
func TestSymMulBitIdenticalToMatMulT1(t *testing.T) {
	for _, sh := range symShapes {
		a := sh.operand()
		want := tensor.New(sh.m, sh.m)
		tensor.MatMulT1Into(want, a, a)
		got := SymMulT1(a)
		if !got.SameShape(want) {
			t.Fatalf("k=%d m=%d: shape %v, want %v", sh.k, sh.m, got.Shape, want.Shape)
		}
		for i := range want.Data {
			if got.Data[i] != want.Data[i] {
				t.Fatalf("k=%d m=%d: element %d differs: %x vs %x",
					sh.k, sh.m, i, got.Data[i], want.Data[i])
			}
		}
	}
}

// symShape is one Gram-product shape of the kernel-equality gates.
type symShape struct{ k, m int }

var symShapes = []symShape{
	{1, 1}, {3, 2}, {7, 5}, {16, 16}, {33, 9},
	{128, 64},  // serial path
	{600, 220}, // parallel path: 220·220·600/2 ≈ 14.5M madds
}

// operand draws the k×m matrix of the shape, sprinkled with exact zeros:
// they are multiplied like any other value.
func (sh symShape) operand() *tensor.Tensor {
	rng := rand.New(rand.NewSource(int64(sh.k*1000 + sh.m)))
	a := tensor.Randn(rng, 1, sh.k, sh.m)
	for i := 0; i < len(a.Data); i += 7 {
		a.Data[i] = 0
	}
	return a
}

// TestSymMul32BitIdenticalToMatMulT1 is the same gate at float32 — the
// symmetric multiply reproduces tensor.MatMulT1Into32 bit for bit — and,
// because the general float32 product is the narrowed float64 one, it is
// bitwise symmetric and bit-equal to the narrowed float64 Gram matrix of the
// widened operand.
func TestSymMul32BitIdenticalToMatMulT1(t *testing.T) {
	for _, sh := range symShapes {
		a64 := sh.operand()
		a := tensor.NewT32(sh.k, sh.m)
		a.NarrowFrom(a64)
		tensor.Convert(a64, a)
		want, got, narrowed := tensor.NewT32(sh.m, sh.m), tensor.NewT32(sh.m, sh.m), tensor.NewT32(sh.m, sh.m)
		tensor.MatMulT1Into(want, a, a)
		SymMulT1Into32(got, a)
		narrowed.NarrowFrom(SymMulT1(a64))
		for i := 0; i < sh.m; i++ {
			for j := 0; j < sh.m; j++ {
				g := math.Float32bits(got.Data[i*sh.m+j])
				if w := math.Float32bits(want.Data[i*sh.m+j]); g != w {
					t.Fatalf("k=%d m=%d: element (%d,%d) = %x, general product has %x", sh.k, sh.m, i, j, g, w)
				}
				if w := math.Float32bits(narrowed.Data[i*sh.m+j]); g != w {
					t.Fatalf("k=%d m=%d: element (%d,%d) = %x, narrowed float64 product has %x", sh.k, sh.m, i, j, g, w)
				}
				if w := math.Float32bits(got.Data[j*sh.m+i]); g != w {
					t.Fatalf("k=%d m=%d: element (%d,%d) = %x but (%d,%d) = %x", sh.k, sh.m, i, j, g, j, i, w)
				}
			}
		}
	}
}

// TestSymMulPropagatesNonFinite: a NaN or ±Inf activation must show in the
// factor even where it only ever meets zeros (0·Inf is NaN) — a ReLU zero
// must not mask it. The kernels this replaced skipped zero multipliers.
func TestSymMulPropagatesNonFinite(t *testing.T) {
	checkSymMulPropagatesNonFinite(t, SymMulT1,
		func(a *tensor.Tensor) *tensor.Tensor { return tensor.MatMulT1(a, a) })
}

// via32 runs a float32 Gram-type product on the narrowed operand and widens
// the result; NaN and ±Inf survive both conversions.
func via32(run func(dst, a *tensor.T32)) func(a *tensor.Tensor) *tensor.Tensor {
	return func(a *tensor.Tensor) *tensor.Tensor {
		m := a.Shape[1]
		a32, d32, dst := tensor.NewT32(a.Shape...), tensor.NewT32(m, m), tensor.New(m, m)
		a32.NarrowFrom(a)
		run(d32, a32)
		tensor.Convert(dst, d32)
		return dst
	}
}

// TestSymMul32PropagatesNonFinite: the same for the float32 Gram kernel.
func TestSymMul32PropagatesNonFinite(t *testing.T) {
	checkSymMulPropagatesNonFinite(t, via32(SymMulT1Into32),
		via32(func(dst, a *tensor.T32) { tensor.MatMulT1Into(dst, a, a) }))
}

func checkSymMulPropagatesNonFinite(t *testing.T, gram, general func(a *tensor.Tensor) *tensor.Tensor) {
	const k, m = 6, 5
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		a := tensor.New(k, m) // all zero
		a.Data[3*m+1] = bad
		got := gram(a)
		want := general(a)
		for i := 0; i < m; i++ {
			for j := 0; j < m; j++ {
				g, w := got.Data[i*m+j], want.Data[i*m+j]
				if math.Float64bits(g) != math.Float64bits(w) && !(math.IsNaN(g) && math.IsNaN(w)) {
					t.Errorf("%v: element (%d,%d) = %v, general product has %v", bad, i, j, g, w)
				}
				touched := i == 1 || j == 1
				if touched == (g == 0) {
					t.Errorf("%v: element (%d,%d) = %v", bad, i, j, g)
				}
			}
		}
	}
}

// TestSymMulAliasPanics: dst must not be a.
func TestSymMulAliasPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("SymMulT1Into(a, a) accepted")
		}
	}()
	a := tensor.New(4, 4)
	SymMulT1Into(a, a)
}

// BenchmarkSymMulShapes runs the Gram kernel at the factor shapes of the
// benchmark models (rows = batch × output positions, m = factor dimension)
// at both element types of the one kernel and reports computed GFLOP/s —
// k·m² operations, half a general product, mirror included — beside the
// measured one-core float64 FMA peak.
func BenchmarkSymMulShapes(b *testing.B) {
	peak := tensor.FMAPeakGFLOPS()
	shapes := []struct {
		k, m int
		what string
	}{
		{72, 432, "A factor, stage 3 (the benchmark's replay shape)"},
		{288, 216, "A factor, stage 2"},
		{1152, 108, "A factor, stage 1"},
		{4096, 72, "A factor, converge_w2 stage 1 (two ranks of 16 16×16 images)"},
		{1152, 12, "G factor, stage 1"},
		{72, 48, "G factor, stage 3"},
		{512, 512, "square"},
	}
	for _, sh := range shapes {
		a := tensor.Randn(rand.New(rand.NewSource(1)), 1, sh.k, sh.m)
		dst := tensor.New(sh.m, sh.m)
		a32, dst32 := tensor.NewT32(sh.k, sh.m), tensor.NewT32(sh.m, sh.m)
		a32.NarrowFrom(a)
		for _, et := range []struct {
			name string
			run  func()
		}{
			{"float64", func() { SymMulT1Into(dst, a) }},
			{"float32", func() { SymMulT1Into32(dst32, a32) }},
		} {
			b.Run(fmt.Sprintf("%dx%d/%s", sh.k, sh.m, et.name), func(b *testing.B) {
				et.run()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					et.run()
				}
				g := float64(sh.k) * float64(sh.m) * float64(sh.m) * float64(b.N) / b.Elapsed().Seconds() / 1e9
				b.ReportMetric(g, "GFLOP/s")
				b.ReportMetric(peak, "peak-GFLOP/s")
				b.ReportMetric(g/peak, "of-peak")
			})
		}
	}
}

// TestSymMulIntoReuse: repeated in-place use over the same destination must
// fully overwrite previous results.
func TestSymMulIntoReuse(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	dst := tensor.New(6, 6)
	for i := range dst.Data {
		dst.Data[i] = 999
	}
	a := tensor.Randn(rng, 1, 9, 6)
	SymMulT1Into(dst, a)
	want := tensor.New(6, 6)
	tensor.MatMulT1Into(want, a, a)
	if !dst.Equal(want, 0) {
		t.Error("SymMulT1Into did not overwrite stale destination contents")
	}
}

// TestSymEigIntoReuseMatchesFresh: refreshing one Eigen in place across
// several matrices must give exactly the results of fresh decompositions.
func TestSymEigIntoReuseMatchesFresh(t *testing.T) {
	var reused Eigen
	for seed := int64(0); seed < 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 8 + int(seed)*5 // varying sizes force Q/Values regrowth
		m := tensor.Randn(rng, 1, n, n)
		spd := SymMulT1(m)
		if err := SymEigInto(spd, &reused); err != nil {
			t.Fatal(err)
		}
		fresh, err := SymEig(spd)
		if err != nil {
			t.Fatal(err)
		}
		if !reused.Q.Equal(fresh.Q, 0) {
			t.Errorf("seed %d: reused Q differs from fresh", seed)
		}
		for i := range fresh.Values {
			if reused.Values[i] != fresh.Values[i] {
				t.Errorf("seed %d: eigenvalue %d differs", seed, i)
			}
		}
	}
}

// TestSymEigIntoRejectsNaNWithoutClobbering: a NaN input must fail before
// the previous decomposition stored in the Eigen is touched.
func TestSymEigIntoRejectsNaNWithoutClobbering(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	spd := SymMulT1(tensor.Randn(rng, 1, 6, 6))
	var eg Eigen
	if err := SymEigInto(spd, &eg); err != nil {
		t.Fatal(err)
	}
	q0 := eg.Q.Clone()
	bad := spd.Clone()
	bad.Data[3] = nan()
	if err := SymEigInto(bad, &eg); err == nil {
		t.Fatal("NaN input accepted")
	}
	if !eg.Q.Equal(q0, 0) {
		t.Error("failed decomposition clobbered the previous result")
	}
}

func nan() float64 { z := 0.0; return z / z }
