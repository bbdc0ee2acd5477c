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
	shapes := []struct{ k, m int }{
		{1, 1}, {3, 2}, {7, 5}, {16, 16}, {33, 9},
		{128, 64},  // serial path
		{600, 220}, // parallel path: 220·220·600/2 ≈ 14.5M madds
	}
	for _, sh := range shapes {
		rng := rand.New(rand.NewSource(int64(sh.k*1000 + sh.m)))
		a := tensor.Randn(rng, 1, sh.k, sh.m)
		// Sprinkle exact zeros: they are multiplied like any other value.
		for i := 0; i < len(a.Data); i += 7 {
			a.Data[i] = 0
		}
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

// TestSymMulPropagatesNonFinite: a NaN or ±Inf activation must show in the
// factor even where it only ever meets zeros (0·Inf is NaN) — a ReLU zero
// must not mask it. The kernels this replaced skipped zero multipliers.
func TestSymMulPropagatesNonFinite(t *testing.T) {
	const k, m = 6, 5
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		a := tensor.New(k, m) // all zero
		a.Data[3*m+1] = bad
		got := SymMulT1(a)
		want := tensor.MatMulT1(a, a)
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
// and reports computed GFLOP/s — k·m² operations, half a general product,
// mirror included — beside the measured one-core FMA peak.
func BenchmarkSymMulShapes(b *testing.B) {
	peak := tensor.FMAPeakGFLOPS()
	shapes := []struct {
		k, m int
		what string
	}{
		{72, 432, "A factor, stage 3 (the benchmark's replay shape)"},
		{288, 216, "A factor, stage 2"},
		{1152, 108, "A factor, stage 1"},
		{1152, 12, "G factor, stage 1"},
		{72, 48, "G factor, stage 3"},
		{512, 512, "square"},
	}
	for _, sh := range shapes {
		a := tensor.Randn(rand.New(rand.NewSource(1)), 1, sh.k, sh.m)
		dst := tensor.New(sh.m, sh.m)
		b.Run(fmt.Sprintf("%dx%d", sh.k, sh.m), func(b *testing.B) {
			SymMulT1Into(dst, a)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				SymMulT1Into(dst, a)
			}
			g := float64(sh.k) * float64(sh.m) * float64(sh.m) * float64(b.N) / b.Elapsed().Seconds() / 1e9
			b.ReportMetric(g, "GFLOP/s")
			b.ReportMetric(peak, "peak-GFLOP/s")
			b.ReportMetric(g/peak, "of-peak")
		})
	}
}

// TestSymMulIntoReuse: repeated in-place use over the same destination must
// fully overwrite previous results.
func TestSymMulIntoReuse(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	dst := tensor.New(6, 6)
	dst.Fill(999)
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

// TestSymEigJacobiArenaMatchesHeap: the arena-backed oracle must agree with
// the heap-allocating one and leave the arena fully recyclable.
func TestSymEigJacobiArenaMatchesHeap(t *testing.T) {
	ws := tensor.NewArena()
	for seed := int64(0); seed < 3; seed++ {
		ws.Reset()
		rng := rand.New(rand.NewSource(seed))
		spd := SymMulT1(tensor.Randn(rng, 1, 10, 10))
		got, err := SymEigJacobiArena(spd, 0, ws)
		if err != nil {
			t.Fatal(err)
		}
		want, err := SymEigJacobi(spd, 0)
		if err != nil {
			t.Fatal(err)
		}
		if !got.Q.Equal(want.Q, 0) {
			t.Errorf("seed %d: arena Q differs from heap Q", seed)
		}
		for i := range want.Values {
			if got.Values[i] != want.Values[i] {
				t.Errorf("seed %d: eigenvalue %d differs", seed, i)
			}
		}
	}
}
