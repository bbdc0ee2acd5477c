package tensor

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"
)

// gemmBenchShapes are the product shapes the benchmark models issue.
var gemmBenchShapes = []struct {
	variant string // N: a·b, T1: aᵀ·b, T2: a·bᵀ
	m, k, n int
	what    string
}{
	{"N", 48, 432, 432, "precondition (the benchmark's replay shape)"},
	{"T2", 48, 432, 432, "precondition back-rotation"},
	{"T1", 48, 48, 432, "precondition Q_Gᵀ·grad"},
	{"N", 24, 216, 216, "precondition, stage 2"},
	{"T2", 1152, 108, 12, "conv forward, stage 1"},
	{"T1", 12, 1152, 108, "conv weight gradient, stage 1"},
	{"N", 1152, 12, 108, "conv input gradient, stage 1"},
	{"T2", 72, 432, 48, "conv forward, stage 3"},
	{"T2", 368, 64, 368, "eig trailing update r×64·64×r"},
	{"N", 256, 256, 256, "square"},
	{"N", 48, 512, 512, "power-of-two row stride: op(B) rows 4 KiB apart"},
}

// gemmBenchCase returns, for shape i at element type float64 or float32,
// its name, its flop count (2mnk) and a function computing it once on the
// given kernel set; the operands are drawn once.
func gemmBenchCase(i int, f32 bool) (name string, flops float64, run func(ks *gemmKernels)) {
	sh := gemmBenchShapes[i]
	ar, ac, br, bc := sh.m, sh.k, sh.k, sh.n // operand storage shapes
	aT, bT := sh.variant == "T1", sh.variant == "T2"
	if aT {
		ar, ac = sh.k, sh.m
	}
	if bT {
		br, bc = sh.n, sh.k
	}
	name = fmt.Sprintf("%s_%dx%dx%d", sh.variant, sh.m, sh.k, sh.n)
	flops = 2 * float64(sh.m) * float64(sh.k) * float64(sh.n)
	rng := rand.New(rand.NewSource(1))
	if f32 {
		a, b, dst := randT32(rng, ar, ac), randT32(rng, br, bc), NewT32(sh.m, sh.n)
		return name, flops, func(ks *gemmKernels) { gemm(ks, dst.Data, a.Data, b.Data, sh.m, sh.n, sh.k, aT, bT, false) }
	}
	a, b, dst := Randn(rng, 1, ar, ac), Randn(rng, 1, br, bc), New(sh.m, sh.n)
	return name, flops, func(ks *gemmKernels) { gemm(ks, dst.Data, a.Data, b.Data, sh.m, sh.n, sh.k, aT, bT, false) }
}

// hostKernelSets returns the kernel sets the host runs, portable first.
func hostKernelSets() []*gemmKernels {
	var sets []*gemmKernels
	for _, s := range kernelSets() {
		if s.missing == "" {
			sets = append(sets, s.ks)
		}
	}
	return sets
}

// BenchmarkGEMMShapes runs the product family, at both element types, at the
// model shapes under every kernel set the host runs
// (GEMMShapes/<shape>/<set>/<type>), and reports computed GFLOP/s (2mnk,
// packing and — float32 — the narrowing store included) beside that set's
// measured one-core float64 FMA peak, so one `go test -bench GEMMShapes`
// gives each set's rate and fraction of its own peak. With -cpu 1 the ratio
// is per core; at higher -cpu the product may use several cores against a
// one-core peak. Sets run one after another, so on a host whose speed
// drifts compare them with BenchmarkGEMMSetsPaired.
func BenchmarkGEMMShapes(b *testing.B) {
	sets := hostKernelSets()
	peaks := map[*gemmKernels]float64{}
	for _, ks := range sets {
		peaks[ks] = ks.peakGFLOPS()
	}
	for i := range gemmBenchShapes {
		for _, ks := range sets {
			for _, f32 := range []bool{false, true} {
				name, flops, run := gemmBenchCase(i, f32)
				b.Run(fmt.Sprintf("%s/%v/%s", name, ks.isa, typeName(f32)), func(b *testing.B) {
					benchKernel(b, peaks[ks], flops, func() { run(ks) })
				})
			}
		}
	}
}

// BenchmarkGEMMSetsPaired compares the host's two widest kernel sets at the
// model shapes in alternating pairs: each of b.N rounds times about 10 ms of
// products under each set, in an order that swaps every round, so a drift of
// the host's speed reaches both sides alike. It reports the wider set's
// median time per product over the narrower one's (x-narrower, below 1 is
// faster) and the fraction of rounds the wider set won. Run it with
// -cpu 1 -benchtime 60x.
func BenchmarkGEMMSetsPaired(b *testing.B) {
	sets := hostKernelSets()
	if len(sets) < 2 {
		b.Skip("the host runs one kernel set")
	}
	pair := sets[len(sets)-2:]
	for i := range gemmBenchShapes {
		for _, f32 := range []bool{false, true} {
			name, flops, run := gemmBenchCase(i, f32)
			b.Run(fmt.Sprintf("%s/%v_vs_%v/%s", name, pair[1].isa, pair[0].isa, typeName(f32)), func(b *testing.B) {
				reps := max(1, int(3e8/flops)) // ≈ 10 ms at 30 GFLOP/s
				var per [2][]float64
				wins := 0
				for r := 0; r < b.N; r++ {
					var t [2]float64
					for o := range 2 {
						s := (o + r) % 2
						t0 := time.Now()
						for range reps {
							run(pair[s])
						}
						t[s] = time.Since(t0).Seconds() / float64(reps)
						per[s] = append(per[s], t[s])
					}
					if t[1] < t[0] {
						wins++
					}
				}
				med := func(v []float64) float64 { slices.Sort(v); return v[len(v)/2] }
				b.ReportMetric(med(per[1])/med(per[0]), "x-narrower")
				b.ReportMetric(float64(wins)/float64(b.N), "wins")
				b.ReportMetric(flops/med(per[1])/1e9, "GFLOP/s")
			})
		}
	}
}

// typeName names the element type of a benchmark case.
func typeName(f32 bool) string {
	if f32 {
		return "float32"
	}
	return "float64"
}

// benchKernel times run and reports its GFLOP/s beside the peak.
func benchKernel(b *testing.B, peak, flops float64, run func()) {
	run()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run()
	}
	g := flops * float64(b.N) / b.Elapsed().Seconds() / 1e9
	b.ReportMetric(g, "GFLOP/s")
	b.ReportMetric(peak, "peak-GFLOP/s")
	b.ReportMetric(g/peak, "of-peak")
}
