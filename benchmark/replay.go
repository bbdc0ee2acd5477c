package main

import (
	"math/rand"
	"runtime"
	"time"

	"repro/internal/kfac"
	"repro/internal/linalg"
	"repro/internal/tensor"
)

// replayKernels calls the tensor and linalg kernels directly, after the
// timed phase, at the shapes of the workload's largest K-FAC layer, and
// reports time per call and computed GFLOP/s (operation counts from the
// shapes; no roofline ratio, no peak was measured).
func replayKernels(m metricSet, w workload, refs []kfac.FactorRef, o runOpts) {
	// refs is layer-major, A before G. The largest layer is the one whose
	// preconditioning GEMMs (dG×dA · dA×dA) cost the most.
	var dA, dG, dMax int
	for i := 0; i+1 < len(refs); i += 2 {
		a, g := refs[i].Dim, refs[i+1].Dim
		if g*a*a > dG*dA*dA {
			dA, dG = a, g
		}
		dMax = max(dMax, a, g)
	}
	budget := 150 * time.Millisecond
	if o.smoke {
		budget = 0
	}
	rng := rand.New(rand.NewSource(o.seed))

	// tensor: the preconditioning GEMM, f64 and f32.
	g64, q64, dst64 := tensor.Randn(rng, 1, dG, dA), tensor.Randn(rng, 1, dA, dA), tensor.New(dG, dA)
	gemmFLOPs := 2 * float64(dG) * float64(dA) * float64(dA)
	t := timeCalls(budget, func() { tensor.MatMulInto(dst64, g64, q64) })
	m.set("tensor.gemm_ms_per_call", t*1e3)
	m.set("tensor.gemm_gflops", gemmFLOPs/t/1e9)
	g32, q32, dst32 := tensor.NewT32(dG, dA), tensor.NewT32(dA, dA), tensor.NewT32(dG, dA)
	g32.NarrowFrom(g64)
	q32.NarrowFrom(q64)
	t = timeCalls(budget, func() { tensor.MatMulInto32(dst32, g32, q32) })
	m.set("tensor.gemm32_gflops", gemmFLOPs/t/1e9)

	// tensor: im2col of a stage-1 3×3 convolution on one batch.
	x := tensor.Randn(rng, 1, w.Batch, w.Width, w.Input, w.Input)
	cols := tensor.New(w.Batch*w.Input*w.Input, w.Width*9)
	t = timeCalls(budget, func() { tensor.Im2ColInto(cols, x, 3, 3, 1, 1) })
	m.set("tensor.im2col_ms_per_call", t*1e3)

	// linalg: the A-factor Gram at that layer's sample shape (one row per
	// batch element and output position; the widest layer sits in the last
	// stage, at a quarter of the input resolution). SymMul does half the
	// products of a general GEMM.
	rows := w.Batch * max(w.Input/4, 1) * max(w.Input/4, 1)
	s64, gram64 := tensor.Randn(rng, 1, rows, dA), tensor.New(dA, dA)
	symFLOPs := float64(rows) * float64(dA) * float64(dA)
	t = timeCalls(budget, func() { linalg.SymMulT1Into(gram64, s64) })
	m.set("linalg.symmul_gflops", symFLOPs/t/1e9)
	s32, gram32 := tensor.NewT32(rows, dA), tensor.NewT32(dA, dA)
	s32.NarrowFrom(s64)
	t = timeCalls(budget, func() { linalg.SymMulT1Into32(gram32, s32) })
	m.set("linalg.symmul32_gflops", symFLOPs/t/1e9)

	// linalg: the blocked eigensolver at the largest factor dimension, on a
	// team of GOMAXPROCS workers.
	big := tensor.Randn(rng, 1, dMax+8, dMax)
	spd := linalg.SymMulT1(big)
	var eg linalg.Eigen
	t = timeCalls(2*budget, func() {
		if err := linalg.SymEigBlockedInto(spd, &eg, runtime.GOMAXPROCS(0)); err != nil {
			panic(err) // a finite symmetric matrix: only a solver bug gets here
		}
	})
	m.set("linalg.eig_ms_dim_max", t*1e3)
	m.set("linalg.eig_gflops_dim_max", linalg.EigFLOPs(dMax)/t/1e9)
}

// timeCalls calls fn once to warm up, then at least three times and until
// budget is spent, and returns the median seconds per call.
func timeCalls(budget time.Duration, fn func()) float64 {
	fn()
	var secs []float64
	for start := time.Now(); len(secs) < 3 || time.Since(start) < budget; {
		t0 := time.Now()
		fn()
		secs = append(secs, time.Since(t0).Seconds())
	}
	return median(secs)
}
