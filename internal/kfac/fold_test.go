package kfac

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/tensor"
)

// scaleThenLerp is the chain the factor fold replaced, kept as its oracle:
// mirror the Gram's upper triangle into the lower one, widen the whole
// matrix to float64, scale it, and fold it into avg as the running average
// t = a·t + (1−a)·o with 1−a rounded at float64 — or, on a factor's first
// update, write it.
func scaleThenLerp[E tensor.Elem](avg *tensor.Tensor, upper *tensor.Dense[E], scale float64, first bool) {
	n := avg.Rows()
	full := upper.Clone()
	for i := 0; i < n; i++ {
		for j := 0; j < i; j++ {
			full.Data[i*n+j] = full.Data[j*n+i]
		}
	}
	v := tensor.New(n, n)
	tensor.Convert(v, full)
	for i := range v.Data {
		v.Data[i] *= scale
	}
	if first {
		copy(avg.Data, v.Data)
		return
	}
	lerp(avg.Data, factorDecay, v.Data)
}

func lerp(t []float64, a float64, o []float64) {
	b := 1 - a
	for i := range t {
		t[i] = a*t[i] + b*o[i]
	}
}

// TestFactorFoldBitIdenticalToScaleThenLerp holds the factor fold to the
// chain it replaced, bit for bit: at both element types, at sizes around
// the tile edge and the pool floor, on a factor's first update and a later
// one, with ±0, subnormal and NaN entries in the Gram and in the running
// average, and at GOMAXPROCS 1, 2 and 4. The Gram is the upper product the
// covariance stage forms, its lower triangle left as garbage the fold must
// not read, with special values written over some upper entries.
func TestFactorFoldBitIdenticalToScaleThenLerp(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2, 4} {
		runtime.GOMAXPROCS(procs)
		for _, n := range []int{1, 31, 32, 33, 257, 432} {
			for _, first := range []bool{true, false} {
				what := fmt.Sprintf("GOMAXPROCS=%d n=%d first=%v", procs, n, first)
				checkFactorFold[float64](t, what+" float64", n, first)
				checkFactorFold[float32](t, what+" float32", n, first)
			}
		}
	}
}

func checkFactorFold[E tensor.Elem](t *testing.T, what string, n int, first bool) {
	t.Helper()
	rng := rand.New(rand.NewSource(int64(n)))
	const k = 5
	a := tensor.NewDense[E](k, n)
	for i := range a.Data {
		a.Data[i] = E(rng.NormFloat64())
	}
	cov := tensor.NewDense[E](n, n)
	for i := range cov.Data {
		cov.Data[i] = 12345 // below the diagonal this survives the product
	}
	tensor.MatMulT1UpperInto(cov, a)
	var e E
	subnormal := E(math.SmallestNonzeroFloat64)
	if _, f32 := any(e).(float32); f32 {
		subnormal = E(math.SmallestNonzeroFloat32)
	}
	special := []E{E(math.Copysign(0, -1)), 0, subnormal, -subnormal, E(math.NaN())}
	for s, v := range special {
		i := rng.Intn(n)
		j := i + rng.Intn(n-i)
		cov.Data[i*n+j] = v
		cov.Data[(s%n)*(n+1)] = v // on the diagonal too
	}
	avg := tensor.New(n, n)
	if !first {
		for i := 0; i < n; i++ {
			for j := i; j < n; j++ {
				setSym(avg, i, j, rng.NormFloat64())
			}
		}
		for _, v := range special {
			i := rng.Intn(n)
			setSym(avg, i, i+rng.Intn(n-i), float64(v))
		}
	}
	want := avg.Clone()
	const scale = 1.0 / 72
	scaleThenLerp(want, cov, scale, first)
	var f factorFold[E]
	f.run(avg, cov, scale, first)
	wantSameBits(t, what, avg, want)
}

// setSym writes v at (i, j) and (j, i) of the square m.
func setSym(m *tensor.Tensor, i, j int, v float64) {
	n := m.Rows()
	m.Data[i*n+j], m.Data[j*n+i] = v, v
}
