package sched

import (
	"fmt"
	"testing"
	"time"
)

// busy runs n dependent multiply-adds and returns the result, so the
// compiler cannot drop the loop.
func busy(n int) float64 {
	x := 1.0
	for i := 0; i < n; i++ {
		x = x*0.999999 + 1e-6
	}
	return x
}

// busyPerMicro is how many busy iterations take about a microsecond,
// measured once per benchmark run on the machine running it.
func busyPerMicro() int {
	const n = 1 << 22
	best := time.Duration(1 << 62)
	for range 3 {
		start := time.Now()
		sinkF = busy(n)
		best = min(best, time.Since(start))
	}
	return max(1, int(float64(n)/(float64(best)/float64(time.Microsecond))))
}

var sinkF float64

// fanOutRanger runs iters busy iterations per index; each index writes
// its own slot.
type fanOutRanger struct {
	iters int
	out   [4]float64
}

func (r *fanOutRanger) RunRange(lo, hi int) {
	for i := lo; i < hi; i++ {
		r.out[i] = busy(r.iters)
	}
}

// BenchmarkForEachFanOut times the stale step's pattern: back-to-back
// ForEach calls of four chunks, with about 3 µs of serial work between
// calls, at chunk sizes from empty to about 600 µs. Every iteration runs a
// block of fanOutBlock such calls once serially on the caller and once
// through the pool, so host drift reaches both alike. It reports chunk-us,
// the measured serial time of one chunk, and x-serial, the serial time
// over the pooled one: 1.0 means the pool's other workers added nothing,
// and a fan-out of four chunks on two workers gains at most 2×.
//
//	go test -run '^$' -bench ForEachFanOut -cpu 2 ./internal/sched
func BenchmarkForEachFanOut(b *testing.B) {
	const fanOutBlock, gapMicros = 16, 3
	perMicro := busyPerMicro()
	for _, micros := range []int{0, 5, 20, 75, 150, 600} {
		b.Run(fmt.Sprintf("chunk_us=%d", micros), func(b *testing.B) {
			p := NewPool(0)
			defer p.Close()
			r := &fanOutRanger{iters: micros * perMicro}
			gap := gapMicros * perMicro
			var serial, pooled, gaps time.Duration
			for range b.N {
				t0 := time.Now()
				for range fanOutBlock {
					sinkF = busy(gap)
				}
				t1 := time.Now()
				for range fanOutBlock {
					r.RunRange(0, 4)
					sinkF = busy(gap)
				}
				t2 := time.Now()
				for range fanOutBlock {
					p.ForEach(4, 4, r)
					sinkF = busy(gap)
				}
				t3 := time.Now()
				gaps += t1.Sub(t0)
				serial += t2.Sub(t1)
				pooled += t3.Sub(t2)
			}
			b.ReportMetric(float64(serial-gaps)/float64(4*fanOutBlock*b.N)/1e3, "chunk-us")
			b.ReportMetric(float64(serial)/float64(pooled), "x-serial")
		})
	}
}
