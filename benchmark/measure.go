package main

import (
	"bufio"
	"context"
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/nn"
)

// median returns the middle value of xs (mean of the two middle values for
// an even count); 0 for an empty slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// percentile returns the nearest-rank p-th percentile of xs.
func percentile(xs []float64, p int) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := (p*len(s)+99)/100 - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

func mean(xs []float64) float64 { return per(sum(xs), float64(len(xs))) }

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

// quietCycles cuts a run's step times into consecutive cycles of n steps
// (one inverse-update cycle, so every cycle holds the same mix of step
// kinds) and returns the steps of the quietest quarter of the cycles — those
// with the least wall time. The reference host is shared: a neighbour slows
// stretches of a run by up to 2×, and that noise only ever adds time, so the
// quiet cycles are the ones that measured the program. The end-to-end
// timings are taken over these steps; the count is steps_kept.
func quietCycles(stepMS []float64, n int) []float64 {
	type cycle struct {
		steps []float64
		wall  float64
	}
	var cycles []cycle
	for i := 0; i+n <= len(stepMS); i += n {
		cycles = append(cycles, cycle{stepMS[i : i+n], sum(stepMS[i : i+n])})
	}
	sort.SliceStable(cycles, func(i, j int) bool { return cycles[i].wall < cycles[j].wall })
	var kept []float64
	for _, c := range cycles[:(len(cycles)+3)/4] {
		kept = append(kept, c.steps...)
	}
	return kept
}

// ms converts nanoseconds to milliseconds.
func ms(ns int64) float64 { return float64(ns) / 1e6 }

// per divides, returning 0 when the denominator is 0 (a stage that never
// ran on this workload).
func per(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// canarySink keeps the canary loop's result live.
var canarySink float64

// hostCanary times a fixed single-threaded scalar multiply-add recurrence.
// It calls no repo kernel, so no change to the program can move it: a
// difference between two canaries is the host, not the code.
func hostCanary() float64 {
	const iters = 80_000_000
	t0 := time.Now()
	x, a, b := 0.5, 0.999999, 1e-9
	for i := 0; i < iters; i++ {
		x = x*a + b
	}
	canarySink = x
	return ms(int64(time.Since(t0)))
}

// peakRSSMB reads the process's resident-set high-water mark (VmHWM).
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.Fields(rest)[0], 64)
			if err != nil {
				return 0, fmt.Errorf("VmHWM: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("VmHWM not found in /proc/self/status")
}

// cpuNS returns the process's user+system CPU time so far.
func cpuNS() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return ru.Utime.Nano() + ru.Stime.Nano()
}

// paramChecksum is the FNV-64a digest of every parameter's float64 bits, in
// Params() order. Same seed and unchanged arithmetic give the same digest.
func paramChecksum(net *nn.Sequential) uint64 {
	h := fnv.New64a()
	for _, p := range net.Params() {
		hashFloats(h, p.Value.Data)
	}
	return h.Sum64()
}

func hashFloats(h hash.Hash64, xs []float64) {
	var buf [8]byte
	for _, x := range xs {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(x))
		h.Write(buf[:])
	}
}

// barrier is a reusable rendezvous for the rank goroutines that stays
// outside the comm layer, so phase boundaries add nothing to the wire
// counters. Cancelling the context given to newBarrier releases every
// waiter with an error (a failed rank must not strand its peers).
type barrier struct {
	mu      sync.Mutex
	cond    *sync.Cond
	n       int
	waiting int
	gen     int
	ctx     context.Context
}

func newBarrier(ctx context.Context, n int) *barrier {
	b := &barrier{n: n, ctx: ctx}
	b.cond = sync.NewCond(&b.mu)
	context.AfterFunc(ctx, func() {
		b.mu.Lock()
		b.mu.Unlock() //nolint:staticcheck // orders the broadcast after any waiter entering Wait
		b.cond.Broadcast()
	})
	return b
}

func (b *barrier) wait() error {
	b.mu.Lock()
	defer b.mu.Unlock()
	gen := b.gen
	b.waiting++
	if b.waiting == b.n {
		b.waiting = 0
		b.gen++
		b.cond.Broadcast()
		return nil
	}
	for gen == b.gen {
		if err := b.ctx.Err(); err != nil {
			return err
		}
		b.cond.Wait()
	}
	return nil
}
