package kfac

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"repro/internal/comm"
	"repro/internal/nn"
	"repro/internal/tensor"
)

// deepNetDims are the layer widths of buildDeepNet: ten Linear layers, as
// many K-FAC layers as the benchmark's dist_* net. At world 4 under the
// default round-robin placement the G owners — the per-iteration broadcast
// roots — alternate between ranks 1 and 3: two buckets of five layers.
var deepNetDims = []int{6, 5, 7, 4, 6, 4, 5, 6, 4, 7, 4}

// buildDeepNet returns a ten-layer MLP (bias everywhere).
func buildDeepNet(seed int64) *nn.Sequential {
	rng := rand.New(rand.NewSource(seed))
	var layers []nn.Layer
	for i := 0; i+1 < len(deepNetDims); i++ {
		if i > 0 {
			layers = append(layers, nn.NewReLU(fmt.Sprint("relu", i)))
		}
		layers = append(layers, nn.NewLinear(fmt.Sprint("fc", i), deepNetDims[i], deepNetDims[i+1], true, rng))
	}
	return nn.NewSequential("deep", layers...)
}

// runDeepStep performs one forward/backward on deterministic data.
func runDeepStep(net *nn.Sequential, seed int64, batch int) {
	rng := rand.New(rand.NewSource(seed))
	x := tensor.Randn(rng, 1, batch, deepNetDims[0])
	labels := make([]int, batch)
	for i := range labels {
		labels[i] = rng.Intn(deepNetDims[len(deepNetDims)-1])
	}
	out := net.Forward(x, true)
	_, grad := nn.CrossEntropy{}.Loss(out, labels)
	nn.ZeroGrads(net)
	net.Backward(grad)
}

// deepWorld runs fn on every rank of an in-process world over counting
// endpoints, each rank with its own deep net and preconditioner.
func deepWorld(t *testing.T, world int, opts Options, fn func(r int, net *nn.Sequential, p *Preconditioner, end *countingEndpoint)) {
	t.Helper()
	fab := comm.NewInprocFabric(world)
	var wg sync.WaitGroup
	for r := 0; r < world; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			end := &countingEndpoint{Transport: fab.Endpoint(r)}
			net := buildDeepNet(42)
			p := NewFromOptions(net, comm.NewCommunicator(end), opts)
			defer p.Close()
			fn(r, net, p, end)
		}(r)
	}
	wg.Wait()
}

// TestPreconditionOneBroadcastPerRoot: on a stale step of a partial plan the
// only traffic is the preconditioned-gradient broadcast, and it is one
// binomial tree per bucket — per (root, member set) — not one per layer: the
// world sends exactly Σ_buckets (members − 1) messages, and every rank
// receives, once, the Σ dg·da·8 bytes of each bucket it is a non-root member
// of. The expectation is derived from the plan, not from the bucket list.
func TestPreconditionOneBroadcastPerRoot(t *testing.T) {
	const world = 4
	for _, tc := range []struct {
		name string
		mode DistMode
		frac float64
		// members is the broadcast group size: the root plus every rank that
		// is not a gradient worker.
		members int
	}{
		{"MEM-OPT", MemOpt, 0, 4},
		{"HYBRID-0.5", Hybrid, 0.5, 3},
	} {
		for _, engine := range []Engine{EngineSync, EnginePipelined} {
			var mu sync.Mutex
			var sends int64
			recv, wantRecv := make([]int64, world), make([]int64, world)
			wantSends := int64(0)
			deepWorld(t, world, Options{
				DistMode: tc.mode, GradWorkerFrac: tc.frac, Engine: engine,
				FactorUpdateFreq: 1 << 30, InvUpdateFreq: 1 << 30,
			}, func(r int, net *nn.Sequential, p *Preconditioner, end *countingEndpoint) {
				for i := 0; i < 3; i++ { // step 0 updates; 1 and 2 are stale
					runDeepStep(net, int64(100+i), 4)
					s0, r0 := end.sends.Load(), end.recvBytes.Load()
					if err := p.Step(0.1); err != nil {
						t.Errorf("%s rank %d step %d: %v", tc.name, r, i, err)
						return
					}
					if i < 2 {
						continue
					}
					mu.Lock()
					sends += end.sends.Load() - s0
					recv[r] = end.recvBytes.Load() - r0
					mu.Unlock()
				}
				// Expectation from the plan: layers sharing a root share its
				// member set and form one broadcast.
				plan := p.Plan()
				roots := map[int]bool{}
				for i := 0; i < plan.NumLayers(); i++ {
					root, members := plan.GradRoot(i), plan.Layers[i].BcastMembers
					if len(members) != tc.members {
						t.Errorf("%s layer %d: %d broadcast members, want %d", tc.name, i, len(members), tc.members)
					}
					da, dg := FactorDims(p.states[i].layer)
					if root != r && containsSorted(members, r) {
						wantRecv[r] += int64(8 * dg * da)
					}
					if r == 0 && !roots[root] {
						roots[root] = true
						wantSends += int64(len(members) - 1)
					}
				}
				if r == 0 && len(roots) != 2 {
					t.Errorf("%s: %d roots, want 2 (the test net no longer splits into two buckets)", tc.name, len(roots))
				}
			})
			if t.Failed() {
				return
			}
			if sends != wantSends {
				t.Errorf("%s %v: stale step sent %d messages, want %d (one tree per root)", tc.name, engine, sends, wantSends)
			}
			for r := range recv {
				if recv[r] != wantRecv[r] {
					t.Errorf("%s %v rank %d: received %d bytes, want %d", tc.name, engine, r, recv[r], wantRecv[r])
				}
			}
		}
	}
}

// expectedFactorMemBytes is the resident factor state of one rank after
// warm-up (≥ 2 decomposition updates, ≥ 1 precondition), from dimensions
// and the plan alone — the value factorMemBytes had before the per-layer
// preconditioned-gradient buffers became views of bucket backings, which
// must not have changed it. Linear layers with bias, EigenMode, float64.
func expectedFactorMemBytes(plan *Plan, rank, batch int) int64 {
	var elems int64
	for i := 0; i+1 < len(deepNetDims); i++ {
		da, dg := int64(deepNetDims[i]+1), int64(deepNetDims[i+1])
		elems += 2 * (da*da + dg*dg) // A, G and their covariance scratch
		elems += int64(batch) * da   // bias-augmented sample matrix
		elems += 2 * dg * da         // combined gradient + preconditioned gradient
		if plan.IsGradWorker(i, rank) {
			elems += 2 * dg * da // the two rotation intermediates
		}
		for _, isG := range factorSides {
			n, owner := da, plan.Layers[i].AOwner
			if isG {
				n, owner = dg, plan.Layers[i].GOwner
			}
			if containsSorted(plan.Recipients(i, isG), rank) {
				elems += n*n + n // eigenbasis + eigenvalues
			}
			if owner == rank {
				elems += n*n + n // the owner's double-buffer spare
			}
		}
	}
	return 8 * elems
}

// TestPreconditionBucketsAreViews: under a partial plan every layer's pcBuf
// is a capacity-limited view of its bucket's backing at the layer's offset,
// the buckets partition one Σ dg·da backing, the views add no resident
// memory over the per-layer buffers they replace, at world 4 and at an odd
// world 3.
func TestPreconditionBucketsAreViews(t *testing.T) {
	const batch = 4
	checkViews := func(t *testing.T, p *Preconditioner, rank int) {
		t.Helper()
		total, covered := 0, 0
		seen := make([]bool, len(p.states))
		for b, bk := range p.pcBuckets {
			if b > 0 && bk.layers[0] < p.pcBuckets[b-1].layers[0] {
				t.Errorf("rank %d: bucket %d starts at layer %d, before bucket %d: not first-layer order", rank, b, bk.layers[0], b-1)
			}
			if &bk.backing[0] != &p.pcBacking[covered] || cap(bk.backing) != len(bk.backing) {
				t.Errorf("rank %d bucket %d: backing is not the next capacity-limited stretch of pcBacking", rank, b)
			}
			off := 0
			for _, i := range bk.layers {
				s := p.states[i]
				da, dg := FactorDims(s.layer)
				if p.plan.GradRoot(i) != bk.root {
					t.Errorf("rank %d layer %d: root %d in a bucket of root %d", rank, i, p.plan.GradRoot(i), bk.root)
				}
				if s.pcBuf.Rows() != dg || s.pcBuf.Cols() != da || cap(s.pcBuf.Data) != dg*da {
					t.Errorf("rank %d layer %d: pcBuf shape %v cap %d, want [%d %d] cap %d", rank, i, s.pcBuf.Shape, cap(s.pcBuf.Data), dg, da, dg*da)
				}
				if &s.pcBuf.Data[0] != &bk.backing[off] {
					t.Errorf("rank %d layer %d: pcBuf does not alias bucket %d's backing at offset %d", rank, i, b, off)
				}
				off += dg * da
				seen[i] = true
			}
			if off != len(bk.backing) {
				t.Errorf("rank %d bucket %d: layers cover %d of %d backing values", rank, b, off, len(bk.backing))
			}
			covered += off
		}
		for i, s := range p.states {
			da, dg := FactorDims(s.layer)
			total += dg * da
			if !seen[i] {
				t.Errorf("rank %d layer %d is in no bucket", rank, i)
			}
		}
		if covered != total || len(p.pcBacking) != total {
			t.Errorf("rank %d: buckets cover %d values of a %d-value backing, want Σ dg·da = %d", rank, covered, len(p.pcBacking), total)
		}
	}
	for _, world := range []int{4, 3} {
		deepWorld(t, world, Options{DistMode: MemOpt, FactorUpdateFreq: 1, InvUpdateFreq: 1}, func(r int, net *nn.Sequential, p *Preconditioner, _ *countingEndpoint) {
			checkViews(t, p, r) // carved at construction, before any step
			for i := 0; i < 3; i++ {
				runDeepStep(net, int64(200+i), batch)
				if err := p.Step(0.1); err != nil {
					t.Errorf("world %d rank %d: %v", world, r, err)
					return
				}
			}
			checkViews(t, p, r) // tensor.Ensure kept reusing the views
			if got, want := p.factorMemBytes(), expectedFactorMemBytes(p.Plan(), r, batch); got != want {
				t.Errorf("world %d rank %d: factorMemBytes %d after warm-up, want %d from dims (what the per-layer buffers occupied)", world, r, got, want)
			}
		})
	}
}

// TestAveragedFactorsBitwiseSymmetric: factors travel as packed upper
// triangles and are mirrored on landing, so every averaged factor is
// bitwise symmetric on every rank (and, as before, bitwise equal across
// ranks), at any world size and under both schedules. With the dense n²
// payload this did not hold for p ≥ 3: A[i,j] and A[j,i] could land in
// different ring chunks, whose sums accumulate in different rank orders.
// This test, run at the commit before the packing, failed at its first
// cell — world 3, sync, rank 0, layer 0, A: [0,90] = -0.09407381073992332
// but [90,0] = -0.0940738107399233.
func TestAveragedFactorsBitwiseSymmetric(t *testing.T) {
	for _, world := range []int{3, 4} {
		for _, engine := range []Engine{EngineSync, EnginePipelined} {
			fab := comm.NewInprocFabric(world)
			factors := make([][]*tensor.Tensor, world)
			var wg sync.WaitGroup
			for r := 0; r < world; r++ {
				wg.Add(1)
				go func(r int) {
					defer wg.Done()
					net := buildWideNet(31)
					p := NewFromOptions(net, comm.NewCommunicator(fab.Endpoint(r)), Options{
						Engine: engine, FactorUpdateFreq: 1, InvUpdateFreq: 1,
					})
					defer p.Close()
					for i := 0; i < 2; i++ {
						// Every rank sees its own data: the averages are real sums.
						runWideStep(net, int64(1000*r+i), 8)
						if err := p.Step(0.1); err != nil {
							t.Errorf("world %d rank %d: %v", world, r, err)
							return
						}
					}
					for _, s := range p.states {
						factors[r] = append(factors[r], s.A, s.G)
					}
				}(r)
			}
			wg.Wait()
			if t.Failed() {
				return
			}
			for r := range factors {
				for k, f := range factors[r] {
					n := f.Rows()
					for i := 0; i < n; i++ {
						for j := i + 1; j < n; j++ {
							if math.Float64bits(f.Data[i*n+j]) != math.Float64bits(f.Data[j*n+i]) {
								t.Fatalf("world %d %v rank %d layer %d %s: [%d,%d] = %v but [%d,%d] = %v",
									world, engine, r, k/2, sideName(k%2 == 1), i, j, f.Data[i*n+j], j, i, f.Data[j*n+i])
							}
						}
					}
					if !f.Equal(factors[0][k], 0) {
						t.Errorf("world %d %v layer %d %s: rank %d differs bitwise from rank 0", world, engine, k/2, sideName(k%2 == 1), r)
					}
				}
			}
		}
	}
}

// memOptStaleStepMallocs measures the heap allocations of one stale
// MEM-OPT step of the whole in-process world (all ranks, their collective
// goroutines and the transport's message copies), averaged over a window.
func memOptStaleStepMallocs(t *testing.T, world int) float64 {
	t.Helper()
	const window = 20
	var before, after runtime.MemStats
	var bar sync.WaitGroup
	gate := make(chan struct{})
	bar.Add(world)
	deepWorld(t, world, Options{DistMode: MemOpt, FactorUpdateFreq: 1 << 30, InvUpdateFreq: 1 << 30},
		func(r int, net *nn.Sequential, p *Preconditioner, _ *countingEndpoint) {
			runDeepStep(net, 400, 4)
			for i := 0; i < 3; i++ { // update, then settle every workspace
				if err := p.Step(0.1); err != nil {
					t.Errorf("rank %d: %v", r, err)
				}
			}
			bar.Done()
			if r == 0 {
				bar.Wait()
				runtime.ReadMemStats(&before)
				close(gate)
			}
			<-gate
			for i := 0; i < window; i++ {
				if err := p.Step(0.1); err != nil {
					t.Errorf("rank %d: %v", r, err)
				}
			}
		})
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / window
}

// TestMemOptStaleStepAllocs guards the per-step allocations of a world-4
// in-process MEM-OPT stale step. They are per message (the transport's
// payload copy and its mailbox entry) plus, now, per asynchronous broadcast
// (a handle and its goroutine closure on every member rank). With one
// blocking broadcast per layer — ten three-message trees — the step cost
// 60.5 allocations, measured with this function at the commit before the
// buckets; two bucket trees cost 28 (6 messages × 2 + 8 handles × 2). The
// bound sits between the two, with room for runtime noise above the 28.
func TestMemOptStaleStepAllocs(t *testing.T) {
	const perLayerBroadcastAllocs = 60.5
	got := memOptStaleStepMallocs(t, 4)
	if t.Failed() {
		return
	}
	t.Logf("world-4 MEM-OPT stale step: %.1f allocations", got)
	if got > perLayerBroadcastAllocs*0.6 {
		t.Errorf("world-4 MEM-OPT stale step allocates %.1f times, want well under the %.1f of one broadcast per layer", got, perLayerBroadcastAllocs)
	}
}
