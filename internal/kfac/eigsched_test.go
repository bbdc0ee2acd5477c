package kfac

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/linalg"
	"repro/internal/nn"
	"repro/internal/tensor"
)

// buildWideNet returns a net whose fc layer's A factor (257×257 with
// bias augmentation) crosses both the blocked-solver threshold and
// EigTeamMinDim, so the blocked path runs and offers its chunks to the
// whole pool.
func buildWideNet(seed int64) *nn.Sequential {
	rng := rand.New(rand.NewSource(seed))
	return nn.NewSequential("wide",
		nn.NewLinear("fc", 256, 8, true, rng),
		nn.NewReLU("relu"),
		nn.NewLinear("out", 8, 4, true, rng),
	)
}

// runWideStep performs one forward/backward on deterministic data.
func runWideStep(net *nn.Sequential, seed int64, batch int) {
	rng := rand.New(rand.NewSource(seed))
	x := tensor.Randn(rng, 1, batch, 256)
	labels := make([]int, batch)
	for i := range labels {
		labels[i] = rng.Intn(4)
	}
	out := net.Forward(x, true)
	ce := nn.CrossEntropy{}
	_, grad := ce.Loss(out, labels)
	nn.ZeroGrads(net)
	net.Backward(grad)
}

// granted reports whether a slot request's channel has been closed.
func granted(ch <-chan struct{}) bool {
	select {
	case <-ch:
		return true
	default:
		return false
	}
}

// replaySlots checks an eigSlots grant history — every granted ref released
// exactly once, after its grant — and returns the refs in grant order and
// the most slots held at once.
func replaySlots(t *testing.T, history []int) (grants []int, peak int) {
	t.Helper()
	held := map[int]bool{}
	for _, h := range history {
		ref := max(h, -h) - 1
		if h > 0 {
			if held[ref] {
				t.Fatalf("ref %d granted twice without a release: %v", ref, history)
			}
			held[ref] = true
			grants = append(grants, ref)
			peak = max(peak, len(held))
		} else {
			if !held[ref] {
				t.Fatalf("ref %d released without a grant: %v", ref, history)
			}
			delete(held, ref)
		}
	}
	if len(held) != 0 {
		t.Fatalf("slots still held after the update: %v (history %v)", held, history)
	}
	return grants, peak
}

// TestEigSlotsGrantLargestFirst: a free slot is granted at once; under
// contention each release hands its slot to the queued factor with the
// largest dimension, ties to the lower FactorRefs index — a late, larger
// arrival goes ahead, yet every queued request is granted in the end.
func TestEigSlotsGrantLargestFirst(t *testing.T) {
	s := newEigSlots(2)
	if !granted(s.acquire(64, 9)) || !granted(s.acquire(32, 8)) {
		t.Fatal("a request finding a free slot was not granted at once")
	}
	pending := map[int]<-chan struct{}{}
	for _, q := range []struct{ dim, ref int }{{108, 5}, {432, 7}, {216, 3}, {216, 1}, {108, 2}, {432, 4}} {
		pending[q.ref] = s.acquire(q.dim, q.ref)
	}
	// step releases one slot and checks it went to want alone.
	step := func(release, want int) {
		for ref, ch := range pending {
			if granted(ch) {
				t.Fatalf("ref %d granted while every slot was held", ref)
			}
		}
		s.release(release)
		for ref, ch := range pending {
			if got := granted(ch); got != (ref == want) {
				t.Fatalf("releasing ref %d: ref %d granted=%v, want only ref %d", release, ref, got, want)
			}
		}
		delete(pending, want)
	}
	step(9, 4)
	pending[11] = s.acquire(1024, 11) // a late, larger arrival
	for _, st := range [][2]int{{8, 11}, {4, 7}, {11, 1}, {7, 3}, {1, 2}, {3, 5}} {
		step(st[0], st[1])
	}
	s.release(2)
	s.release(5)
	if s.free != 2 || len(s.queue) != 0 {
		t.Fatalf("after every release: %d free slots, %d queued; want 2 and 0", s.free, len(s.queue))
	}
	replaySlots(t, s.history)
}

// heldAlongside reports whether, in the grant history h, some other factor
// held or was granted a slot while ref held its own: the slot rule's
// promise that a pool-wide solve holds one slot, not the pool. It reads
// only the recorded order, never how the goroutines interleaved.
func heldAlongside(h []int, ref int) bool {
	others, holding := 0, false
	for _, e := range h {
		switch {
		case e == ref+1:
			holding = true
		case e == -(ref + 1):
			return false
		case e > 0:
			others++
		default:
			others--
		}
		if holding && others > 0 {
			return true
		}
	}
	return false
}

// TestEigSlotsHeldAlongside is heldAlongside's table, for ref 0.
func TestEigSlotsHeldAlongside(t *testing.T) {
	for _, c := range []struct {
		name    string
		history []int
		want    bool
	}{
		// A 9-column solve held the second slot through the whole large
		// solve, and the next grant came after it: still work-conserving.
		{"other held throughout", []int{3, 4, -4, 1, -1, 2, -2, -3}, true},
		{"other granted during", []int{1, 2, -2, 3, -1, -3}, true},
		// Reserving the pool: nothing else runs while ref 0 holds a slot.
		{"pool reserved", []int{3, 4, -4, -3, 1, -1, 2, -2}, false},
		{"alone, others before and after", []int{2, -2, 1, -1, 3, -3}, false},
	} {
		if got := heldAlongside(c.history, 0); got != c.want {
			t.Errorf("%s %v: heldAlongside = %v, want %v", c.name, c.history, got, c.want)
		}
	}
}

// TestEigSlotsAreWorkConserving: at GOMAXPROCS 2 the wide net's 257-column
// factor is at least EigTeamMinDim wide, so its solve offers its chunks to
// the whole pool — yet it holds one slot, so under either schedule another
// factor holds or is granted the second slot while it runs (heldAlongside).
// Reserving the pool would leave the smaller factors waiting for the whole
// solve. Which factor holds that slot, and when it is granted, is the
// host's scheduling, so the test asserts neither.
func TestEigSlotsAreWorkConserving(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	runtime.GOMAXPROCS(2)
	for _, engine := range []Engine{EngineSync, EnginePipelined} {
		net := buildWideNet(98)
		prec := NewFromOptions(net, nil, Options{FactorUpdateFreq: 1, InvUpdateFreq: 1, Engine: engine})
		runWideStep(net, 507, 8)
		if err := prec.Step(0.1); err != nil {
			t.Fatal(err)
		}
		prec.Close()
		const big = 0 // FactorRefs index of the fc layer's 257-column A factor
		ref := prec.FactorRefs()[big]
		if ref.Dim < EigTeamMinDim {
			t.Fatalf("%v: factor %+v, want dim ≥ %d", engine, ref, EigTeamMinDim)
		}
		h := prec.eigSlots.history
		replaySlots(t, h)
		if !heldAlongside(h, big) {
			t.Errorf("%v: no other factor held a slot while the %d-column one ran: history %v", engine, ref.Dim, h)
		}
	}
}

// TestStepBitsIndependentOfGOMAXPROCS: GOMAXPROCS is the only input of the
// eig-parallelism rule — the wide net's 257-column A factor offers its solve
// to the whole pool — and the blocked solver is bitwise team-invariant, so
// no step may depend on it. Four refresh steps under either engine leave
// every combined gradient bit-equal after every Step at GOMAXPROCS 1, 2 and
// 4, and with the preconditioner built at one GOMAXPROCS and stepped at
// another — with steps 1–3 taking the power tier, and under
// ExactRefresh with every step a full solve.
func TestStepBitsIndependentOfGOMAXPROCS(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	// trace builds at GOMAXPROCS build, steps at step, and returns every
	// layer's combined gradient after each of the four Steps.
	trace := func(engine Engine, exact bool, build, step int) []*tensor.Tensor {
		runtime.GOMAXPROCS(build)
		net := buildWideNet(99)
		prec := NewFromOptions(net, nil, Options{FactorUpdateFreq: 1, InvUpdateFreq: 1, Engine: engine})
		defer prec.Close()
		if exact {
			ExactRefresh(prec)
		}
		runtime.GOMAXPROCS(step)
		var out []*tensor.Tensor
		for i := 0; i < 4; i++ {
			runWideStep(net, int64(600+i), 8)
			if err := prec.Step(0.1); err != nil {
				t.Fatal(err)
			}
			for _, l := range nn.CapturableLayers(net) {
				out = append(out, combinedGradOf(l))
			}
		}
		if snap := prec.Stats().Snapshot(); exact != (snap.PowerRefreshes == 0) {
			t.Fatalf("exact=%v: %d power refreshes", exact, snap.PowerRefreshes)
		}
		return out
	}
	for _, engine := range []Engine{EngineSync, EnginePipelined} {
		for _, exact := range []bool{false, true} {
			want := trace(engine, exact, 1, 1)
			for _, procs := range [][2]int{{2, 2}, {4, 4}, {1, 4}, {4, 1}, {2, 4}} {
				got := trace(engine, exact, procs[0], procs[1])
				for k := range want {
					wantSameBits(t, fmt.Sprintf("%v exact=%v built at %d, stepped at %d: gradient %d",
						engine, exact, procs[0], procs[1], k), got[k], want[k])
				}
			}
		}
	}
}

// TestEigSolverBlockedMatchesSerialOracle preconditions a wide net after a
// blocked decomposition step, then swaps in the serial oracle's
// decompositions (linalg.SymEigInto) of the same averaged factors and
// re-runs the precondition stages on the same combined gradient. The two
// solvers differ only in round-off, so the preconditioned gradients must
// agree far beyond what a wrong decomposition could survive.
func TestEigSolverBlockedMatchesSerialOracle(t *testing.T) {
	net := buildWideNet(91)
	prec := NewFromOptions(net, nil, Options{
		FactorUpdateFreq: 1, InvUpdateFreq: 1, Damping: 1e-3,
	})
	grads := make([][]*tensor.Tensor, 2)
	collect := func(i int) {
		for _, l := range nn.CapturableLayers(net) {
			for _, p := range l.Params() {
				grads[i] = append(grads[i], p.Grad.Clone())
			}
		}
	}
	runWideStep(net, 500, 8)
	if err := prec.Step(0.1); err != nil {
		t.Fatal(err)
	}
	collect(0)

	for _, s := range prec.states {
		for _, isG := range []bool{false, true} {
			f := s.side(isG)
			eg := &linalg.Eigen{}
			if err := linalg.SymEigInto(*f.factor, eg); err != nil {
				t.Fatal(err)
			}
			clampEigen(eg)
			*f.eig = eg
			s.k.refresh(isG)
		}
	}
	// Step wrote the preconditioned gradients back and changed no weight, so
	// the same data reproduces the combined gradient it started from.
	runWideStep(net, 500, 8)
	if err := prec.precondition(0.1); err != nil {
		t.Fatal(err)
	}
	collect(1)
	if len(grads[0]) == 0 || len(grads[0]) != len(grads[1]) {
		t.Fatalf("gradient sets differ in shape: %d vs %d", len(grads[0]), len(grads[1]))
	}
	for k := range grads[0] {
		for i := range grads[0][k].Data {
			b, s := grads[0][k].Data[i], grads[1][k].Data[i]
			scale := math.Max(1, math.Max(math.Abs(b), math.Abs(s)))
			if math.Abs(b-s) > 1e-8*scale {
				t.Fatalf("param %d elem %d: blocked %v vs serial %v", k, i, b, s)
			}
		}
	}
}

// TestEigStatsSurfaceKernels checks the decomposition stage's observability
// contract: after a decomposition update the stage stats carry the stage's
// wall time and, for blocked-path factors, nonzero per-kernel times.
func TestEigStatsSurfaceKernels(t *testing.T) {
	net := buildWideNet(92)
	prec := NewFromOptions(net, nil, Options{
		FactorUpdateFreq: 1, InvUpdateFreq: 1, Damping: 1e-3,
	})
	runWideStep(net, 501, 8)
	if err := prec.Step(0.1); err != nil {
		t.Fatal(err)
	}
	snap := prec.Stats().Snapshot()
	// The 257-dim A factor runs the blocked kernels; their times must land.
	if snap.EigTridiag <= 0 || snap.EigBackAccum <= 0 || snap.EigQL <= 0 {
		t.Fatalf("blocked kernel times not recorded: tridiag=%v reflectors=%v dc=%v",
			snap.EigTridiag, snap.EigBackAccum, snap.EigQL)
	}
	if snap.EigCompute <= 0 {
		t.Fatal("EigCompute wall time not recorded")
	}
}

// TestKFACStepSteadyStateZeroAllocsWide extends the allocation guard to a
// net whose factors take the blocked eigensolver path: the steady-state
// stale-decomposition Step must stay allocation-free with the blocked
// solver active (its workspaces come from linalg's workspace pool).
func TestKFACStepSteadyStateZeroAllocsWide(t *testing.T) {
	net := buildWideNet(94)
	prec := NewFromOptions(net, nil, Options{
		FactorUpdateFreq: 1 << 30, InvUpdateFreq: 1 << 30, Damping: 1e-3,
	})
	runWideStep(net, 503, 8)
	for i := 0; i < 3; i++ {
		if err := prec.Step(0.1); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(100, func() {
		if err := prec.Step(0.1); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("steady-state wide-net Step allocated %.1f times per run, want 0", allocs)
	}
}

// TestDecomposeFailurePreservesPreviousEigenBlocked is the same guard on the
// blocked path: layer 0's 257-dim A factor, where the finite overflow fails
// only after tridiagonalization.
func TestDecomposeFailurePreservesPreviousEigenBlocked(t *testing.T) {
	net := buildWideNet(95)
	p := NewFromOptions(net, nil, Options{FactorUpdateFreq: 1, InvUpdateFreq: 1})
	runWideStep(net, 504, 8)
	if err := p.Step(0.1); err != nil {
		t.Fatal(err)
	}
	checkDecomposeFailureKeepsEigen(t, p)
}
