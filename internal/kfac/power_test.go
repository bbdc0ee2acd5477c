package kfac

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"repro/internal/linalg"
	"repro/internal/nn"
)

// stepTiers steps p n times on runStagesStep data and returns, per step,
// "full", "power" or "" (no decomposition update), read from the
// counters the step moved.
func stepTiers(t *testing.T, net *nn.Sequential, p *Preconditioner, n int) []string {
	t.Helper()
	tiers := make([]string, n)
	for i := range tiers {
		before := p.Stats().Snapshot()
		runStagesStep(net, int64(700+i))
		if err := p.Step(0.1); err != nil {
			t.Fatal(err)
		}
		after := p.Stats().Snapshot()
		full, pow := after.FullSolves-before.FullSolves, after.PowerRefreshes-before.PowerRefreshes
		switch {
		case full > 0 && pow > 0:
			t.Fatalf("step %d mixed the tiers: %d full solves, %d power refreshes", i, full, pow)
		case full > 0:
			tiers[i] = "full"
		case pow > 0:
			tiers[i] = "power"
		}
	}
	return tiers
}

// wantTiers is the tier schedule of maxBasisAge: an update every invFreq
// steps, a full solve at step 0 and whenever the last one is maxBasisAge
// steps old (every step when exact), a power refresh otherwise.
func wantTiers(n, invFreq int, exact bool) []string {
	want := make([]string, n)
	fullAt := 0
	for i := 0; i < n; i += invFreq {
		if i == 0 || exact || i-fullAt >= maxBasisAge {
			want[i], fullAt = "full", i
		} else {
			want[i] = "power"
		}
	}
	return want
}

// TestPowerTierSchedule: the refresh tier is a function of the step
// counter alone. At an update interval of 5 a full solve runs every fourth
// update; at 50, like stale_w1, every update stays a full solve; under
// ExactRefresh every update is one. Every owned factor of a step takes the
// step's tier.
func TestPowerTierSchedule(t *testing.T) {
	for _, c := range []struct {
		invFreq int
		exact   bool
	}{{5, false}, {3, false}, {50, false}, {5, true}} {
		net := buildStagesNet(42)
		p := NewFromOptions(net, nil, Options{FactorUpdateFreq: 1, InvUpdateFreq: c.invFreq})
		if c.exact {
			ExactRefresh(p)
		}
		got := stepTiers(t, net, p, 101)
		if want := wantTiers(101, c.invFreq, c.exact); !slices.Equal(got, want) {
			t.Errorf("interval %d exact=%v: tiers %q, want %q", c.invFreq, c.exact, got, want)
		}
		snap := p.Stats().Snapshot()
		if factors := 2 * len(p.states); (snap.FullSolves+snap.PowerRefreshes)%factors != 0 {
			t.Errorf("interval %d: %d full + %d power is not a whole number of updates over %d factors",
				c.invFreq, snap.FullSolves, snap.PowerRefreshes, factors)
		}
	}
}

// TestPowerTierSameOnEveryRank: on four ranks under both distribution
// modes, every rank takes the same tier at the same step without
// communicating about it, each rank's counters cover exactly the factors
// the plan placed on it, and every rank ends with the same combined
// gradients.
func TestPowerTierSameOnEveryRank(t *testing.T) {
	const world, steps, invFreq = 4, 45, 2
	for _, mode := range []DistMode{CommOpt, MemOpt} {
		tiers := make([][]string, world)
		owned := make([]int, world)
		counts := make([]int, world)
		grads := make([][]float64, world)
		inWorld(t, world, Options{FactorUpdateFreq: 1, InvUpdateFreq: invFreq, DistMode: mode}, buildStagesNet,
			func(r int, net *nn.Sequential, p *Preconditioner) {
				tiers[r] = stepTiers(t, net, p, steps)
				for _, ref := range p.FactorRefs() {
					if p.states[ref.Layer].side(ref.IsG).owner == r {
						owned[r]++
					}
				}
				snap := p.Stats().Snapshot()
				counts[r] = snap.FullSolves + snap.PowerRefreshes
				for _, l := range nn.CapturableLayers(net) {
					grads[r] = append(grads[r], combinedGradOf(l).Data...)
				}
			})
		want := wantTiers(steps, invFreq, false)
		updates := (steps + invFreq - 1) / invFreq
		for r := 0; r < world; r++ {
			if owned[r] > 0 && !slices.Equal(tiers[r], want) {
				t.Errorf("%v rank %d: tiers %q, want %q", mode, r, tiers[r], want)
			}
			if counts[r] != owned[r]*updates {
				t.Errorf("%v rank %d: %d refreshes counted, want %d owned factors × %d updates",
					mode, r, counts[r], owned[r], updates)
			}
			if !slices.Equal(grads[r], grads[0]) {
				t.Errorf("%v rank %d: combined gradients differ from rank 0's", mode, r)
			}
		}
	}
}

// TestPowerRefreshMatchesFullSolve: right after a full solve, a power
// refresh of the same factors reads back the solve's eigenvalues in
// descending order, and rebuilds the factor from its new basis, both up to
// round-off.
func TestPowerRefreshMatchesFullSolve(t *testing.T) {
	net := buildWideNet(96)
	p := NewFromOptions(net, nil, Options{FactorUpdateFreq: 1, InvUpdateFreq: 1})
	runWideStep(net, 505, 8)
	if err := p.Step(0.1); err != nil {
		t.Fatal(err)
	}
	p.power = true
	for i, s := range p.states {
		for _, isG := range factorSides {
			f := s.side(isG)
			v0 := slices.Clone((*f.eig).Values)
			slices.Reverse(v0)
			if err := p.decompose(s, isG); err != nil {
				t.Fatal(err)
			}
			what := fmt.Sprintf("layer %d %s", i, sideName(isG))
			a, eg := *f.factor, *f.eig
			norm := math.Sqrt(a.Dot(a)) // ‖A‖_F
			for j, v := range eg.Values {
				if d := math.Abs(v - v0[j]); d > 1e-10*norm {
					t.Fatalf("%s: value %d = %v, full solve %v (|Δ| %.3g, ‖A‖_F %.3g)", what, j, v, v0[j], d, norm)
				}
			}
			n := len(eg.Values)
			for r := range n {
				for c := range n {
					x := 0.0
					for k, l := range eg.Values {
						x += eg.Q.Data[r*n+k] * l * eg.Q.Data[c*n+k]
					}
					if d := math.Abs(x - a.Data[r*n+c]); d > 1e-10*norm {
						t.Fatalf("%s: (QΛQᵀ)[%d,%d] = %v, factor %v", what, r, c, x, a.Data[r*n+c])
					}
				}
			}
		}
	}
}

// TestPowerRefreshFallsBackToFullSolve: a factor whose refreshed values
// are not finite takes the full solve instead, so its basis is rebuilt and
// equals a fresh solve of the factor bit for bit; a factor the full solve
// refuses too (a NaN, entries at math.MaxFloat64) fails the update and
// keeps its previous decomposition.
func TestPowerRefreshFallsBackToFullSolve(t *testing.T) {
	net := buildWideNet(97)
	p := NewFromOptions(net, nil, Options{FactorUpdateFreq: 1, InvUpdateFreq: 1})
	runWideStep(net, 506, 8)
	if err := p.Step(0.1); err != nil {
		t.Fatal(err)
	}
	p.power = true
	s := p.states[0] // the 257-dim A factor: the blocked solver
	s.eigA.Q.Data[0] = 1e300
	before := p.Stats().Snapshot()
	if err := p.decompose(s, false); err != nil {
		t.Fatal(err)
	}
	after := p.Stats().Snapshot()
	if after.FullSolves != before.FullSolves+1 || after.PowerRefreshes != before.PowerRefreshes {
		t.Errorf("counters moved full %d→%d, power %d→%d; want one full solve",
			before.FullSolves, after.FullSolves, before.PowerRefreshes, after.PowerRefreshes)
	}
	want := &linalg.Eigen{}
	if err := linalg.SymEigBlockedInto(s.A, want, 1); err != nil {
		t.Fatal(err)
	}
	clampEigen(want)
	wantSameBits(t, "fallback basis", s.eigA.Q, want.Q)
	if !slices.Equal(s.eigA.Values, want.Values) {
		t.Error("fallback eigenvalues differ from a fresh full solve")
	}
	checkDecomposeFailureKeepsEigen(t, p)
}

// TestKFACStepSteadyStateZeroAllocsPower extends the allocation guard to
// the power refresh: refreshing every factor of a net whose largest
// factor spans five row panels allocates nothing, and a Step that takes the
// power tier allocates exactly what one that takes the full solve does —
// the update graph's own bookkeeping, not the tier's.
func TestKFACStepSteadyStateZeroAllocsPower(t *testing.T) {
	stepAllocs := func(exact bool) (float64, *Preconditioner) {
		net := buildWideNet(98)
		p := NewFromOptions(net, nil, Options{FactorUpdateFreq: 1 << 30, InvUpdateFreq: 1})
		if exact {
			ExactRefresh(p)
		}
		runWideStep(net, 507, 8)
		for i := 0; i < 3; i++ {
			if err := p.Step(0.1); err != nil {
				t.Fatal(err)
			}
		}
		// Steps 3–13 are inside the basis age, so all take one tier.
		return testing.AllocsPerRun(10, func() {
			if err := p.Step(0.1); err != nil {
				t.Fatal(err)
			}
		}), p
	}
	pow, p := stepAllocs(false)
	full, _ := stepAllocs(true)
	if snap := p.Stats().Snapshot(); snap.FullSolves != 4 {
		t.Fatalf("%d full solves in the power run, want step 0's 4", snap.FullSolves)
	}
	if pow != full {
		t.Errorf("a power refresh Step allocated %.1f times per run, a full-solve one %.1f", pow, full)
	}
	p.power = true
	allocs := testing.AllocsPerRun(20, func() {
		for _, s := range p.states {
			for _, isG := range factorSides {
				if err := p.decompose(s, isG); err != nil {
					t.Fatal(err)
				}
			}
		}
	})
	if allocs != 0 {
		t.Errorf("power refresh of every factor allocated %.1f times per run, want 0", allocs)
	}
}
