package kfac

import (
	"math"
	"reflect"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/comm"
	"repro/internal/tensor"
	"repro/internal/testenv"
)

// tuneTrace runs a p-rank chaos world with the given options for `steps`
// optimizer steps and returns each rank's recorded autotune decision
// sequence plus its final combined gradients.
func tuneTrace(t *testing.T, p int, chaos comm.ChaosConfig, opts Options, steps int) ([][]TuneDecision, [][]*tensor.Tensor) {
	t.Helper()
	decs := make([][]TuneDecision, p)
	grads := make([][]*tensor.Tensor, p)
	if p == 1 {
		decs[0], grads[0] = tuneRank(t, nil, opts, steps)
		return decs, grads
	}
	fab := comm.NewChaosFabric(comm.NewInprocFabric(p), p, chaos)
	var wg sync.WaitGroup
	for r := 0; r < p; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			decs[r], grads[r] = tuneRank(t, comm.NewCommunicator(fab.Endpoint(r)), opts, steps)
		}(r)
	}
	wg.Wait()
	return decs, grads
}

func tuneRank(t *testing.T, c *comm.Communicator, opts Options, steps int) ([]TuneDecision, []*tensor.Tensor) {
	t.Helper()
	net := buildTinyNet(42)
	prec := NewFromOptions(net, c, opts)
	defer prec.Close()
	for i := 0; i < steps; i++ {
		runStep(net, int64(1000+i), 4)
		if err := prec.Step(0.1); err != nil {
			t.Errorf("step %d: %v", i, err)
			return nil, nil
		}
	}
	var out []*tensor.Tensor
	for _, s := range prec.states {
		out = append(out, combinedGradOf(s.layer))
	}
	return prec.Stats().Snapshot().TuneDecisions, out
}

// sameDecisions compares two decision sequences with bit-exact float
// comparison — the consensus contract is bitwise, not approximate.
func sameDecisions(a, b []TuneDecision) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i].BandwidthBps) != math.Float64bits(b[i].BandwidthBps) ||
			math.Float64bits(a[i].DropRate) != math.Float64bits(b[i].DropRate) {
			return false
		}
		if !reflect.DeepEqual(a[i], b[i]) {
			return false
		}
	}
	return true
}

// TestAutotuneDecisionsDeterministicProperty is the determinism acceptance
// property: under randomized chaos schedules (latency jitter, droppy
// links), every rank of every world size 1–8, on either engine, must record
// the exact same autotune decision sequence — bit-identical consensus
// floats, same levels, same step boundaries — and the ranks' gradients must
// stay bit-identical to each other even as decisions switch codecs mid-run.
// World 1 (and nil-comm) runs assert the controller stays silent: there is
// no consensus partner, so the static configuration must never change.
func TestAutotuneDecisionsDeterministicProperty(t *testing.T) {
	steps := testenv.Scale(6, 4)
	prop := func(seed uint16, worldSel uint8, pipelined, droppy bool) bool {
		p := 1 + int(worldSel)%8
		chaos := comm.ChaosConfig{
			Seed:       int64(seed) + 1,
			MinLatency: 2 * time.Microsecond,
			MaxLatency: 150 * time.Microsecond,
		}
		if droppy {
			chaos.DropRate = 0.05
			chaos.MaxRetries = 50
		}
		opts := Options{FactorUpdateFreq: 1, InvUpdateFreq: 2, Autotune: &AutotuneConfig{}}
		if pipelined {
			opts.Engine = EnginePipelined
		}
		decs, grads := tuneTrace(t, p, chaos, opts, steps)
		if t.Failed() {
			return false
		}
		if p == 1 {
			return len(decs[0]) == 0
		}
		// One decision per factor update after the first, on every rank.
		if len(decs[0]) != steps-1 {
			t.Logf("world %d: %d decisions, want %d", p, len(decs[0]), steps-1)
			return false
		}
		for r := 1; r < p; r++ {
			if !sameDecisions(decs[0], decs[r]) {
				t.Logf("world %d seed %d: rank %d decisions diverge from rank 0:\n  r0: %+v\n  r%d: %+v",
					p, seed, r, decs[0], r, decs[r])
				return false
			}
			for i := range grads[0] {
				if !grads[0][i].Equal(grads[r][i], 0) {
					t.Logf("world %d seed %d: rank %d layer %d gradients diverge", p, seed, r, i)
					return false
				}
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: testenv.Scale(10, 4)}
	if err := quick.Check(prop, cfg); err != nil {
		t.Fatal(err)
	}
}

// TestAutotuneBandwidthCapForcesCompression: squeezing the chaos link to
// ~1 MB/s must drive the consensus bandwidth estimate below the float16
// band edge and land the controller on a compressed level — the
// degradation response the policy table exists for. The decision must also
// be marked Changed exactly when the level moves.
func TestAutotuneBandwidthCapForcesCompression(t *testing.T) {
	const p = 2
	const steps = 5
	chaos := comm.ChaosConfig{Seed: 7, BandwidthBps: 1 << 20}
	opts := Options{FactorUpdateFreq: 1, InvUpdateFreq: 2, Autotune: &AutotuneConfig{}}
	decs, _ := tuneTrace(t, p, chaos, opts, steps)
	if t.Failed() {
		t.FailNow()
	}
	if len(decs[0]) == 0 {
		t.Fatal("no autotune decisions recorded")
	}
	last := decs[0][len(decs[0])-1]
	if last.Codec == nil {
		t.Errorf("1 MB/s link: final decision stayed uncompressed: %+v", last)
	}
	if last.BandwidthBps >= 4<<20 {
		t.Errorf("bandwidth estimate %.0f B/s not pulled under the cap", last.BandwidthBps)
	}
	prev := -1
	for i, d := range decs[0] {
		if want := d.Level != prev; d.Changed != want {
			t.Errorf("decision %d: Changed=%v with level %d after %d", i, d.Changed, d.Level, prev)
		}
		prev = d.Level
	}
	if !sameDecisions(decs[0], decs[1]) {
		t.Error("ranks disagree on capped-link decisions")
	}
}

// TestAutotunePickBands pins the policy table's selection function: band
// edges are inclusive, the drop penalty pushes one level down but never
// past the last level.
func TestAutotunePickBands(t *testing.T) {
	cases := []struct {
		bw, drop float64
		want     int
	}{
		{256 << 20, 0, 0},
		{64 << 20, 0, 0}, // inclusive lower edge
		{63 << 20, 0, 1}, // just below
		{16 << 20, 0, 1},
		{8 << 20, 0, 2},
		{1 << 20, 0, 3},
		{0, 0, 3},
		{256 << 20, 0.5, 1}, // drop penalty demotes one level
		{1 << 20, 0.5, 3},   // but never past the catch-all
		{math.Inf(1), 0, 0}, // pre-first-measurement optimism
	}
	for _, c := range cases {
		if got := pickLevel(c.bw, c.drop); got != c.want {
			t.Errorf("pickLevel(%g, %g) = %d, want %d", c.bw, c.drop, got, c.want)
		}
	}
}
