package kfac

import (
	"context"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/comm"
)

// countingEndpoint counts the sends and payload bytes crossing one rank's
// transport endpoint, and the payload bytes it receives.
type countingEndpoint struct {
	comm.Transport
	sends, bytes, recvBytes atomic.Int64
}

func (e *countingEndpoint) Recv(ctx context.Context, from int, tag uint64) ([]float64, error) {
	data, err := e.Transport.Recv(ctx, from, tag)
	e.recvBytes.Add(int64(8 * len(data)))
	return data, err
}

func (e *countingEndpoint) Send(to int, tag uint64, data []float64) error {
	e.sends.Add(1)
	e.bytes.Add(int64(8 * len(data)))
	return e.Transport.Send(to, tag, data)
}

// TestSchedulesIdenticalWireTraffic: the two engines are one program under
// two schedules, so on every rank and every step they must put exactly the
// same number of sends and payload bytes on the wire — factor steps,
// decomposition steps and stale steps alike. Step 1 is stale (neither
// update interval divides it): under MEM-OPT and HYBRID it carries exactly
// the per-root preconditioned-gradient broadcasts, under COMM-OPT nothing.
func TestSchedulesIdenticalWireTraffic(t *testing.T) {
	const world, steps, staleStep = 4, 5, 1
	type wire struct{ sends, bytes int64 }
	run := func(mode DistMode, engine Engine) [world][steps]wire {
		fab := comm.NewInprocFabric(world)
		var out [world][steps]wire
		var wg sync.WaitGroup
		for r := 0; r < world; r++ {
			wg.Add(1)
			go func(r int) {
				defer wg.Done()
				end := &countingEndpoint{Transport: fab.Endpoint(r)}
				net := buildTinyNet(42)
				prec := NewFromOptions(net, comm.NewCommunicator(end), Options{
					DistMode: mode, GradWorkerFrac: 0.5, Engine: engine, FactorUpdateFreq: 2, InvUpdateFreq: 4,
				})
				defer prec.Close()
				for i := 0; i < steps; i++ {
					runStep(net, int64(1000+i), 4)
					before := wire{end.sends.Load(), end.bytes.Load()}
					if err := prec.Step(0.1); err != nil {
						t.Errorf("rank %d step %d: %v", r, i, err)
						return
					}
					out[r][i] = wire{end.sends.Load() - before.sends, end.bytes.Load() - before.bytes}
				}
			}(r)
		}
		wg.Wait()
		return out
	}
	for _, mode := range []DistMode{CommOpt, MemOpt, Hybrid} {
		barrier, overlap := run(mode, EngineSync), run(mode, EnginePipelined)
		if t.Failed() {
			return
		}
		if barrier[0][0].sends == 0 {
			t.Fatalf("%v: rank 0 sent nothing on the first update step", mode)
		}
		for r := 0; r < world; r++ {
			for i := 0; i < steps; i++ {
				if barrier[r][i] != overlap[r][i] {
					t.Errorf("%v rank %d step %d: sync sent %+v, pipelined %+v", mode, r, i, barrier[r][i], overlap[r][i])
				}
			}
		}
		var stale int64
		for r := 0; r < world; r++ {
			stale += barrier[r][staleStep].sends
		}
		if partial := mode != CommOpt; (stale > 0) != partial {
			t.Errorf("%v: the stale step sent %d messages; a partial plan must broadcast, a replicated one must not", mode, stale)
		}
	}
}

// TestSchedulesEigTeamsWithinGOMAXPROCS: every decomposition, under either
// schedule, holds one slot of a GOMAXPROCS-slot eigSlots whatever its team,
// so at most GOMAXPROCS decompositions are ever in flight, every owned
// factor is granted once, and no slot is still held after the update. Under
// the barrier schedule all factors are ready at once, so the grants follow
// (dimension desc, FactorRefs order) exactly.
func TestSchedulesEigTeamsWithinGOMAXPROCS(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2, 4} {
		runtime.GOMAXPROCS(procs)
		for _, engine := range []Engine{EngineSync, EnginePipelined} {
			net := buildWideNet(96)
			prec := NewFromOptions(net, nil, Options{FactorUpdateFreq: 1, InvUpdateFreq: 1, Engine: engine})
			runWideStep(net, 505, 8)
			if err := prec.Step(0.1); err != nil {
				t.Fatal(err)
			}
			prec.Close()
			slots := prec.eigSlots
			if slots == nil {
				t.Fatalf("procs %d %v: decompositions bypassed the slot semaphore", procs, engine)
			}
			grants, peak := replaySlots(t, slots.history)
			if peak > procs {
				t.Errorf("procs %d %v: %d decompositions in flight at once", procs, engine, peak)
			}
			if slots.free != procs || len(slots.queue) != 0 {
				t.Errorf("procs %d %v: %d of %d slots free, %d requests queued after the update",
					procs, engine, slots.free, procs, len(slots.queue))
			}
			refs := prec.FactorRefs()
			if len(grants) != len(refs) {
				t.Fatalf("procs %d %v: %d grants for %d factors", procs, engine, len(grants), len(refs))
			}
			want := make([]int, len(refs))
			for i := range want {
				want[i] = i
			}
			slices.SortStableFunc(want, func(a, b int) int { return refs[b].Dim - refs[a].Dim })
			if engine == EngineSync && !slices.Equal(grants, want) {
				t.Errorf("procs %d: grant order %v, want %v (dimension desc, FactorRefs order)", procs, grants, want)
			}
		}
	}
}

// TestSchedulesSyncStageWindowsTileUpdate: under the barrier schedule no
// two stages overlap, so the four stage windows of an update must add up
// to the step's wall time less preconditioning (within 5 %: what is left
// is goroutine hand-off between stages), and the Pipeline* counters stay
// zero. Checked at world 1 and on rank 0 of world 2.
func TestSchedulesSyncStageWindowsTileUpdate(t *testing.T) {
	// tile runs one update step on a fresh wide net and returns the step's
	// wall time less preconditioning, and the sum of its stage windows.
	tile := func(c *comm.Communicator) (wall, stages time.Duration) {
		net := buildWideNet(97)
		prec := NewFromOptions(net, c, Options{FactorUpdateFreq: 1, InvUpdateFreq: 1})
		runWideStep(net, 506, 8)
		start := time.Now()
		if err := prec.Step(0.1); err != nil {
			t.Error(err)
		}
		wall = time.Since(start)
		snap := prec.Stats().Snapshot()
		if snap.PipelineUpdates != 0 || snap.PipelineWall != 0 || snap.PipelineWork != 0 || snap.PipelineIdle != 0 {
			t.Errorf("Pipeline* stats nonzero under EngineSync: %s", prec.Stats())
		}
		if snap.FactorCompute <= 0 || snap.EigCompute <= 0 || (c != nil && (snap.FactorComm <= 0 || snap.EigComm <= 0)) {
			t.Errorf("stage window missing: %s", prec.Stats())
		}
		return wall - snap.Precondition, snap.FactorCompute + snap.FactorComm + snap.EigCompute + snap.EigComm
	}
	for _, world := range []int{1, 2} {
		// Timing: a descheduled goroutine can open a gap once; it will not
		// three times in a row.
		var gap float64
		for attempt := 0; attempt < 3; attempt++ {
			var wall, stages time.Duration
			if world == 1 {
				wall, stages = tile(nil)
			} else {
				fab := comm.NewInprocFabric(world)
				var wg sync.WaitGroup
				for r := 0; r < world; r++ {
					wg.Add(1)
					go func(r int) {
						defer wg.Done()
						w, s := tile(comm.NewCommunicator(fab.Endpoint(r)))
						if r == 0 {
							wall, stages = w, s
						}
					}(r)
				}
				wg.Wait()
			}
			if t.Failed() {
				return
			}
			gap = float64(wall-stages) / float64(wall)
			if gap >= 0 && gap < 0.05 {
				break
			}
		}
		if gap < 0 || gap >= 0.05 {
			t.Errorf("world %d: stage windows leave %.1f%% of the update wall unaccounted, want [0, 5)%%", world, 100*gap)
		}
	}
}
