// Model-vs-measured calibration suite: the topology cost model's step-time
// predictions checked against freshly measured training runs on THIS host,
// worlds 1–8, both step engines, across the distribution-mode axis. The
// model's constants (link α–β, eigensolver and GEMM throughput, base step
// cost) are probed locally right before the comparison, so the suite
// calibrates the model's *structure* — which stages it bills, how costs
// scale with world and mode — rather than hard-coded constants that drift
// across machines.
//
// Tolerance: predicted and measured step time must agree within a factor of
// calibTolerance (8×, i.e. better than order-of-magnitude both ways). The
// band is deliberately wide: the model prices idealized α–β collectives and
// peak-throughput compute, while the measurement includes Go scheduler
// noise, cache effects, and allocator jitter on tiny matrices. What the
// band catches is structural breakage — a stage billed to the wrong
// frequency, a collective priced at the wrong world, a mode whose plan
// diverges from what the engines execute. docs/PERFORMANCE.md records the
// band next to the committed w16/w32 trajectories.
//
// This test lives in package simulate_test (not simulate) because it drives
// the real training stack — internal/experiments already imports simulate,
// so the harness is a self-contained mirror of the benchmark runner's
// per-rank body instead of a reuse of it.
package simulate_test

import (
	"context"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/comm"
	"repro/internal/kfac"
	"repro/internal/linalg"
	"repro/internal/models"
	"repro/internal/nn"
	"repro/internal/simulate"
	"repro/internal/tensor"
	"repro/internal/testenv"
)

// Calibration workload: the tiny benchmark ResNet at the dist-bench update
// frequencies, so measured amortization matches the model's 1/freq terms
// exactly (measured step counts are multiples of invUpdateFreq).
const (
	calibBlocks  = 1
	calibWidth   = 4
	calibBatch   = 4
	calibFacFreq = 2
	calibInvFreq = 4

	// calibTolerance is the documented predicted-vs-measured band: the
	// ratio in either direction must stay under 8×.
	calibTolerance = 8.0
)

// calibNet builds the calibration network deterministically.
func calibNet() *nn.Sequential {
	rng := rand.New(rand.NewSource(17))
	net := models.BuildCIFARResNet(calibBlocks, calibWidth, 3, 10, rng)
	nn.SetBufferReuse(net, true)
	return net
}

// calibBatchData returns the fixed input batch and labels every rank trains
// on.
func calibBatchData() (*tensor.Tensor, []int) {
	rng := rand.New(rand.NewSource(23))
	x := tensor.Randn(rng, 1, calibBatch, 16, 16, 3)
	labels := make([]int, calibBatch)
	for i := range labels {
		labels[i] = rng.Intn(10)
	}
	return x, labels
}

// probeAllreduce measures the best-of-reps wall time of one AllreduceMean
// of n float64s over a world-2 in-process fabric — the transport the
// measured runs use.
func probeAllreduce(t *testing.T, n int) float64 {
	t.Helper()
	const world, reps = 2, 5
	fab := comm.NewInprocFabric(world)
	times := make([]float64, world)
	errs := make([]error, world)
	var wg sync.WaitGroup
	for r := 0; r < world; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			c := comm.NewCommunicator(fab.Endpoint(r))
			buf := make([]float64, n)
			for i := range buf {
				buf[i] = float64(r*n + i)
			}
			if errs[r] = c.AllreduceMean(buf); errs[r] != nil {
				return // warmup
			}
			best := math.MaxFloat64
			for rep := 0; rep < reps; rep++ {
				t0 := time.Now()
				if errs[r] = c.AllreduceMean(buf); errs[r] != nil {
					return
				}
				if s := time.Since(t0).Seconds(); s < best {
					best = s
				}
			}
			times[r] = best
		}(r)
	}
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			t.Fatalf("probe rank %d: %v", r, err)
		}
	}
	return times[0]
}

// probeLink fits α–β constants for the in-process transport from two
// allreduce sizes. At world 2 the ring model costs 2α + b/β, so two probes
// solve for both constants; results are clamped to stay positive under
// timer noise.
func probeLink(t *testing.T) simulate.Link {
	t.Helper()
	const small, large = 64, 1 << 15 // floats: 512 B and 256 KiB payloads
	tSmall := probeAllreduce(t, small)
	tLarge := probeAllreduce(t, large)
	beta := float64((large-small)*8) / math.Max(tLarge-tSmall, 1e-9)
	alpha := math.Max((tSmall-float64(small*8)/beta)/2, 50e-9)
	return simulate.Link{AlphaSec: alpha, BetaBytesPerSec: beta}
}

// symEigSec measures the best-of-reps time of one symmetric
// eigendecomposition at dimension d using the solver the engines actually
// run — the blocked solver with a full-machine team (the eig scheduler's
// choice for a factor that is the whole rank load). Small probe
// dimensions take the solver's own serial fallback, exactly as the
// engines' small factors do.
func symEigSec(t *testing.T, d, team int) float64 {
	t.Helper()
	rng := rand.New(rand.NewSource(5))
	a := tensor.Randn(rng, 1, d, d)
	for i := 0; i < d; i++ {
		for j := 0; j < i; j++ {
			v := (a.At(i, j) + a.At(j, i)) / 2
			a.Set(v, i, j)
			a.Set(v, j, i)
		}
		a.Set(a.At(i, i)+float64(d), i, i) // diagonally dominant: well-conditioned
	}
	var eg linalg.Eigen
	best := math.MaxFloat64
	for rep := 0; rep < 4; rep++ {
		work := a.Clone()
		t0 := time.Now()
		if err := linalg.SymEigBlockedInto(work, &eg, team); err != nil {
			t.Fatalf("probe SymEigBlocked(%d, team %d): %v", d, team, err)
		}
		if s := time.Since(t0).Seconds(); s < best {
			best = s
		}
	}
	return best
}

// probeGEMM measures effective square-matmul throughput in FLOP/s.
func probeGEMM() float64 {
	const d = 64
	rng := rand.New(rand.NewSource(7))
	a := tensor.Randn(rng, 1, d, d)
	b := tensor.Randn(rng, 1, d, d)
	dst := tensor.Zeros(d, d)
	tensor.MatMulInto(dst, a, b) // warmup
	best := math.MaxFloat64
	for rep := 0; rep < 4; rep++ {
		t0 := time.Now()
		tensor.MatMulInto(dst, a, b)
		if s := time.Since(t0).Seconds(); s < best {
			best = s
		}
	}
	return 2 * d * d * d / best
}

// probeBaseStepSec measures the candidate-independent part of a training
// step — forward, loss, zero-grad, backward — with no preconditioner.
func probeBaseStepSec() float64 {
	net := calibNet()
	x, labels := calibBatchData()
	ce := nn.CrossEntropy{}
	params := net.Params()
	run := func() {
		out := net.Forward(x, true)
		_, grad := ce.Loss(out, labels)
		for _, p := range params {
			p.ZeroGrad()
		}
		net.Backward(grad)
	}
	run()
	run()
	best := math.MaxFloat64
	for rep := 0; rep < 3; rep++ {
		t0 := time.Now()
		for i := 0; i < 4; i++ {
			run()
		}
		if s := time.Since(t0).Seconds() / 4; s < best {
			best = s
		}
	}
	return best
}

// calibrationModel assembles a PlanModel entirely from local probes: the
// in-process link priced uniformly at every topology level (goroutine ranks
// share one memory hierarchy), measured solver/GEMM throughput, and the
// measured forward+backward as the base step.
func calibrationModel(t *testing.T) *simulate.PlanModel {
	t.Helper()
	link := probeLink(t)
	eigTeam := runtime.GOMAXPROCS(0)
	eigSmall := symEigSec(t, 8, eigTeam)
	eigBig := symEigSec(t, 48, eigTeam)
	m := &simulate.PlanModel{
		Topology: simulate.Topology{
			RanksPerNode: 2048, NodesPerRack: 1,
			IntraNode: link, InterNode: link, InterRack: link,
		},
		BytesPerElem:         8, // the fabric moves float64s verbatim
		EigFlopsPerSec:       linalg.EigFLOPs(48) / math.Max(eigBig-eigSmall, 1e-9),
		FactorFlopsPerSec:    probeGEMM(),
		PerFactorOverheadSec: eigSmall, // tiny-dim solve ≈ pure launch cost
		BaseStepSec:          probeBaseStepSec(),
		GradBytes:            0, // the harness syncs no gradients outside K-FAC
		FactorUpdateFreq:     calibFacFreq,
		InvUpdateFreq:        calibInvFreq,
		EigWorkers:           eigTeam,
	}
	if err := m.Topology.Validate(); err != nil {
		t.Fatalf("probed topology invalid: %v", err)
	}
	t.Logf("probes: α=%.3gs β=%.3gB/s eig=%.3gFLOP/s (blocked, team %d) gemm=%.3gFLOP/s base=%.3gs overhead=%.3gs",
		link.AlphaSec, link.BetaBytesPerSec, m.EigFlopsPerSec, eigTeam, m.FactorFlopsPerSec,
		m.BaseStepSec, m.PerFactorOverheadSec)
	return m
}

// calibRank is one measured rank: the benchmark runner's per-rank body
// (same network, update frequencies, warmup discipline) returning the mean
// measured step time.
func calibRank(c *comm.Communicator, engine kfac.Engine, mode kfac.DistMode, frac float64, steps int) (float64, error) {
	net := calibNet()
	x, labels := calibBatchData()
	prec := kfac.NewFromOptions(net, c, kfac.Options{
		FactorUpdateFreq: calibFacFreq, InvUpdateFreq: calibInvFreq, Damping: 1e-3,
		DistMode: mode, GradWorkerFrac: frac, Engine: engine,
	})
	defer prec.Close()
	ce := nn.CrossEntropy{}
	params := net.Params()
	step := func() error {
		out := net.Forward(x, true)
		_, grad := ce.Loss(out, labels)
		for _, p := range params {
			p.ZeroGrad()
		}
		net.Backward(grad)
		return prec.Step(0.1)
	}
	for i := 0; i < 2; i++ { // warmup: first factor + decomposition update
		if err := step(); err != nil {
			return 0, err
		}
	}
	t0 := time.Now()
	for i := 0; i < steps; i++ {
		if err := step(); err != nil {
			return 0, err
		}
	}
	return time.Since(t0).Seconds() / float64(steps), nil
}

// measureStepSec runs world lockstep ranks over an in-process fabric and
// returns rank 0's mean step time.
func measureStepSec(t *testing.T, engine kfac.Engine, mode kfac.DistMode, frac float64, world, steps int) float64 {
	t.Helper()
	fab := comm.NewInprocFabric(world)
	abortCtx, abort := context.WithCancel(context.Background())
	defer abort()
	var rank0Mean float64
	errs := make([]error, world)
	var wg sync.WaitGroup
	for r := 0; r < world; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			defer func() {
				if errs[r] != nil {
					abort() // a dead rank must not strand peers in a collective
				}
			}()
			c := comm.NewCommunicator(fab.Endpoint(r)).WithContext(abortCtx)
			mean, err := calibRank(c, engine, mode, frac, steps)
			errs[r] = err
			if r == 0 {
				rank0Mean = mean
			}
		}(r)
	}
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			t.Fatalf("measured rank %d: %v", r, err)
		}
	}
	return rank0Mean
}

// calibRefs resolves the factor list of the calibration network — the same
// refs BuildPlan sees in the measured runs.
func calibRefs() []kfac.FactorRef {
	prec := kfac.NewFromOptions(calibNet(), nil, kfac.Options{Damping: 1e-3})
	defer prec.Close()
	return prec.FactorRefs()
}

// TestCalibrationPredictedVsMeasured is the calibration gate: for every
// (engine × mode × world) cell it compares the model's predicted step time
// against a fresh measurement and requires agreement within calibTolerance
// in either direction. Measured wall time is normalized by the CPU
// oversubscription factor ⌈world/GOMAXPROCS⌉ first: goroutine ranks
// serialize on a small host, while the model prices ranks as parallel —
// exactly the paper's deployment and the CI multi-core case.
func TestCalibrationPredictedVsMeasured(t *testing.T) {
	model := calibrationModel(t)
	refs := calibRefs()

	worlds := []int{1, 2, 4, 8}
	steps := 2 * calibInvFreq
	if testenv.Short() {
		worlds = []int{1, 2}
		steps = calibInvFreq
	}
	engines := []kfac.Engine{kfac.EngineSync, kfac.EnginePipelined}
	modes := []struct {
		name string
		mode kfac.DistMode
		frac float64
	}{
		{"commopt", kfac.CommOpt, 0},
		{"memopt", kfac.MemOpt, 0},
		{"hybrid50", kfac.Hybrid, 0.5},
	}

	maxProcs := runtime.GOMAXPROCS(0)
	for _, eng := range engines {
		for _, md := range modes {
			for _, world := range worlds {
				cand := kfac.PlanCandidate{Mode: md.mode, GradWorkerFrac: md.frac}
				predicted := model.Evaluate(kfac.RoundRobin, refs, world, cand).StepSec
				measured := measureStepSec(t, eng, md.mode, md.frac, world, steps)
				oversub := (world + maxProcs - 1) / maxProcs
				normalized := measured / float64(oversub)
				ratio := predicted / normalized
				t.Logf("%-9s %-8s w%-2d predicted %8.3gms measured %8.3gms norm %8.3gms ratio %5.2f",
					eng, md.name, world, predicted*1e3, measured*1e3, normalized*1e3, ratio)
				if ratio > calibTolerance || ratio < 1/calibTolerance {
					t.Errorf("%s/%s w%d: predicted %.3gms vs normalized measured %.3gms — ratio %.2f outside ±%gx band",
						eng, md.name, world, predicted*1e3, normalized*1e3, ratio, calibTolerance)
				}
			}
		}
	}
}

// TestCalibrationModePredictionsOrder pins the structural predictions the
// planner relies on, using the same probed model: MEM-OPT must predict
// strictly lower per-rank memory than COMM-OPT, and HYBRID must land
// between them — independent of this host's timing noise. World ≥ 4: at
// world 2 a factor's eigen-owner plus its gradient worker already cover
// both ranks, so every mode resolves to the same resident footprint.
func TestCalibrationModePredictionsOrder(t *testing.T) {
	model := calibrationModel(t)
	refs := calibRefs()
	for _, world := range []int{4, 8} {
		co := model.Evaluate(kfac.RoundRobin, refs, world, kfac.PlanCandidate{Mode: kfac.CommOpt})
		mo := model.Evaluate(kfac.RoundRobin, refs, world, kfac.PlanCandidate{Mode: kfac.MemOpt})
		hy := model.Evaluate(kfac.RoundRobin, refs, world,
			kfac.PlanCandidate{Mode: kfac.Hybrid, GradWorkerFrac: 0.5})
		if mo.MaxMemBytes >= co.MaxMemBytes {
			t.Errorf("w%d: MEM-OPT max mem %d ≥ COMM-OPT %d", world, mo.MaxMemBytes, co.MaxMemBytes)
		}
		if hy.MaxMemBytes < mo.MaxMemBytes || hy.MaxMemBytes > co.MaxMemBytes {
			t.Errorf("w%d: HYBRID mem %d outside [%d, %d]", world, hy.MaxMemBytes, mo.MaxMemBytes, co.MaxMemBytes)
		}
	}
}
