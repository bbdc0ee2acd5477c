// Benchmark-trajectory harness: kfac-bench's -json mode. Each scenario
// (model size × step engine) runs a single-process training loop with real
// forward/backward and K-FAC steps, measuring wall time per step, the
// preconditioner's stage profile and pipeline overlap, and heap
// allocations/bytes per step — both over a realistic update mix and in the
// stale-decomposition steady state. Results are written as one
// schema-stable BENCH_<scenario>.json per scenario so every future change
// has a recorded trajectory to regress against (CI uploads the JSON of a
// -short run as an artifact and gates on parseability, not timings).
package experiments

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"repro/internal/comm"
	"repro/internal/kfac"
	"repro/internal/models"
	"repro/internal/nn"
	"repro/internal/tensor"
)

// BenchSchema identifies the BENCH_*.json layout. Bump only with a
// migration note in docs/PERFORMANCE.md; downstream tooling (CI artifact
// gate, trend plots) keys on it.
const BenchSchema = "kfac-bench/v1"

// BenchResult is the JSON record one benchmark scenario emits. All
// durations are nanoseconds; alloc metrics are per executed step.
type BenchResult struct {
	Schema   string `json:"schema"`
	Scenario string `json:"scenario"` // "<model>_<engine>[_f32]" or "dist_<model>_w<world>_<mode>"
	Model    string `json:"model"`
	Engine   string `json:"engine"`
	// Precision is the K-FAC compute precision of the run: "f64" (the exact
	// reference path) or "f32" (float32 kernels with float64 accumulation;
	// the scenario name carries a matching _f32 suffix).
	Precision string `json:"precision"`
	// Fabric is the transport the scenario ran on: "local" for
	// single-process cells, "inproc" for the in-process dist_* axis, "tcp"
	// when the cell ran across real OS processes over the TCP transport
	// (kfac-bench -fabric tcp).
	Fabric string `json:"fabric"`

	// Distribution axis. Single-process scenarios report world 1 and the
	// resolved COMM-OPT plan; dist_* scenarios sweep
	// {COMM-OPT, MEM-OPT, HYBRID} × grad-worker fraction at world > 1,
	// with per-rank peak factor memory recorded alongside step time — the
	// measured memory-vs-communication tradeoff.
	World                  int     `json:"world"`
	DistMode               string  `json:"dist_mode"`
	GradWorkerFrac         float64 `json:"grad_worker_frac"`
	PeakFactorBytesPerRank []int64 `json:"peak_factor_bytes_per_rank"`
	// Environment, for comparing trajectories across hosts.
	GoMaxProcs int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Params     int    `json:"params"`
	KFACLayers int    `json:"kfac_layers"`
	BatchSize  int    `json:"batch_size"`

	// Mixed phase: FactorUpdateFreq/InvUpdateFreq as configured, so steps
	// amortize factor and decomposition updates the way training does.
	Steps            int     `json:"steps"`
	FactorUpdateFreq int     `json:"factor_update_freq"`
	InvUpdateFreq    int     `json:"inv_update_freq"`
	StepTimeMeanNS   int64   `json:"step_time_mean_ns"`
	StepTimeMinNS    int64   `json:"step_time_min_ns"`
	StepTimeMaxNS    int64   `json:"step_time_max_ns"`
	AllocsPerStep    float64 `json:"allocs_per_step"`
	BytesPerStep     float64 `json:"bytes_per_step"`

	// Stage profile accumulated over the mixed phase (preconditioner's
	// StageStats), plus the pipelined engine's overlap estimate.
	FactorComputeNS int64 `json:"factor_compute_ns"`
	FactorCommNS    int64 `json:"factor_comm_ns"`
	EigComputeNS    int64 `json:"eig_compute_ns"`
	EigCommNS       int64 `json:"eig_comm_ns"`
	PreconditionNS  int64 `json:"precondition_ns"`
	OverlapNS       int64 `json:"overlap_ns"`

	// Steady phase: stale decompositions only (the common iteration).
	SteadySteps         int     `json:"steady_steps"`
	SteadyStepTimeNS    int64   `json:"steady_step_time_mean_ns"`
	SteadyAllocsPerStep float64 `json:"steady_allocs_per_step"`
	SteadyBytesPerStep  float64 `json:"steady_bytes_per_step"`
}

// benchScenario is one (model, engine) cell of the benchmark matrix.
type benchScenario struct {
	model     string
	blocks    int
	width     int
	batch     int
	steps     int
	engines   []kfac.Engine
	precision kfac.Precision
}

// benchMatrix returns the scenario list: -short runs one tiny model for the
// CI smoke job; the full matrix covers small/medium/large against both
// engines.
func benchMatrix(short bool) []benchScenario {
	engines := []kfac.Engine{kfac.EngineSync, kfac.EnginePipelined}
	if short {
		tiny := benchScenario{model: "tiny", blocks: 1, width: 4, batch: 4, steps: 6, engines: engines}
		tinyF32 := tiny
		tinyF32.precision = kfac.F32
		return []benchScenario{tiny, tinyF32}
	}
	cells := []benchScenario{
		{model: "small", blocks: 1, width: 8, batch: 8, steps: 20, engines: engines},
		{model: "medium", blocks: 2, width: 16, batch: 8, steps: 20, engines: engines},
		{model: "large", blocks: 3, width: 32, batch: 8, steps: 10, engines: engines},
	}
	// Mixed-precision cells mirror small and medium — the sizes the
	// committed trajectories track f64-vs-f32 on (docs/PERFORMANCE.md).
	for _, base := range cells[:2] {
		f32 := base
		f32.precision = kfac.F32
		cells = append(cells, f32)
	}
	return cells
}

// distScenario is one cell of the distribution-mode benchmark axis: a
// multi-rank run of one (model, mode, grad-worker fraction) combination,
// in-process by default or across real OS processes under the TCP driver.
type distScenario struct {
	name      string
	mode      kfac.DistMode
	frac      float64
	model     string
	blocks    int
	width     int
	batch     int
	world     int
	steps     int
	precision kfac.Precision
	// fabric is the transport label the cell records ("inproc" when empty).
	fabric string
	// autotune enables the bandwidth-adaptive controller; on the bench's
	// clean in-process fabric it stays at the exact level, so the cell
	// measures pure controller overhead (one consensus allreduce per
	// factor update) against its _-less static twin via benchdiff -suffix.
	autotune bool
}

// DefaultDistWorld is the dist_* axis world size when none is requested —
// the historical in-process default the committed w4 trajectories use.
const DefaultDistWorld = 4

// scenarioName derives the cell's schema-stable scenario string
// ("dist_<model>_w<world>_<name>[_f32]"). File names, the schema test, and
// the CI artifact asserts all come from this one formula.
func (sc distScenario) scenarioName() string {
	s := fmt.Sprintf("dist_%s_w%d_%s", sc.model, sc.world, sc.name)
	if sc.precision == kfac.F32 {
		s += "_f32"
	}
	return s
}

// fabricLabel returns the transport label the cell records.
func (sc distScenario) fabricLabel() string {
	if sc.fabric == "" {
		return "inproc"
	}
	return sc.fabric
}

// distMatrix returns the {mode, gradWorkerFrac} × precision scenario axis
// at the given world size (0 = DefaultDistWorld). The four mode cells cover
// both endpoints of the memory/communication tradeoff and two HYBRID
// interpolations, each measured at the f64 reference precision and on the
// float32 kernel path (_f32 cells: the layers compute in float32 and K-FAC
// runs its narrowed kernels, so the cells track the mixed-precision cost of
// the distribution machinery); -short shrinks the model for the CI smoke
// job.
func distMatrix(short bool, world int) []distScenario {
	model, blocks, width, batch, steps := "small", 1, 8, 8, 8
	if short {
		model, blocks, width, batch, steps = "tiny", 1, 4, 4, 4
	}
	if world <= 0 {
		world = DefaultDistWorld
	}
	cells := []struct {
		name string
		mode kfac.DistMode
		frac float64
	}{
		{"commopt", kfac.CommOpt, 0},
		{"memopt", kfac.MemOpt, 0},
		{"hybrid25", kfac.Hybrid, 0.25},
		{"hybrid50", kfac.Hybrid, 0.5},
	}
	out := make([]distScenario, 0, 2*len(cells)+1)
	for _, prec := range []kfac.Precision{kfac.F64, kfac.F32} {
		for _, c := range cells {
			out = append(out, distScenario{
				name: c.name, mode: c.mode, frac: c.frac,
				model: model, blocks: blocks, width: width, batch: batch,
				world: world, steps: steps, precision: prec,
			})
		}
	}
	// The autotune twin of the f64 COMM-OPT cell:
	// `benchdiff -suffix _autotune` rekeys it onto dist_<model>_w<N>_commopt
	// and reports the controller's step-time overhead as the delta.
	out = append(out, distScenario{
		name: "commopt_autotune", mode: kfac.CommOpt,
		model: model, blocks: blocks, width: width, batch: batch,
		world: world, steps: steps, precision: kfac.F64, autotune: true,
	})
	return out
}

// BenchConfig parameterizes one -json benchmark run: the axes every cell
// name is derived from. BenchCells on the same config predicts exactly
// which BENCH_<scenario>.json files the run writes — the schema test and
// the CI artifact asserts both consume that derivation instead of baked-in
// name lists.
type BenchConfig struct {
	// Short selects the tiny-model matrix (the CI smoke job).
	Short bool
	// Seed is the synthetic-data RNG seed.
	Seed int64
	// Precision restricts the matrix to one precision slice: "f64" keeps
	// the reference cells, "f32" the mixed-precision (_f32) cells, "both"
	// (also the "" default) runs everything.
	Precision string
	// World is the dist_* axis world size (0 = DefaultDistWorld).
	World int
}

// keepPrecision reports whether a cell of the given precision is in the
// configured slice.
func (cfg BenchConfig) keepPrecision(p kfac.Precision) bool {
	switch cfg.Precision {
	case "f64":
		return p == kfac.F64
	case "f32":
		return p == kfac.F32
	default:
		return true
	}
}

// validate rejects unknown precision slices.
func (cfg BenchConfig) validate() error {
	switch cfg.Precision {
	case "", "f64", "f32", "both":
		return nil
	default:
		return fmt.Errorf("bench: unknown precision filter %q (want f64, f32, or both)", cfg.Precision)
	}
}

// BenchCells returns, in run order, the scenario names RunBenchJSONConfig
// emits for a config — the derivation the schema test and the CI artifact
// asserts (kfac-bench -cells) share with the runner, so the expected file
// list can never drift from the axes.
func BenchCells(cfg BenchConfig) []string {
	var out []string
	for _, sc := range benchMatrix(cfg.Short) {
		if !cfg.keepPrecision(sc.precision) {
			continue
		}
		for _, engine := range sc.engines {
			name := fmt.Sprintf("%s_%s", sc.model, engine)
			if sc.precision == kfac.F32 {
				name += "_f32"
			}
			out = append(out, name)
		}
	}
	for _, sc := range distMatrix(cfg.Short, cfg.World) {
		if !cfg.keepPrecision(sc.precision) {
			continue
		}
		out = append(out, sc.scenarioName())
	}
	return out
}

// writeBenchResult persists one scenario record as BENCH_<scenario>.json
// and returns the file path.
func writeBenchResult(outDir string, res *BenchResult) (string, error) {
	path := filepath.Join(outDir, fmt.Sprintf("BENCH_%s.json", res.Scenario))
	data, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return "", err
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return "", err
	}
	return path, nil
}

// RunBenchJSON executes the benchmark matrix — the single-process
// (model × engine) cells plus the distributed {mode, gradWorkerFrac} axis
// — and writes one BENCH_<scenario>.json per scenario into outDir,
// returning the file paths. Scenarios respect ctx cancellation between
// steps.
func RunBenchJSON(ctx context.Context, outDir string, short bool, seed int64) ([]string, error) {
	return RunBenchJSONConfig(ctx, outDir, BenchConfig{Short: short, Seed: seed})
}

// RunBenchJSONFiltered is RunBenchJSON restricted to one precision slice of
// the matrix at the default dist world.
func RunBenchJSONFiltered(ctx context.Context, outDir string, short bool, seed int64, precision string) ([]string, error) {
	return RunBenchJSONConfig(ctx, outDir, BenchConfig{Short: short, Seed: seed, Precision: precision})
}

// RunBenchJSONConfig runs the matrix described by cfg; the emitted file set
// is exactly BenchCells(cfg).
func RunBenchJSONConfig(ctx context.Context, outDir string, cfg BenchConfig) ([]string, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return nil, err
	}
	var paths []string
	write := func(res *BenchResult) error {
		path, err := writeBenchResult(outDir, res)
		if err != nil {
			return err
		}
		paths = append(paths, path)
		return nil
	}
	for _, sc := range benchMatrix(cfg.Short) {
		if !cfg.keepPrecision(sc.precision) {
			continue
		}
		for _, engine := range sc.engines {
			res, err := runBenchScenario(ctx, sc, engine, cfg.Seed)
			if err != nil {
				return paths, fmt.Errorf("bench %s_%s: %w", sc.model, engine, err)
			}
			if err := write(res); err != nil {
				return paths, err
			}
		}
	}
	for _, sc := range distMatrix(cfg.Short, cfg.World) {
		if !cfg.keepPrecision(sc.precision) {
			continue
		}
		res, err := runDistBenchScenario(ctx, sc, cfg.Seed)
		if err != nil {
			return paths, fmt.Errorf("bench dist %s: %w", sc.name, err)
		}
		if err := write(res); err != nil {
			return paths, err
		}
	}
	return paths, nil
}

// distBenchFreqs are the factor/decomposition update intervals of every
// dist_* cell: short enough that a handful of steps amortizes both stages.
const distBenchFacFreq, distBenchInvFreq = 2, 4

// newDistBenchResult builds the cell's record skeleton shared by the
// in-process and TCP drivers.
func newDistBenchResult(sc distScenario) *BenchResult {
	return &BenchResult{
		Schema:    BenchSchema,
		Scenario:  sc.scenarioName(),
		Model:     sc.model,
		Engine:    kfac.EngineSync.String(),
		Precision: sc.precision.String(),
		Fabric:    sc.fabricLabel(),

		World:                  sc.world,
		PeakFactorBytesPerRank: make([]int64, sc.world),

		GoMaxProcs: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		BatchSize:  sc.batch,

		Steps:            sc.steps,
		FactorUpdateFreq: distBenchFacFreq,
		InvUpdateFreq:    distBenchInvFreq,
	}
}

// runDistRank executes one rank of a dist scenario over communicator c and
// returns this rank's peak factor bytes. Every rank trains the same model
// on the same data (so the measured cost is the distribution machinery,
// not data divergence). Rank 0 additionally fills the timing, plan, and
// stage-profile fields of res; other ranks leave res untouched. Shared by
// the in-process driver (one goroutine per rank over an InprocFabric) and
// the TCP driver (one OS process per rank).
func runDistRank(ctx context.Context, sc distScenario, seed int64, c *comm.Communicator, res *BenchResult) (int64, error) {
	rank := c.Rank()
	rng := rand.New(rand.NewSource(seed))
	net := models.BuildCIFARResNet(sc.blocks, sc.width, 3, 10, rng)
	nn.SetBufferReuse(net, true)
	if sc.precision == kfac.F32 {
		nn.SetComputeF32(net, true)
	}
	opts := kfac.Options{
		FactorUpdateFreq: distBenchFacFreq, InvUpdateFreq: distBenchInvFreq, Damping: 1e-3,
		DistMode: sc.mode, GradWorkerFrac: sc.frac,
		Precision: sc.precision,
	}
	if sc.autotune {
		opts.Autotune = &kfac.AutotuneConfig{}
	}
	prec := kfac.NewFromOptions(net, c, opts)
	defer prec.Close()
	if rank == 0 {
		plan := prec.Plan()
		res.DistMode = plan.Mode.String()
		res.GradWorkerFrac = plan.GradWorkerFrac
		res.Params = nn.ParamCount(net)
		res.KFACLayers = prec.NumLayers()
	}

	ce := nn.CrossEntropy{}
	x := tensor.Randn(rng, 1, sc.batch, 16, 16, 3)
	labels := make([]int, sc.batch)
	for i := range labels {
		labels[i] = rng.Intn(10)
	}
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
	// Warmup: first factor + decomposition update, workspaces settle.
	for i := 0; i < 2; i++ {
		if err := ctx.Err(); err != nil {
			return 0, err
		}
		if err := step(); err != nil {
			return 0, err
		}
	}
	statsBefore := prec.Stats().Snapshot()
	var total, min, max time.Duration
	for i := 0; i < sc.steps; i++ {
		if err := ctx.Err(); err != nil {
			return 0, err
		}
		t0 := time.Now()
		if err := step(); err != nil {
			return 0, err
		}
		d := time.Since(t0)
		total += d
		if min == 0 || d < min {
			min = d
		}
		if d > max {
			max = d
		}
	}
	statsAfter := prec.Stats().Snapshot()
	if rank == 0 {
		res.StepTimeMeanNS = int64(total) / int64(sc.steps)
		res.StepTimeMinNS = int64(min)
		res.StepTimeMaxNS = int64(max)
		res.FactorComputeNS = int64(statsAfter.FactorCompute - statsBefore.FactorCompute)
		res.FactorCommNS = int64(statsAfter.FactorComm - statsBefore.FactorComm)
		res.EigComputeNS = int64(statsAfter.EigCompute - statsBefore.EigCompute)
		res.EigCommNS = int64(statsAfter.EigComm - statsBefore.EigComm)
		res.PreconditionNS = int64(statsAfter.Precondition - statsBefore.Precondition)
	}
	return statsAfter.PeakFactorBytes, nil
}

// runDistBenchScenario measures one distribution-mode cell: world ranks in
// lockstep over an in-process fabric. Step wall time is rank 0's; the
// per-rank peak factor memory comes from each rank's StageStats.
func runDistBenchScenario(ctx context.Context, sc distScenario, seed int64) (*BenchResult, error) {
	fab := comm.NewInprocFabric(sc.world)
	// Hard-abort context for the communicators: a rank that stops early
	// (cancellation, step error) would otherwise leave its peers blocked
	// forever inside a collective on the in-process fabric. Cancelling it
	// fails their receives fast so wg.Wait always returns.
	abortCtx, abort := context.WithCancel(context.Background())
	defer abort()
	res := newDistBenchResult(sc)

	errs := make([]error, sc.world)
	var wg sync.WaitGroup
	for r := 0; r < sc.world; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			defer func() {
				if errs[r] != nil {
					abort()
				}
			}()
			c := comm.NewCommunicator(fab.Endpoint(r)).WithContext(abortCtx)
			peak, err := runDistRank(ctx, sc, seed, c, res)
			if err != nil {
				errs[r] = err
				return
			}
			res.PeakFactorBytesPerRank[r] = peak
		}(r)
	}
	wg.Wait()
	// Prefer the originating failure over the context errors the hard
	// abort induced in peers.
	var ctxErr error
	for r, err := range errs {
		switch {
		case err == nil:
		case errors.Is(err, context.Canceled):
			if ctxErr == nil {
				ctxErr = fmt.Errorf("rank %d: %w", r, err)
			}
		default:
			return nil, fmt.Errorf("rank %d: %w", r, err)
		}
	}
	if ctxErr != nil {
		return nil, ctxErr
	}
	return res, nil
}

// runBenchScenario measures one scenario. The model trains on synthetic
// data with a fixed seed, so repeated runs measure the same computation.
func runBenchScenario(ctx context.Context, sc benchScenario, engine kfac.Engine, seed int64) (*BenchResult, error) {
	rng := rand.New(rand.NewSource(seed))
	net := models.BuildCIFARResNet(sc.blocks, sc.width, 3, 10, rng)
	nn.SetBufferReuse(net, true)
	if sc.precision == kfac.F32 {
		nn.SetComputeF32(net, true)
	}
	const facFreq, invFreq = 5, 10
	prec := kfac.NewFromOptions(net, nil, kfac.Options{
		FactorUpdateFreq: facFreq, InvUpdateFreq: invFreq, Damping: 1e-3, Engine: engine,
		Precision: sc.precision,
	})
	defer prec.Close()

	scenario := fmt.Sprintf("%s_%s", sc.model, engine)
	if sc.precision == kfac.F32 {
		scenario += "_f32"
	}
	plan := prec.Plan()
	res := &BenchResult{
		Schema:         BenchSchema,
		Scenario:       scenario,
		Model:          sc.model,
		Engine:         engine.String(),
		Precision:      sc.precision.String(),
		Fabric:         "local",
		World:          1,
		DistMode:       plan.Mode.String(),
		GradWorkerFrac: plan.GradWorkerFrac,
		GoMaxProcs:     runtime.GOMAXPROCS(0),
		GoVersion:      runtime.Version(),
		Params:         nn.ParamCount(net),
		KFACLayers:     prec.NumLayers(),
		BatchSize:      sc.batch,

		Steps:            sc.steps,
		FactorUpdateFreq: facFreq,
		InvUpdateFreq:    invFreq,
	}

	ce := nn.CrossEntropy{}
	x := tensor.Randn(rng, 1, sc.batch, 16, 16, 3)
	labels := make([]int, sc.batch)
	for i := range labels {
		labels[i] = rng.Intn(10)
	}
	params := net.Params() // cached: Params() rebuilds its slice every call
	step := func() error {
		out := net.Forward(x, true)
		_, grad := ce.Loss(out, labels)
		for _, p := range params {
			p.ZeroGrad()
		}
		net.Backward(grad)
		return prec.Step(0.1)
	}

	// Warmup: settles every reuse workspace and runs the first factor +
	// decomposition update.
	for i := 0; i < 2; i++ {
		if err := step(); err != nil {
			return nil, err
		}
	}

	// Mixed phase.
	statsBefore := prec.Stats().Snapshot()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	var total, min, max time.Duration
	for i := 0; i < sc.steps; i++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		t0 := time.Now()
		if err := step(); err != nil {
			return nil, err
		}
		d := time.Since(t0)
		total += d
		if min == 0 || d < min {
			min = d
		}
		if d > max {
			max = d
		}
	}
	runtime.ReadMemStats(&ms1)
	statsAfter := prec.Stats().Snapshot()

	res.StepTimeMeanNS = int64(total) / int64(sc.steps)
	res.StepTimeMinNS = int64(min)
	res.StepTimeMaxNS = int64(max)
	res.AllocsPerStep = float64(ms1.Mallocs-ms0.Mallocs) / float64(sc.steps)
	res.BytesPerStep = float64(ms1.TotalAlloc-ms0.TotalAlloc) / float64(sc.steps)
	res.FactorComputeNS = int64(statsAfter.FactorCompute - statsBefore.FactorCompute)
	res.FactorCommNS = int64(statsAfter.FactorComm - statsBefore.FactorComm)
	res.EigComputeNS = int64(statsAfter.EigCompute - statsBefore.EigCompute)
	res.EigCommNS = int64(statsAfter.EigComm - statsBefore.EigComm)
	res.PreconditionNS = int64(statsAfter.Precondition - statsBefore.Precondition)
	overlapBefore := statsBefore.PipelineWork - statsBefore.PipelineWall
	overlapAfter := statsAfter.PipelineWork - statsAfter.PipelineWall
	if d := overlapAfter - overlapBefore; d > 0 {
		res.OverlapNS = int64(d)
	}

	// Steady phase: freeze updates so every step is stale-decomposition
	// preconditioning only — the zero-allocation hot path.
	prec.SetFactorUpdateFreq(1 << 30)
	prec.SetInvUpdateFreq(1 << 30)
	if err := step(); err != nil { // re-settle after the frequency change
		return nil, err
	}
	steadySteps := sc.steps
	runtime.ReadMemStats(&ms0)
	t0 := time.Now()
	for i := 0; i < steadySteps; i++ {
		if err := step(); err != nil {
			return nil, err
		}
	}
	steadyTotal := time.Since(t0)
	runtime.ReadMemStats(&ms1)
	res.SteadySteps = steadySteps
	res.SteadyStepTimeNS = int64(steadyTotal) / int64(steadySteps)
	res.SteadyAllocsPerStep = float64(ms1.Mallocs-ms0.Mallocs) / float64(steadySteps)
	res.SteadyBytesPerStep = float64(ms1.TotalAlloc-ms0.TotalAlloc) / float64(steadySteps)
	res.PeakFactorBytesPerRank = []int64{prec.Stats().Snapshot().PeakFactorBytes}
	return res, nil
}
