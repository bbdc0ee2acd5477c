package main

import (
	"encoding/json"
	"fmt"
	"os"
	"time"

	"repro/internal/kfac"
)

// metricDef names one metric and its unit. BENCHMARK.json lists the same
// names (the smoke test holds the two lists equal) and adds direction and
// bound for the end-to-end ones.
type metricDef struct{ Name, Unit string }

// endToEnd is what a user of the trainer sees; every workload reports every
// one of them, from the untraced run.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"samples_per_s", "samples/s"},
	{"step_ms_p50", "ms"},
	{"step_ms_tail", "ms"},
	{"peak_rss_mb", "MB"},
	{"peak_factor_mb_max_rank", "MB"},
}

// perLayer is reported by the traced run, one group per repo package. A
// metric that does not apply to a workload (comm on world 1, trainer on the
// step workloads) reads 0 there.
var perLayer = []metricDef{
	{"nn.forward_ms_per_step", "ms"},
	{"nn.loss_ms_per_step", "ms"},
	{"nn.backward_ms_per_step", "ms"},

	{"tensor.gemm_ms_per_call", "ms"},
	{"tensor.gemm_gflops", "GFLOP/s"},
	{"tensor.gemm32_gflops", "GFLOP/s"},
	{"tensor.im2col_ms_per_call", "ms"},

	{"linalg.symmul_gflops", "GFLOP/s"},
	{"linalg.symmul32_gflops", "GFLOP/s"},
	{"linalg.eig_ms_dim_max", "ms"},
	{"linalg.eig_gflops_dim_max", "GFLOP/s"},
	{"linalg.eig_tridiag_ms_per_update", "ms"},
	{"linalg.eig_backaccum_ms_per_update", "ms"},
	{"linalg.eig_ql_ms_per_update", "ms"},

	{"kfac.step_ms_per_step", "ms"},
	{"kfac.factor_compute_ms_per_update", "ms"},
	{"kfac.factor_comm_ms_per_update", "ms"},
	{"kfac.eig_compute_ms_per_update", "ms"},
	{"kfac.eig_comm_ms_per_update", "ms"},
	{"kfac.precondition_ms_per_step", "ms"},
	{"kfac.factor_updates", "count/cycle"},
	{"kfac.eig_updates", "count/cycle"},
	{"kfac.pipeline_overlap_ms_per_update", "ms"},
	{"kfac.pipeline_idle_ms_per_update", "ms"},
	{"kfac.other_ms_per_step", "ms"},
	{"kfac.step_allocs_per_step", "count"},
	{"kfac.step_bytes_per_step", "B"},
	{"kfac.overhead_x", "x"},

	{"comm.grad_exchange_ms_per_step", "ms"},
	{"comm.wire_mb_per_step", "MB"},
	{"comm.send_calls_per_step", "count"},
	{"comm.bytes_per_send", "B"},
	{"comm.recv_wait_ms_per_step", "ms"},
	{"comm.injected_delay_ms_per_step", "ms"},
	{"comm.dropped", "count"},
	{"comm.retried", "count"},
	{"comm.exposed_share", "fraction"},

	{"optim.step_ms_per_step", "ms"},
	{"optim.zero_grad_ms_per_step", "ms"},
	{"optim.sgd_step_ms_p50", "ms"},

	{"sched.cpu_ms_per_step", "ms"},
	{"sched.cpu_util", "fraction"},

	{"trainer.time_to_target_s", "s"},
	{"trainer.epochs_to_target", "epochs"},
	{"trainer.val_acc_final", "fraction"},
	{"trainer.step_ms_p50", "ms"},
	{"trainer.epoch_s_p50", "s"},
	{"trainer.nonstep_s_per_epoch", "s"},
	{"trainer.sgd_epoch_s_p50", "s"},
	{"trainer.sgd_val_acc_at_budget", "fraction"},

	{"data.generate_s", "s"},
	{"data.batches_ms_per_epoch", "ms"},

	{"checkpoint.save_ms", "ms"},
	{"checkpoint.bytes", "B"},
}

// exactMetrics repeat exactly between two runs of one commit with one seed;
// -compare demands equality on them instead of applying a bound.
var exactMetrics = map[string]bool{
	"peak_factor_mb_max_rank":         true,
	"comm.wire_mb_per_step":           true,
	"comm.send_calls_per_step":        true,
	"kfac.factor_updates":             true,
	"kfac.eig_updates":                true,
	"trainer.epochs_to_target":        true,
	"trainer.val_acc_final":           true,
	"comm.dropped":                    true,
	"comm.retried":                    true,
	"checkpoint.bytes":                true,
	"comm.injected_delay_ms_per_step": true,
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricSet holds one run's metrics; set refuses a name outside its defs so
// a typo cannot add a metric BENCHMARK.json does not list.
type metricSet map[string]metricValue

func newMetricSet(defs []metricDef) metricSet {
	m := make(metricSet, len(defs))
	for _, d := range defs {
		m[d.Name] = metricValue{Unit: d.Unit}
	}
	return m
}

func (m metricSet) set(name string, v float64) {
	mv, ok := m[name]
	if !ok {
		panic(fmt.Sprintf("benchmark: metric %q is not declared in spec.go", name))
	}
	mv.Value = v
	m[name] = mv
}

// benchSpec is the part of BENCHMARK.json this program reads.
type benchSpec struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readSpec(path string) (*benchSpec, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(raw, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// workload is one named input configuration. The step workloads share one
// harness-owned training loop; converge_w2 runs through trainer.RunSessionsOn.
type workload struct {
	Name string
	Why  string

	World         int
	Blocks, Width int // models.BuildCIFARResNet(blocks, width, 3, 10)
	Input, Batch  int // input is Input×Input, Batch per rank
	F32Pipelined  bool
	Dist          kfac.DistMode
	FactorFreq    int
	InvFreq       int // the timed phase runs whole cycles of InvFreq steps
	// Link puts the ranks on a ChaosFabric with a fixed α–β link (latency
	// and bandwidth, no drops), so communication costs wall time while the
	// arithmetic stays bit-identical to a clean fabric.
	Link bool

	// converge_w2 only.
	Converge    bool
	Train, Test int
	Epochs      int
	Target      float64
}

const (
	linkLatency   = 50 * time.Microsecond
	linkBandwidth = 100e6 // bytes/s
	// tailPct is the percentile step_ms_tail reports. The timed phase
	// always holds at least minTimedSteps steps, so ten or more samples lie
	// beyond it, and every workload's update schedule puts it inside one
	// band of step kinds (factor-update steps on stale_*, eig-update steps
	// elsewhere), not on the boundary between two.
	tailPct       = 90
	minTimedSteps = 100
	warmupSteps   = 2
	poolBatches   = 16
	stepLR        = 0.02 // step workloads: the pool of 16 batches is learnt by step 100 but not memorised within a run
	convergeLR    = 0.05 // converge_w2's base learning rate
)

var workloads = []workload{
	{
		Name:  "stale_w1",
		Why:   "Common iteration of the decoupled-update regime: fwd/bwd and stale-eigenbasis preconditioning dominate; exercises nn, tensor GEMM, kfac precondition; bypasses comm, mostly bypasses linalg eig.",
		World: 1, Blocks: 2, Width: 12, Input: 12, Batch: 8, FactorFreq: 5, InvFreq: 50,
	},
	{
		Name:  "refresh_w1",
		Why:   "Frequent-refresh regime (factors every step, eig every 5): the eigensolver dominates; exercises linalg blocked eigensolver, SymMul and sched eig teams; an eig gain shows here and barely on stale_w1.",
		World: 1, Blocks: 1, Width: 12, Input: 8, Batch: 8, FactorFreq: 1, InvFreq: 5,
	},
	{
		Name:  "stale_w1_f32_pipe",
		Why:   "stale_w1 on the other fork: float32 kernel twins and the pipelined engine; a gain for f64/sync that costs f32/pipelined shows as a difference between this row and stale_w1.",
		World: 1, Blocks: 2, Width: 12, Input: 12, Batch: 8, FactorFreq: 5, InvFreq: 50, F32Pipelined: true,
	},
	{
		Name:  "dist_commopt_w4",
		Why:   "COMM-OPT on 4 ranks over a link that costs wall time (50us + 100MB/s): ring allreduce, Fuser and decomposition allgather do the work; compute kernels are the minority.",
		World: 4, Blocks: 1, Width: 8, Input: 12, Batch: 4, FactorFreq: 1, InvFreq: 5, Dist: kfac.CommOpt, Link: true,
	},
	{
		Name:  "dist_memopt_w4",
		Why:   "Same ranks and link under MEM-OPT: no decomposition allgather but a preconditioned-gradient broadcast every step; a collective change that helps one dist row and hurts the other shows.",
		World: 4, Blocks: 1, Width: 8, Input: 12, Batch: 4, FactorFreq: 1, InvFreq: 5, Dist: kfac.MemOpt, Link: true,
	},
	{
		Name:  "converge_w2",
		Why:   "The paper's headline through the real trainer path on 2 ranks: sharded data, gradient exchange, distributed K-FAC, evaluation allreduce, hooks; K-FAC must reach the target accuracy within the cap.",
		World: 2, Blocks: 1, Width: 8, Input: 16, Batch: 16, FactorFreq: 1, InvFreq: 5,
		Converge: true, Train: 800, Test: 512, Epochs: 4, Target: 0.85,
	},
}

// smoke shrinks a workload to seconds-of-CI size: tiny model, 6 steps, one
// epoch. Every code path still runs; the numbers mean nothing.
func (w workload) smoke() workload {
	w.Blocks, w.Width, w.Input, w.Batch = 1, 4, 8, 4
	w.FactorFreq, w.InvFreq = min(w.FactorFreq, 3), 3
	if w.Converge {
		w.Train, w.Test, w.Epochs = 48, 16, 1
	}
	return w
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workload{}, false
}
