// Package simulate is the cluster performance model used to regenerate the
// paper's ImageNet-scale measurements (Tables III–VI, Figures 5–10) without
// the 16–256 V100 GPUs the authors used.
//
// There is one cost model. PlanModel (plancost.go) builds the real
// kfac.Plan for a candidate configuration and prices every collective the
// step engines issue under it on a node/rack Topology (topology.go): the
// packed-triangle factor allreduce, the per-factor decomposition
// broadcasts to each recipient set, the slowest owner's decompositions
// (load imbalance, Table VI, comes from the real placement code, not a
// curve fit), the slowest gradient worker's preconditioning and one result
// broadcast per root. kfac-sim, ctl.PlacementHint, the auto planner and
// the calibration gate use it directly.
//
// Model (this file) is the paper's layer on top of one PlanModel.Evaluate:
//
//   - the cluster (ClusterConfig) as a flat Topology whose links carry a
//     latency that grows with scale (switch contention and stragglers),
//     plus a contention multiplier on K-FAC's bulk factor and
//     decomposition payloads;
//   - FLOP-derived forward/backward and factor-compute times from the
//     exact layer catalogs in internal/models, with a sublinear model-size
//     exponent calibrated to the paper's measured per-iteration times;
//   - the SGD iteration with its overlapped gradient allreduce;
//   - a per-iteration K-FAC bookkeeping overhead calibrated against the
//     residuals implied by Table III, quadratic in parameter count;
//   - the paper's scale-proportional update frequency (PaperInvFreq) and
//     the convergence curves (convergence.go).
//
// The experiments built on it (internal/experiments) print paper-vs-model
// numbers for every artifact; TestCalibration gates PlanModel against
// measured runs.
package simulate

import (
	"math"

	"repro/internal/kfac"
	"repro/internal/models"
)

// ClusterConfig holds the calibrated constants of the modeled cluster
// (Frontera GPU subsystem: 4×V100 nodes, EDR InfiniBand).
type ClusterConfig struct {
	// AlphaBaseSec is the per-step collective latency at small scale.
	AlphaBaseSec float64
	// AlphaContentionGPUs controls latency growth: α(p) = base·(1+p/this).
	AlphaContentionGPUs float64
	// BetaBytesPerSec is effective point-to-point bandwidth.
	BetaBytesPerSec float64
	// FlopsPerSec is effective FP32 training throughput at the reference
	// model size (ResNet-50), including framework and input-pipeline
	// overheads.
	FlopsPerSec float64
	// SublinearExponent maps relative model FLOPs to relative time:
	// t ∝ (F/F_ref)^exponent. Calibrated to the paper's measured
	// 190/260/368 ms iteration times for ResNet-50/101/152.
	SublinearExponent float64
	// FactorFlopsPerSec is the near-peak GEMM throughput of the factor
	// products and preconditioning rotations.
	FactorFlopsPerSec float64
	// EigFlopsPerSec is the effective symmetric-eigensolver throughput.
	EigFlopsPerSec float64
	// BytesPerElem is the wire size of one element (paper: FP32 = 4).
	BytesPerElem float64
	// OverlapFraction is the fraction of forward+backward compute the
	// gradient allreduce can hide behind (Figure 1 pipeline).
	OverlapFraction float64
	// PerIterOverheadSec is the per-iteration K-FAC bookkeeping cost at the
	// reference parameter count; scales with (params/ref)².
	PerIterOverheadSec float64
	// RefParams anchors the per-iteration overhead scaling (ResNet-50).
	RefParams float64
	// StageContentionGPUs controls the multiplier on K-FAC's bulk factor
	// collectives: 1 + (p/this)².
	StageContentionGPUs float64
	// PerFactorOverheadSec is the fixed cost of launching one
	// eigendecomposition (kernel launch, host sync, workspace setup). It
	// floors the fastest workers' times, which is why the paper's Table VI
	// max speedups saturate around 6–8× instead of scaling with factor
	// count.
	PerFactorOverheadSec float64
}

// DefaultV100Cluster returns the constants calibrated against the paper's
// Table III (64-GPU training minutes) and Table V (stage profiles).
func DefaultV100Cluster() ClusterConfig {
	return ClusterConfig{
		AlphaBaseSec:         0.25e-3,
		AlphaContentionGPUs:  128,
		BetaBytesPerSec:      10e9,
		FlopsPerSec:          4.0e12,
		SublinearExponent:    0.65,
		FactorFlopsPerSec:    28e12,
		EigFlopsPerSec:       0.40e12,
		BytesPerElem:         4,
		OverlapFraction:      0.3,
		PerIterOverheadSec:   26e-3,
		RefParams:            25.5e6,
		StageContentionGPUs:  128,
		PerFactorOverheadSec: 20e-3,
	}
}

// alpha returns the effective per-step latency at world size p.
func (c ClusterConfig) alpha(p int) float64 {
	return c.AlphaBaseSec * (1 + float64(p)/c.AlphaContentionGPUs)
}

// Topology returns the paper cluster at world size p as a flat Topology:
// all three link classes are {α(p), β}, so every collective the paper
// model prices goes through the same Topology arithmetic PlanModel uses.
func (c ClusterConfig) Topology(p int) Topology {
	l := Link{AlphaSec: c.alpha(p), BetaBytesPerSec: c.BetaBytesPerSec}
	return Topology{RanksPerNode: 1, NodesPerRack: 1, IntraNode: l, InterNode: l, InterRack: l}
}

// stageContention returns the congestion multiplier for K-FAC's bulk
// factor payloads at world size p.
func (c ClusterConfig) stageContention(p int) float64 {
	x := float64(p) / c.StageContentionGPUs
	return 1 + x*x
}

// refFwdFLOPs is the forward GEMM cost per image of the reference model.
var refFwdFLOPs = catalogFwdFLOPs(models.ResNet50Catalog())

func catalogFwdFLOPs(c *models.Catalog) float64 {
	var f float64
	for _, l := range c.Layers {
		f += 2 * float64(l.ADim) * float64(l.GDim) * float64(l.SpatialOut)
	}
	return f
}

// Workload describes one training job.
type Workload struct {
	Catalog     *models.Catalog
	BatchPerGPU int // paper: 32
	TrainImages int // paper: ~1.28 M for ImageNet-1k
}

// ImageNetWorkload returns the paper's standard job for a model catalog.
func ImageNetWorkload(c *models.Catalog) Workload {
	return Workload{Catalog: c, BatchPerGPU: 32, TrainImages: 1_281_167}
}

// Model evaluates iteration and stage times for a workload on a cluster.
type Model struct {
	Cluster  ClusterConfig
	Workload Workload
	// DistMode and GradWorkerFrac select the distribution plan the K-FAC
	// stages are priced under. The zero value, DistAuto, is the strategy's
	// own mode (kfac.ResolveDistMode) — the paper's configurations.
	DistMode       kfac.DistMode
	GradWorkerFrac float64
}

// NewModel pairs a cluster with a workload.
func NewModel(cluster ClusterConfig, w Workload) *Model {
	return &Model{Cluster: cluster, Workload: w}
}

// IterationsPerEpoch returns the iteration count per epoch at world size p.
func (m *Model) IterationsPerEpoch(p int) int {
	global := m.Workload.BatchPerGPU * p
	return (m.Workload.TrainImages + global - 1) / global
}

// fwdFLOPsPerImage sums 2·ADim·GDim·spatial over catalog layers.
func (m *Model) fwdFLOPsPerImage() float64 { return catalogFwdFLOPs(m.Workload.Catalog) }

// FwdBwdTime returns the per-iteration forward+backward compute time:
// backward ≈ 2× forward, throughput adjusted by the sublinear model-size
// exponent relative to ResNet-50.
func (m *Model) FwdBwdTime() float64 {
	f := m.fwdFLOPsPerImage()
	refTime := 3 * refFwdFLOPs * float64(m.Workload.BatchPerGPU) / m.Cluster.FlopsPerSec
	return refTime * math.Pow(f/refFwdFLOPs, m.Cluster.SublinearExponent)
}

// GradBytes returns the size of one gradient exchange.
func (m *Model) GradBytes() float64 {
	return float64(m.Workload.Catalog.TotalParams()) * m.Cluster.BytesPerElem
}

// SGDIterTime models one synchronous-SGD iteration: forward+backward plus
// the non-overlapped remainder of the gradient allreduce.
func (m *Model) SGDIterTime(p int) float64 {
	fb := m.FwdBwdTime()
	ar := m.Cluster.Topology(p).RingAllreduceCost(m.GradBytes(), p)
	exposed := ar - m.Cluster.OverlapFraction*fb
	if exposed < 0 {
		exposed = 0
	}
	return fb + exposed
}

// evaluate prices the plan the model runs at world p on the paper cluster,
// with the stages amortized at the given update intervals: BuildPlan under
// the strategy and the model's DistMode (DistAuto resolves to the
// strategy's own mode), every collective priced by PlanModel.Evaluate on
// ClusterConfig.Topology(p).
func (m *Model) evaluate(p, facFreq, invFreq int, strategy kfac.Strategy) PlanEval {
	pm := NewPlanModel(m.Cluster.Topology(p), m.Cluster)
	pm.FactorUpdateFreq, pm.InvUpdateFreq = facFreq, invFreq
	cand := kfac.PlanCandidate{
		Mode:           kfac.ResolveDistMode(m.DistMode, strategy),
		GradWorkerFrac: m.GradWorkerFrac,
	}
	return pm.Evaluate(strategy, m.Workload.Catalog.FactorRefs(), p, cand)
}

// factorComputeTime is one factor update's compute: every GPU forms every
// layer's A and G over its local batch, so it is independent of p (the
// Table V observation).
func (m *Model) factorComputeTime() float64 {
	var flops float64
	b := float64(m.Workload.BatchPerGPU)
	for _, l := range m.Workload.Catalog.Layers {
		da := float64(l.FactorADim())
		dg := float64(l.GDim)
		s := float64(l.SpatialOut)
		flops += 2 * b * s * (da*da + dg*dg)
	}
	return flops / m.Cluster.FactorFlopsPerSec
}

// FactorStage returns the (compute, communication) time of one factor
// update: the p-independent factor compute, then the allreduce of the
// running averages as the plan ships them (packed triangles). comm
// excludes the contention multiplier; callers that amortize stage costs
// apply it via stageContention.
func (m *Model) FactorStage(p int) (comp, comm float64) {
	return m.factorComputeTime(), m.evaluate(p, 1, 1, kfac.RoundRobin).FactorCommSec
}

// WorkerEigTimes returns the per-worker time of one decomposition update
// under the given placement strategy — the quantity whose min/max spread
// Table VI reports.
func (m *Model) WorkerEigTimes(p int, strategy kfac.Strategy) []float64 {
	return m.evaluate(p, 1, 1, strategy).EigSecPerRank
}

// EigStage returns the (compute, communication) time of one decomposition
// update: compute is bounded by the slowest worker; comm is the plan's
// per-factor broadcasts to each factor's recipient set (zero under
// LayerWise's default MEM-OPT plan, whose results stay on the owner).
func (m *Model) EigStage(p int, strategy kfac.Strategy) (comp, comm float64) {
	ev := m.evaluate(p, 1, 1, strategy)
	return ev.EigComputeSec, ev.EigCommSec
}

// perIterOverhead is the calibrated per-iteration K-FAC bookkeeping cost
// (hook capture, in-place gradient rewrites, ν scaling): quadratic in
// relative parameter count, matching Table III residuals.
func (m *Model) perIterOverhead() float64 {
	r := float64(m.Workload.Catalog.TotalParams()) / m.Cluster.RefParams
	return m.Cluster.PerIterOverheadSec * r * r
}

// KFACIterAvgTime returns the average per-iteration time of K-FAC training
// with decomposition interval invFreq (kfac-update-freq); factors update
// 10× as often (paper §V-C). Strategy selects the placement. On top of the
// SGD iteration it adds the amortized factor compute and the plan's priced
// stages — factor and decomposition communication under the contention
// multiplier, the slowest worker's decompositions, the slowest gradient
// worker's preconditioning and the per-root result broadcasts — plus the
// bookkeeping overhead, of which K-FAC-lw pays half (no rank
// preconditions every layer).
func (m *Model) KFACIterAvgTime(p, invFreq int, strategy kfac.Strategy) float64 {
	invFreq = max(invFreq, 1)
	facFreq := max(invFreq/10, 1)
	ev := m.evaluate(p, facFreq, invFreq, strategy)
	cont := m.Cluster.stageContention(p)
	overhead := m.perIterOverhead()
	if strategy == kfac.LayerWise {
		overhead *= 0.5
	}
	return m.SGDIterTime(p) + m.factorComputeTime()/float64(facFreq) +
		ev.FactorCommSec*cont + ev.EigComputeSec + ev.EigCommSec*cont +
		ev.PrecondSec + ev.ResultBcastSec + overhead
}

// PaperInvFreq returns the paper's scale-proportional kfac-update-freq
// (constant per epoch): 2000, 1000, 500, 250, 125 at 16…256 GPUs.
func PaperInvFreq(p int) int {
	f := 2000 * 16 / p
	if f < 1 {
		f = 1
	}
	return f
}

// RunSpec describes one time-to-solution projection, mirroring the paper's
// §VI-C3 methodology (measured time per epoch × epoch budget).
type RunSpec struct {
	GPUs     int
	Epochs   int
	Strategy kfac.Strategy // used when KFAC is true
	KFAC     bool
	InvFreq  int // 0 = PaperInvFreq(GPUs)
}

// TimeToSolutionMin evaluates a RunSpec in minutes.
func (m *Model) TimeToSolutionMin(spec RunSpec) float64 {
	iters := m.IterationsPerEpoch(spec.GPUs) * spec.Epochs
	var perIter float64
	if spec.KFAC {
		f := spec.InvFreq
		if f == 0 {
			f = PaperInvFreq(spec.GPUs)
		}
		perIter = m.KFACIterAvgTime(spec.GPUs, f, spec.Strategy)
	} else {
		perIter = m.SGDIterTime(spec.GPUs)
	}
	return float64(iters) * perIter / 60
}

// ScalingEfficiency returns T(base)·base / (T(p)·p): sustained utilization
// relative to the base scale.
func (m *Model) ScalingEfficiency(spec RunSpec, baseGPUs int) float64 {
	base := spec
	base.GPUs = baseGPUs
	tBase := m.TimeToSolutionMin(base)
	tP := m.TimeToSolutionMin(spec)
	if tP == 0 {
		return 0
	}
	return tBase * float64(baseGPUs) / (tP * float64(spec.GPUs))
}
