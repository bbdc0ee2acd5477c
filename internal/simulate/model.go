// Package simulate is the cluster performance model used to regenerate the
// paper's ImageNet-scale measurements (Tables III–VI, Figures 5–10) without
// the 16–256 V100 GPUs the authors used.
//
// The model combines:
//
//   - α–β communication costs for the ring allreduce / allgather / broadcast
//     algorithms implemented in internal/comm, with an effective latency
//     that grows with scale (switch contention and stragglers) and a
//     contention multiplier on K-FAC's large factor payloads;
//   - FLOP-derived compute times from the exact layer catalogs in
//     internal/models, with a sublinear model-size exponent calibrated to
//     the paper's measured per-iteration times (deeper models achieve
//     better GPU utilization than raw FLOPs predict);
//   - eigendecomposition stage time = max over workers of Σ 9n³/throughput,
//     where the factor→worker assignment comes from the *real* placement
//     code in internal/kfac — load imbalance (Table VI) is produced by the
//     algorithm, not curve-fit;
//   - a per-iteration K-FAC overhead (hook capture, preconditioning GEMMs,
//     ν scaling, framework bookkeeping) calibrated against the residual
//     per-iteration costs implied by Table III and scaling quadratically
//     with parameter count, matching the measured 26/84/173 ms residuals
//     for ResNet-50/101/152.
//
// The experiments built on it (internal/experiments) print paper-vs-model
// numbers for every artifact; TestCalibration gates the model against
// measured runs.
package simulate

import (
	"fmt"
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

// ringAllreduceTime is the α–β cost of a ring allreduce of b bytes on p
// ranks: 2(p−1) latency steps and 2(p−1)/p bandwidth factors.
func (m *Model) ringAllreduceTime(b float64, p int) float64 {
	if p <= 1 {
		return 0
	}
	steps := float64(2 * (p - 1))
	return steps*m.Cluster.alpha(p) + 2*float64(p-1)/float64(p)*b/m.Cluster.BetaBytesPerSec
}

// ringAllgatherTime is the α–β cost of gathering b total bytes on p ranks.
func (m *Model) ringAllgatherTime(b float64, p int) float64 {
	if p <= 1 {
		return 0
	}
	steps := float64(p - 1)
	return steps*m.Cluster.alpha(p) + float64(p-1)/float64(p)*b/m.Cluster.BetaBytesPerSec
}

// broadcastTime is the α–β cost of a binomial-tree broadcast of b bytes.
func (m *Model) broadcastTime(b float64, p int) float64 {
	if p <= 1 {
		return 0
	}
	steps := math.Ceil(math.Log2(float64(p)))
	return steps * (m.Cluster.alpha(p) + b/m.Cluster.BetaBytesPerSec)
}

// SGDIterTime models one synchronous-SGD iteration: forward+backward plus
// the non-overlapped remainder of the gradient allreduce.
func (m *Model) SGDIterTime(p int) float64 {
	fb := m.FwdBwdTime()
	ar := m.ringAllreduceTime(m.GradBytes(), p)
	exposed := ar - m.Cluster.OverlapFraction*fb
	if exposed < 0 {
		exposed = 0
	}
	return fb + exposed
}

// FactorBytes returns the wire size of all Kronecker factors.
func (m *Model) FactorBytes() float64 {
	var elems float64
	for _, l := range m.Workload.Catalog.Layers {
		da := float64(l.FactorADim())
		dg := float64(l.GDim)
		elems += da*da + dg*dg
	}
	return elems * m.Cluster.BytesPerElem
}

// FactorStage returns the (compute, communication) time of one factor
// update: every GPU computes all factors over its local batch (compute
// independent of p — the Table V observation), then the running averages
// are allreduced. comm excludes the contention multiplier; callers that
// amortize stage costs apply it via stageContention.
func (m *Model) FactorStage(p int) (comp, comm float64) {
	var flops float64
	b := float64(m.Workload.BatchPerGPU)
	for _, l := range m.Workload.Catalog.Layers {
		da := float64(l.FactorADim())
		dg := float64(l.GDim)
		s := float64(l.SpatialOut)
		flops += 2 * b * s * (da*da + dg*dg)
	}
	comp = flops / m.Cluster.FactorFlopsPerSec
	comm = m.ringAllreduceTime(m.FactorBytes(), p)
	return comp, comm
}

// WorkerEigTimes returns the per-worker eigendecomposition time under the
// given placement strategy — the quantity whose min/max spread Table VI
// reports.
func (m *Model) WorkerEigTimes(p int, strategy kfac.Strategy) []float64 {
	refs := m.Workload.Catalog.FactorRefs()
	assign := kfac.Assign(strategy, refs, p)
	loads := kfac.WorkerLoads(refs, assign, p)
	counts := make([]int, p)
	for _, w := range assign {
		counts[w]++
	}
	out := make([]float64, p)
	for i, l := range loads {
		out[i] = l/m.Cluster.EigFlopsPerSec +
			float64(counts[i])*m.Cluster.PerFactorOverheadSec
	}
	return out
}

// EigStage returns the (compute, communication) time of one decomposition
// update: compute is bounded by the slowest worker; comm is the allgather
// of eigenvectors+values (zero under LayerWise, whose results stay local).
func (m *Model) EigStage(p int, strategy kfac.Strategy) (comp, comm float64) {
	for _, t := range m.WorkerEigTimes(p, strategy) {
		if t > comp {
			comp = t
		}
	}
	if strategy == kfac.LayerWise {
		return comp, 0
	}
	comm = m.ringAllgatherTime(m.FactorBytes(), p)
	return comp, comm
}

// PrecondTime returns the per-iteration preconditioning GEMM cost
// (Equations 13–15: two rotation GEMM pairs per layer) at near-peak GEMM
// throughput.
func (m *Model) PrecondTime() float64 {
	var flops float64
	for _, l := range m.Workload.Catalog.Layers {
		da := float64(l.FactorADim())
		dg := float64(l.GDim)
		flops += 2 * 2 * (da*da*dg + da*dg*dg)
	}
	return flops / m.Cluster.FactorFlopsPerSec
}

// PrecondTimeLayerWise returns the slowest worker's preconditioning GEMM
// cost when whole layers are distributed (K-FAC-lw).
func (m *Model) PrecondTimeLayerWise(p int) float64 {
	loads := make([]float64, p)
	for i, l := range m.Workload.Catalog.Layers {
		da := float64(l.FactorADim())
		dg := float64(l.GDim)
		loads[i%p] += 2 * 2 * (da*da*dg + da*dg*dg)
	}
	var maxLoad float64
	for _, v := range loads {
		if v > maxLoad {
			maxLoad = v
		}
	}
	return maxLoad / m.Cluster.FactorFlopsPerSec
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
// 10× as often (paper §V-C). Strategy selects the distribution scheme.
func (m *Model) KFACIterAvgTime(p, invFreq int, strategy kfac.Strategy) float64 {
	if invFreq < 1 {
		invFreq = 1
	}
	facFreq := invFreq / 10
	if facFreq < 1 {
		facFreq = 1
	}
	cont := m.Cluster.stageContention(p)
	t := m.SGDIterTime(p)
	fComp, fComm := m.FactorStage(p)
	eComp, eComm := m.EigStage(p, strategy)
	t += (fComp + fComm*cont) / float64(facFreq)
	t += (eComp + eComm*cont) / float64(invFreq)
	if strategy == kfac.LayerWise {
		// Owner preconditions its layers; every layer's preconditioned
		// gradient is then broadcast every iteration (non-overlapped), and
		// only part of the bookkeeping overhead applies (no local
		// preconditioning of all layers on every rank).
		t += 0.5 * m.perIterOverhead()
		t += m.PrecondTimeLayerWise(p)
		t += m.broadcastTime(m.GradBytes(), p)
	} else {
		t += m.perIterOverhead()
		t += m.PrecondTime()
	}
	return t
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

// RingAllreduceTime exposes the α–β ring-allreduce cost for ablations
// (e.g. the fusion-buffer sweep).
func (m *Model) RingAllreduceTime(bytes float64, p int) float64 {
	return m.ringAllreduceTime(bytes, p)
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

// String describes the model briefly.
func (m *Model) String() string {
	return fmt.Sprintf("simulate.Model{%s, batch/GPU=%d}", m.Workload.Catalog.Name, m.Workload.BatchPerGPU)
}
