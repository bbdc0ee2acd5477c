package ctl

import (
	"fmt"
	"math/rand"
	"strings"

	"repro/internal/comm"
	"repro/internal/data"
	"repro/internal/kfac"
	"repro/internal/models"
	"repro/internal/nn"
)

// ModelSpec declares the trainable model a job builds on every rank. The
// kinds map onto the internal/models constructors; every rank (and every
// elastic recovery generation) rebuilds the identical architecture from
// this declaration.
type ModelSpec struct {
	// Kind selects the constructor family: "smallcnn", "cifar-resnet", or
	// "mlp".
	Kind string `json:"kind"`
	// Blocks and Width size the "cifar-resnet" kind (BuildCIFARResNet);
	// Width also sizes "smallcnn".
	Blocks int `json:"blocks,omitempty"`
	// Width is the base channel width of the convolutional kinds.
	Width int `json:"width,omitempty"`
	// Channels is the input channel count (default 3).
	Channels int `json:"channels,omitempty"`
	// Classes is the classifier output count (default 10).
	Classes int `json:"classes,omitempty"`
	// Dims are the layer widths of the "mlp" kind, input first.
	Dims []int `json:"dims,omitempty"`
}

func (m *ModelSpec) fillDefaults() {
	if m.Channels == 0 {
		m.Channels = 3
	}
	if m.Classes == 0 {
		m.Classes = 10
	}
}

func (m ModelSpec) validate() error {
	if m.Channels < 0 || m.Classes < 0 {
		return fmt.Errorf("ctl: model channels and classes must be ≥ 1 (0 = default), got %d/%d",
			m.Channels, m.Classes)
	}
	switch m.Kind {
	case "smallcnn":
		if m.Width < 1 {
			return fmt.Errorf("ctl: smallcnn needs width ≥ 1, got %d", m.Width)
		}
	case "cifar-resnet":
		if m.Blocks < 1 || m.Width < 1 {
			return fmt.Errorf("ctl: cifar-resnet needs blocks ≥ 1 and width ≥ 1, got %d/%d",
				m.Blocks, m.Width)
		}
	case "mlp":
		if len(m.Dims) < 2 {
			return fmt.Errorf("ctl: mlp needs ≥ 2 dims, got %v", m.Dims)
		}
		for _, d := range m.Dims {
			if d < 1 {
				return fmt.Errorf("ctl: mlp dims must be positive, got %v", m.Dims)
			}
		}
	default:
		return fmt.Errorf("ctl: unknown model kind %q (want smallcnn, cifar-resnet, or mlp)", m.Kind)
	}
	return nil
}

// params is the parameter count of the model Build constructs, from the
// closed-form counts beside the models constructors, so nothing is built
// to count it.
func (m ModelSpec) params() float64 {
	m.fillDefaults()
	switch m.Kind {
	case "smallcnn":
		return models.SmallCNNParams(m.Channels, m.Classes, m.Width)
	case "cifar-resnet":
		return models.CIFARResNetParams(m.Blocks, m.Width, m.Channels, m.Classes)
	case "mlp":
		return models.MLPParams(m.Dims)
	}
	return 0
}

// Build constructs the model. The rng only seeds the initial weights; the
// trainer's initial broadcast makes every rank's replica identical
// regardless.
func (m ModelSpec) Build(rng *rand.Rand) *nn.Sequential {
	m.fillDefaults()
	switch m.Kind {
	case "smallcnn":
		return models.BuildSmallCNN(m.Channels, m.Classes, m.Width, rng)
	case "cifar-resnet":
		return models.BuildCIFARResNet(m.Blocks, m.Width, m.Channels, m.Classes, rng)
	case "mlp":
		// The trainer feeds [N, H, W, C] batches; a leading Flatten adapts
		// them to the fully-connected stack.
		inner := models.BuildMLP("mlp", m.Dims, rng)
		return nn.NewSequential("mlp",
			append([]nn.Layer{nn.NewFlatten("mlp.flatten")}, inner.Layers...)...)
	}
	panic("ctl: Build on unvalidated ModelSpec")
}

// FactorRefs returns the model's K-FAC factor list in placement order —
// the input the admission controller feeds to kfac.BuildPlan. It derives
// the dimensions from a throwaway instance of the declared architecture,
// so the planning model can never drift from what the job actually trains.
func (m ModelSpec) FactorRefs() ([]kfac.FactorRef, error) {
	if err := m.validate(); err != nil {
		return nil, err
	}
	net := m.Build(rand.New(rand.NewSource(1)))
	layers := nn.CapturableLayers(net)
	refs := make([]kfac.FactorRef, 0, 2*len(layers))
	for i, l := range layers {
		da, dg := kfac.FactorDims(l)
		refs = append(refs, kfac.FactorRef{Layer: i, IsG: false, Dim: da})
		refs = append(refs, kfac.FactorRef{Layer: i, IsG: true, Dim: dg})
	}
	return refs, nil
}

// DataSpec declares the job's synthetic dataset (data.GenerateSynthetic).
// Every rank generates the full dataset from the same declaration and
// iterates its shard.
type DataSpec struct {
	// Train and Test are the split sizes.
	Train int `json:"train"`
	// Test is the held-out split size.
	Test int `json:"test"`
	// Classes is the label count (must match the model's Classes).
	Classes int `json:"classes"`
	// Channels and Size give the image geometry.
	Channels int `json:"channels"`
	// Size is the square image side length.
	Size int `json:"size"`
	// Noise is the additive Gaussian noise std.
	Noise float64 `json:"noise,omitempty"`
	// Shift is the max circular shift in pixels.
	Shift int `json:"shift,omitempty"`
	// Seed drives generation; identical on every rank.
	Seed int64 `json:"seed"`
}

func (d DataSpec) config() data.SyntheticConfig {
	return data.SyntheticConfig{
		Train: d.Train, Test: d.Test, Classes: d.Classes,
		Channels: d.Channels, Size: d.Size,
		Noise: d.Noise, Shift: d.Shift, Seed: d.Seed,
	}
}

func (d DataSpec) validate() error {
	if d.Train < 1 || d.Test < 1 {
		return fmt.Errorf("ctl: data needs train and test sizes ≥ 1, got %d/%d", d.Train, d.Test)
	}
	if d.Classes < 2 {
		return fmt.Errorf("ctl: data needs ≥ 2 classes, got %d", d.Classes)
	}
	if d.Channels < 1 || d.Size < 4 {
		return fmt.Errorf("ctl: data needs channels ≥ 1 and size ≥ 4, got %d/%d", d.Channels, d.Size)
	}
	return nil
}

// KFACSpec enables and configures K-FAC preconditioning for a job. Its
// distribution fields drive both the live preconditioner and the admission
// controller's memory plan — admission models exactly the placement the
// job will run.
type KFACSpec struct {
	// DistMode is "auto", "commopt", "memopt", or "hybrid".
	DistMode string `json:"dist_mode,omitempty"`
	// GradWorkerFrac sizes hybrid gradient-worker sets (0 < f < 1;
	// required iff DistMode is "hybrid").
	GradWorkerFrac float64 `json:"grad_worker_frac,omitempty"`
	// Damping is the Tikhonov γ (0 = paper default).
	Damping float64 `json:"damping,omitempty"`
	// FactorUpdateFreq is the factor recomputation interval (0 = default).
	FactorUpdateFreq int `json:"factor_update_freq,omitempty"`
	// InvUpdateFreq is the decomposition interval (0 = default).
	InvUpdateFreq int `json:"inv_update_freq,omitempty"`
	// Precision is "f64" (default) or "f32".
	Precision string `json:"precision,omitempty"`
	// Compression selects the payload codec for factor and gradient
	// exchanges: "none" (default), "float16", or "topk".
	Compression string `json:"compression,omitempty"`
	// TopKFraction is the kept-coordinate fraction of the "topk" codec
	// (0 < f ≤ 1; required iff Compression is "topk").
	TopKFraction float64 `json:"topk_fraction,omitempty"`
	// NoErrorFeedback disables residual compensation — the biased
	// estimator, exposed for A/B experiments only.
	NoErrorFeedback bool `json:"no_error_feedback,omitempty"`
	// Autotune enables the bandwidth-adaptive controller (overrides the
	// static compression fields from its first consensus decision on).
	Autotune bool `json:"autotune,omitempty"`
	// AutotuneInterval is the number of factor updates between consensus
	// decisions (0 = every factor update; requires Autotune).
	AutotuneInterval int `json:"autotune_interval,omitempty"`
}

// codec resolves the compression fields to a comm.Codec (nil = exact).
func (k KFACSpec) codec() (comm.Codec, error) {
	switch strings.ToLower(k.Compression) {
	case "", "none":
		if k.TopKFraction != 0 {
			return nil, fmt.Errorf("ctl: topk_fraction requires compression \"topk\"")
		}
		return nil, nil
	case "float16":
		if k.TopKFraction != 0 {
			return nil, fmt.Errorf("ctl: topk_fraction requires compression \"topk\"")
		}
		return comm.Float16Codec{}, nil
	case "topk":
		if k.TopKFraction <= 0 || k.TopKFraction > 1 {
			return nil, fmt.Errorf("ctl: compression topk needs topk_fraction in (0, 1], got %v",
				k.TopKFraction)
		}
		return comm.TopKCodec{FractionK: k.TopKFraction}, nil
	}
	return nil, fmt.Errorf("ctl: unknown compression %q (want none, float16, or topk)", k.Compression)
}

// distMode resolves the wire name to the kfac enum.
func (k KFACSpec) distMode() (kfac.DistMode, error) {
	switch strings.ToLower(k.DistMode) {
	case "", "auto":
		return kfac.DistAuto, nil
	case "commopt":
		return kfac.CommOpt, nil
	case "memopt":
		return kfac.MemOpt, nil
	case "hybrid":
		return kfac.Hybrid, nil
	}
	return 0, fmt.Errorf("ctl: unknown dist_mode %q (want auto, commopt, memopt, or hybrid)", k.DistMode)
}

// options resolves the spec into the kfac.Options the trainer consumes.
func (k KFACSpec) options() (kfac.Options, error) {
	mode, err := k.distMode()
	if err != nil {
		return kfac.Options{}, err
	}
	if mode == kfac.Hybrid && (k.GradWorkerFrac <= 0 || k.GradWorkerFrac >= 1) {
		return kfac.Options{}, fmt.Errorf(
			"ctl: dist_mode hybrid needs grad_worker_frac strictly between 0 and 1, got %v",
			k.GradWorkerFrac)
	}
	if mode != kfac.Hybrid && k.GradWorkerFrac != 0 {
		return kfac.Options{}, fmt.Errorf("ctl: grad_worker_frac requires dist_mode hybrid")
	}
	prec, err := kfac.ParsePrecision(k.Precision)
	if err != nil {
		return kfac.Options{}, fmt.Errorf("ctl: %w", err)
	}
	codec, err := k.codec()
	if err != nil {
		return kfac.Options{}, err
	}
	if k.NoErrorFeedback && codec == nil && !k.Autotune {
		return kfac.Options{}, fmt.Errorf("ctl: no_error_feedback requires a compression codec or autotune")
	}
	if k.AutotuneInterval != 0 && !k.Autotune {
		return kfac.Options{}, fmt.Errorf("ctl: autotune_interval requires autotune")
	}
	if k.AutotuneInterval < 0 {
		return kfac.Options{}, fmt.Errorf("ctl: autotune_interval must be ≥ 0, got %d", k.AutotuneInterval)
	}
	opts := kfac.Options{
		DistMode:         mode,
		GradWorkerFrac:   k.GradWorkerFrac,
		Damping:          k.Damping,
		FactorUpdateFreq: k.FactorUpdateFreq,
		InvUpdateFreq:    k.InvUpdateFreq,
		Precision:        prec,
		Compression:      codec,
		NoErrorFeedback:  k.NoErrorFeedback,
	}
	if k.Autotune {
		opts.Autotune = &kfac.AutotuneConfig{Interval: k.AutotuneInterval}
	}
	return opts, nil
}

// ChaosSpec scripts fault injection into a job's first generation — the
// control-plane hook for exercising (and demonstrating) elastic recovery
// end to end: the scripted rank dies mid-training, the daemon's RunElastic
// rebuilds a smaller world, and the job still completes.
type ChaosSpec struct {
	// Seed drives the chaos fabric's latency/drop decisions.
	Seed int64 `json:"seed,omitempty"`
	// KillRank is the rank scripted to die (in the initial world's
	// numbering).
	KillRank int `json:"kill_rank"`
	// KillAtEpoch is the zero-based epoch at which the victim stops
	// responding (mid-epoch, at an optimizer-step boundary).
	KillAtEpoch int `json:"kill_at_epoch"`
}

// JobSpec is a complete training-job declaration — everything the daemon
// needs to run (and re-run, across elastic generations and pause/resume
// cycles) the job without further operator input.
type JobSpec struct {
	// Name is a human label; it need not be unique (the daemon assigns
	// IDs).
	Name string `json:"name"`
	// User is the fair-share principal the job's worker usage is accounted
	// to (default "anonymous").
	User string `json:"user,omitempty"`
	// Model declares the architecture.
	Model ModelSpec `json:"model"`
	// Data declares the synthetic dataset.
	Data DataSpec `json:"data"`
	// World is the requested worker count (the job's quota while running).
	World int `json:"world"`
	// MinWorld bounds elastic shrink-on-failure (default 1).
	MinWorld int `json:"min_world,omitempty"`
	// Epochs is the number of training passes (required).
	Epochs int `json:"epochs"`
	// BatchPerRank is the local mini-batch size (required).
	BatchPerRank int `json:"batch_per_rank"`
	// LR is the base learning rate (required; already scaled for World).
	LR float64 `json:"lr"`
	// WarmupEpochs linearly ramps the learning rate (0 = none).
	WarmupEpochs int `json:"warmup_epochs,omitempty"`
	// Momentum is the SGD momentum (0 = none).
	Momentum float64 `json:"momentum,omitempty"`
	// WeightDecay is the SGD L2 penalty (0 = none).
	WeightDecay float64 `json:"weight_decay,omitempty"`
	// Seed drives data sharding (identical across ranks).
	Seed int64 `json:"seed,omitempty"`
	// CheckpointEvery is the epoch interval between durable checkpoints
	// (default 1).
	CheckpointEvery int `json:"checkpoint_every,omitempty"`
	// KFAC enables K-FAC preconditioning when non-nil.
	KFAC *KFACSpec `json:"kfac,omitempty"`
	// Chaos scripts a fault into the first generation when non-nil.
	Chaos *ChaosSpec `json:"chaos,omitempty"`
}

// Validate checks the spec for internal consistency; admission (fit
// against a concrete fleet) is a separate, fleet-relative check.
func (s *JobSpec) Validate() error {
	s.Model.fillDefaults()
	if s.User == "" {
		s.User = "anonymous"
	}
	if s.MinWorld == 0 {
		s.MinWorld = 1
	}
	if s.CheckpointEvery == 0 {
		s.CheckpointEvery = 1
	}
	if err := s.Model.validate(); err != nil {
		return err
	}
	if err := s.Data.validate(); err != nil {
		return err
	}
	if s.Model.Classes != s.Data.Classes {
		return fmt.Errorf("ctl: model has %d classes but data has %d", s.Model.Classes, s.Data.Classes)
	}
	if s.Model.Kind != "mlp" && s.Model.Channels != s.Data.Channels {
		return fmt.Errorf("ctl: model wants %d input channels but data has %d",
			s.Model.Channels, s.Data.Channels)
	}
	if s.Model.Kind == "mlp" {
		if flat := s.Data.Channels * s.Data.Size * s.Data.Size; s.Model.Dims[0] != flat {
			return fmt.Errorf("ctl: mlp input dim %d does not match the flattened data (%d×%d×%d = %d)",
				s.Model.Dims[0], s.Data.Channels, s.Data.Size, s.Data.Size, flat)
		}
	}
	if s.World < 1 {
		return fmt.Errorf("ctl: world must be ≥ 1, got %d", s.World)
	}
	if s.MinWorld < 1 || s.MinWorld > s.World {
		return fmt.Errorf("ctl: min_world must be in [1, world], got %d", s.MinWorld)
	}
	if s.Epochs < 1 || s.BatchPerRank < 1 {
		return fmt.Errorf("ctl: epochs and batch_per_rank must be ≥ 1, got %d/%d",
			s.Epochs, s.BatchPerRank)
	}
	if s.LR <= 0 {
		return fmt.Errorf("ctl: lr must be positive, got %v", s.LR)
	}
	if s.CheckpointEvery < 1 {
		return fmt.Errorf("ctl: checkpoint_every must be ≥ 1, got %d", s.CheckpointEvery)
	}
	if s.KFAC != nil {
		if _, err := s.KFAC.options(); err != nil {
			return err
		}
	}
	if s.Chaos != nil {
		if s.Chaos.KillRank < 0 || s.Chaos.KillRank >= s.World {
			return fmt.Errorf("ctl: chaos kill_rank %d outside world %d", s.Chaos.KillRank, s.World)
		}
		if s.Chaos.KillAtEpoch < 0 || s.Chaos.KillAtEpoch >= s.Epochs {
			return fmt.Errorf("ctl: chaos kill_at_epoch %d outside [0, %d)", s.Chaos.KillAtEpoch, s.Epochs)
		}
		if s.World == 1 {
			return fmt.Errorf("ctl: chaos kill needs world ≥ 2 (a 1-rank job cannot survive its only worker)")
		}
	}
	return nil
}
