package kfac

import "repro/internal/comm"

// Option configures a preconditioner at construction:
//
//	prec := kfac.New(net, c,
//		kfac.WithDamping(1e-3),
//		kfac.WithEngine(kfac.EnginePipelined),
//		kfac.WithStrategy(kfac.SizeGreedy))
//
// Options are applied in argument order over a zero Options value, later
// options overriding earlier ones; the paper defaults of Options.fillDefaults
// fill whatever remains unset. The Options struct is kept as the resolved
// form — Build materializes an option list into one, and NewFromOptions
// constructs a preconditioner directly from a resolved struct (the trainer's
// WithKFACOptions and tests use it).
type Option func(*Options)

// Build resolves an option list into the Options struct form. Zero-valued
// fields are later replaced by the paper defaults inside New/NewFromOptions.
func Build(opts ...Option) Options {
	var o Options
	for _, op := range opts {
		op(&o)
	}
	return o
}

// WithOptions merges a pre-resolved Options struct wholesale; combine it
// with later options to tweak individual fields of a shared base.
func WithOptions(o Options) Option { return func(dst *Options) { *dst = o } }

// WithMode selects how (F̂+γI)⁻¹ is applied (default EigenMode).
func WithMode(m Mode) Option { return func(o *Options) { o.Mode = m } }

// WithStrategy selects the factor→worker placement strategy (default
// RoundRobin, the paper's K-FAC-opt).
func WithStrategy(s Strategy) Option { return func(o *Options) { o.Strategy = s } }

// WithDistMode selects the memory/communication tradeoff of the
// distribution plan: CommOpt replicates eigenbases everywhere (local
// preconditioning, zero per-iteration traffic), MemOpt keeps them on
// owners and distributes preconditioned gradients each iteration, Hybrid
// interpolates via WithGradWorkerFrac. Default DistAuto derives the mode
// from the strategy (LayerWise → MemOpt, else CommOpt).
func WithDistMode(m DistMode) Option { return func(o *Options) { o.DistMode = m } }

// WithGradWorkerFrac selects Hybrid distribution with each layer's
// gradient-worker set sized to ⌈f·world⌉ ranks (clamped to [1, world]):
// f→0 approaches MemOpt, f=1 is CommOpt. The knob that trades per-rank
// eigenbasis memory against per-iteration broadcast traffic.
func WithGradWorkerFrac(f float64) Option {
	return func(o *Options) {
		o.DistMode = Hybrid
		o.GradWorkerFrac = f
	}
}

// WithGroupSize routes the factor allreduce and the trainer's gradient
// exchange through comm.HierarchicalAllreduceMean with this many
// consecutive ranks per group (≥ 2; 0 keeps the flat ring). Results agree
// with the flat ring to rounding — exactly on integer-representable sums.
func WithGroupSize(n int) Option { return func(o *Options) { o.GroupSize = n } }

// WithDamping sets the Tikhonov regularizer γ (default 0.001).
func WithDamping(g float64) Option { return func(o *Options) { o.Damping = g } }

// WithFactorDecay sets the running-average coefficient ξ (default 0.95).
func WithFactorDecay(d float64) Option { return func(o *Options) { o.FactorDecay = d } }

// WithKLClip sets the κ constant of the gradient-scaling Equation 18
// (default 0.001). Negative disables clipping.
func WithKLClip(k float64) Option { return func(o *Options) { o.KLClip = k } }

// WithFactorUpdateFreq sets the interval in iterations between factor
// recomputation + allreduce (default 10).
func WithFactorUpdateFreq(n int) Option { return func(o *Options) { o.FactorUpdateFreq = n } }

// WithInvUpdateFreq sets the paper's kfac-update-freq: the interval between
// eigendecomposition (or inverse) updates (default 100).
func WithInvUpdateFreq(n int) Option { return func(o *Options) { o.InvUpdateFreq = n } }

// WithFusionBytes bounds the fusion buffer of the factor allreduce and the
// trainer's gradient exchange (default comm.DefaultFusionBytes).
func WithFusionBytes(b int) Option { return func(o *Options) { o.FusionBytes = b } }

// WithPiDamping enables the π-corrected factored damping split of
// Martens & Grosse (off by default, matching the paper).
func WithPiDamping() Option { return func(o *Options) { o.PiDamping = true } }

// WithSkipLayers lists layer names to leave to the first-order optimizer.
func WithSkipLayers(names ...string) Option {
	return func(o *Options) { o.SkipLayers = append(o.SkipLayers, names...) }
}

// WithMaxFactorDim excludes layers whose A or G factor would exceed this
// dimension (default 0 = no limit).
func WithMaxFactorDim(d int) Option { return func(o *Options) { o.MaxFactorDim = d } }

// WithEngine selects the schedule of the update stage graph (default
// EngineSync; EnginePipelined overlaps compute, communication, and
// decomposition with bit-identical results).
func WithEngine(e Engine) Option { return func(o *Options) { o.Engine = e } }

// WithCompression applies a lossy codec to the factor allreduce and the
// trainer's gradient exchange, wrapped in error-feedback residual
// accumulation: each rank compensates its payload with the error its
// codec previously discarded, keeping sparsifiers like comm.TopKCodec
// convergence-safe (the compensated stream telescopes — see
// comm.ErrorFeedback). Must be identical on every rank. nil restores
// exact transmission.
func WithCompression(c comm.Codec) Option {
	return func(o *Options) {
		o.Compression = c
		o.NoErrorFeedback = false
	}
}

// WithBareCompression applies the codec WITHOUT error feedback — the
// biased estimator. Kept for A/B experiments: the convergence-safety
// suite uses it to demonstrate bare Top-K stalling where the compensated
// form tracks the uncompressed loss.
func WithBareCompression(c comm.Codec) Option {
	return func(o *Options) {
		o.Compression = c
		o.NoErrorFeedback = true
	}
}

// WithAutotune enables the bandwidth-adaptive controller: at factor-update
// boundaries the ranks agree on a (bandwidth, drop-rate) estimate through
// a consensus allreduce and re-select {codec, FusionBytes, GroupSize} from
// the policy table, overriding the static options from the first decision
// on. The zero AutotuneConfig selects DefaultTunePolicy deciding at every
// factor update. Decisions land in StageStats.TuneDecisions.
func WithAutotune(cfg AutotuneConfig) Option {
	return func(o *Options) { o.Autotune = &cfg }
}
