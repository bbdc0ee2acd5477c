package kfac

import (
	"encoding"
	"fmt"
	"slices"
	"strings"

	"repro/internal/comm"
)

// Options configures the preconditioner; it is the only input NewFromOptions
// (and trainer.WithKFACOptions) takes:
//
//	prec := kfac.NewFromOptions(net, c, kfac.Options{
//		Damping: 1e-3, Engine: kfac.EnginePipelined, Strategy: kfac.SizeGreedy})
//
// Zero values select the paper's defaults where one exists. Front ends that
// take the options from text — kfac-train, kfac-sim, ctl.JobSpec — decode the
// enums through their UnmarshalText and check the whole struct with Validate.
type Options struct {
	Mode     Mode
	Strategy Strategy
	// DistMode selects the memory/communication tradeoff of the resolved
	// distribution plan (default DistAuto: LayerWise implies MemOpt, every
	// other strategy CommOpt — the pre-plan behavior).
	DistMode DistMode
	// GradWorkerFrac sizes each layer's gradient-worker set under
	// DistMode == Hybrid as a fraction of the world (clamped to at least
	// one worker): f→0 approaches MemOpt, f=1 is CommOpt. It trades
	// per-rank eigenbasis memory against per-iteration broadcast traffic.
	GradWorkerFrac float64
	// GroupSize, when ≥ 2, routes the factor allreduce (and the trainer's
	// gradient exchange) through the two-level hierarchical allreduce with
	// this many consecutive ranks per group — modeling fast intra-node
	// links. 0 keeps the flat allreduce (halving/doubling at power-of-two
	// worlds, the ring otherwise). Results agree with the flat allreduce
	// to rounding — exactly on integer-representable sums.
	GroupSize int
	// Damping is the Tikhonov regularizer γ (paper: 0.001 for ImageNet).
	Damping float64
	// KLClip is the κ constant of the gradient-scaling Equation 18
	// (default 0.001). Negative disables clipping.
	KLClip float64
	// FactorUpdateFreq is the interval in iterations between factor
	// recomputation + allreduce (default 10). The paper observes factors
	// can be updated 10× more frequently than the decompositions.
	FactorUpdateFreq int
	// InvUpdateFreq is the paper's kfac-update-freq: the interval between
	// eigendecomposition updates (default 100).
	InvUpdateFreq int
	// Engine selects the schedule of the update stage graph: EngineSync
	// (default) puts a barrier after every stage; EnginePipelined overlaps
	// per-layer factor computation, fused async allreduce,
	// eigendecomposition, and the per-layer decomposition exchange. Both
	// run the same stage code and are bit-identical.
	Engine Engine
	// Precision selects the element type of the covariance and
	// preconditioning kernels (default F64). F32 keeps their operands and
	// products in float32; running averages, decompositions, communication,
	// and checkpoints stay float64 regardless (see kernels.go).
	Precision Precision
	// Compression applies a lossy codec to the factor allreduce and the
	// trainer's gradient exchange (nil = exact), wrapped in error-feedback
	// residual accumulation unless NoErrorFeedback is set: each rank
	// compensates its payload with the error its codec previously
	// discarded, keeping sparsifiers like comm.TopKCodec convergence-safe
	// (see comm.ErrorFeedback). Must be identical on every rank. The
	// eigensolver symmetrizes its input, so sparsified factor averages stay
	// safe to decompose.
	Compression comm.Codec
	// NoErrorFeedback strips the residual accumulator from Compression (or
	// from the autotuned codecs) — the biased estimator, kept so the
	// convergence-safety suite can demonstrate why error feedback is not
	// optional for sparsifiers.
	NoErrorFeedback bool
	// Autotune, when non-nil, enables the bandwidth-adaptive controller:
	// codec, fusion bound and group size are re-selected from the policy
	// table (tuneLevels) at factor-update boundaries via a consensus
	// collective, overriding the static Compression/GroupSize fields and
	// the default fusion bound from the first decision on. The zero
	// AutotuneConfig decides at every factor update. See autotune.go.
	Autotune *AutotuneConfig
}

// factorDecay is the running-average coefficient ξ of Equations 16–17.
const factorDecay = 0.95

func (o *Options) fillDefaults() {
	if o.Damping == 0 {
		o.Damping = 0.001
	}
	if o.KLClip == 0 {
		o.KLClip = 0.001
	}
	if o.FactorUpdateFreq == 0 {
		o.FactorUpdateFreq = 10
	}
	if o.InvUpdateFreq == 0 {
		o.InvUpdateFreq = 100
	}
}

// Validate is the rule book every front end applies before it builds a
// preconditioner for world ranks; the error names the offending field.
// NewFromOptions does not call it. Zero values are valid: they select the
// paper defaults.
func (o Options) Validate(world int) error {
	for _, e := range []encoding.TextMarshaler{o.Mode, o.Strategy, o.DistMode, o.Engine, o.Precision} {
		if _, err := e.MarshalText(); err != nil {
			return err
		}
	}
	switch {
	case o.DistMode == Hybrid && !(o.GradWorkerFrac > 0 && o.GradWorkerFrac < 1):
		return fmt.Errorf("kfac: DistMode hybrid needs GradWorkerFrac strictly between 0 and 1, got %v (commopt and memopt are the endpoints)", o.GradWorkerFrac)
	case o.DistMode != Hybrid && o.GradWorkerFrac != 0:
		return fmt.Errorf("kfac: GradWorkerFrac %v requires DistMode hybrid", o.GradWorkerFrac)
	case o.GroupSize < 0 || o.GroupSize == 1:
		return fmt.Errorf("kfac: GroupSize must be 0 (the flat allreduce) or ≥ 2, got %d", o.GroupSize)
	case o.GroupSize >= 2 && o.GroupSize >= world:
		return fmt.Errorf("kfac: GroupSize %d is not smaller than the world of %d: the hierarchy would be a single group (use 0 for the flat allreduce)", o.GroupSize, world)
	case o.NoErrorFeedback && o.Compression == nil && o.Autotune == nil:
		return fmt.Errorf("kfac: NoErrorFeedback requires Compression or Autotune")
	case !(o.Damping >= 0):
		return fmt.Errorf("kfac: Damping must be ≥ 0 (0 = the paper's 0.001), got %v", o.Damping)
	case o.FactorUpdateFreq < 0:
		return fmt.Errorf("kfac: FactorUpdateFreq must be ≥ 0 (0 = 10), got %d", o.FactorUpdateFreq)
	case o.InvUpdateFreq < 0:
		return fmt.Errorf("kfac: InvUpdateFreq must be ≥ 0 (0 = the paper's 100), got %d", o.InvUpdateFreq)
	case o.Autotune != nil && o.Autotune.Interval < 0:
		return fmt.Errorf("kfac: Autotune.Interval must be ≥ 0 (0 = every factor update), got %d", o.Autotune.Interval)
	}
	return nil
}

// tokens is the text form of one configuration enum: spellings[v] lists the
// tokens of value v, canonical first. These are the command-line and JSON
// spellings; String keeps the table labels.
type tokens struct {
	enum      string
	spellings [][]string
}

var (
	modeTokens      = tokens{"Mode", [][]string{{"eigen"}, {"inverse"}}}
	strategyTokens  = tokens{"Strategy", [][]string{{"roundrobin"}, {"layerwise"}, {"greedy"}}}
	distModeTokens  = tokens{"DistMode", [][]string{{"auto"}, {"commopt"}, {"memopt"}, {"hybrid"}}}
	engineTokens    = tokens{"Engine", [][]string{{"sync"}, {"pipelined"}}}
	precisionTokens = tokens{"Precision", [][]string{{"f64", "float64"}, {"f32", "float32"}}}
)

func (t tokens) encode(v int) ([]byte, error) {
	if v < 0 || v >= len(t.spellings) {
		return nil, fmt.Errorf("kfac: unknown %s %d", t.enum, v)
	}
	return []byte(t.spellings[v][0]), nil
}

// decode matches text case-insensitively; empty text is the zero value, the
// default.
func decode[T ~int](dst *T, text []byte, t tokens) error {
	s := strings.ToLower(string(text))
	for v, sp := range t.spellings {
		if s == "" || slices.Contains(sp, s) {
			*dst = T(v)
			return nil
		}
	}
	return fmt.Errorf("kfac: unknown %s %q (want %s)", t.enum, text, strings.Join(slices.Concat(t.spellings...), ", "))
}

// MarshalText returns the mode's token: eigen or inverse.
func (m Mode) MarshalText() ([]byte, error) { return modeTokens.encode(int(m)) }

// UnmarshalText decodes eigen or inverse, in any case.
func (m *Mode) UnmarshalText(text []byte) error { return decode(m, text, modeTokens) }

// MarshalText returns the strategy's token: roundrobin, layerwise or greedy.
func (s Strategy) MarshalText() ([]byte, error) { return strategyTokens.encode(int(s)) }

// UnmarshalText decodes roundrobin, layerwise or greedy, in any case.
func (s *Strategy) UnmarshalText(text []byte) error { return decode(s, text, strategyTokens) }

// MarshalText returns the mode's token: auto, commopt, memopt or hybrid.
func (m DistMode) MarshalText() ([]byte, error) { return distModeTokens.encode(int(m)) }

// UnmarshalText decodes auto, commopt, memopt or hybrid, in any case.
func (m *DistMode) UnmarshalText(text []byte) error { return decode(m, text, distModeTokens) }

// MarshalText returns the engine's token: sync or pipelined.
func (e Engine) MarshalText() ([]byte, error) { return engineTokens.encode(int(e)) }

// UnmarshalText decodes sync or pipelined, in any case.
func (e *Engine) UnmarshalText(text []byte) error { return decode(e, text, engineTokens) }

// MarshalText returns the precision's token: f64 or f32.
func (p Precision) MarshalText() ([]byte, error) { return precisionTokens.encode(int(p)) }

// UnmarshalText decodes f64/float64 or f32/float32, in any case.
func (p *Precision) UnmarshalText(text []byte) error { return decode(p, text, precisionTokens) }
