package kfac

import "repro/internal/comm"

// Decision is the one runtime configuration every collective of a K-FAC run
// follows: the distribution mode the plan is built under and the codec,
// fusion bound, hierarchical group size and error-feedback mode of the
// factor allreduce and the trainer's gradient exchange. resolve is the only
// place it is derived, and replan and autotune the only places it is
// stored — so the two collectives can never disagree about it. Every field
// is a pure function of shared state (the static Options and, once autotune
// has decided, a consensus-selected policy level), so every rank holds the
// identical Decision without communication (Algorithm 1, line 9).
type Decision struct {
	// Mode is the resolved distribution mode (never DistAuto).
	Mode DistMode
	// GradWorkerFrac sizes Hybrid gradient-worker sets (BuildPlan reads it
	// only under Hybrid).
	GradWorkerFrac float64
	// GroupSize, when ≥ 2, routes exact payloads through the hierarchical
	// allreduce; 0 keeps the flat allreduce.
	GroupSize int
	// Codec compresses payloads (nil = exact).
	Codec comm.Codec
	// FusionBytes bounds the fusion buffer: the autotune level's bound, else
	// comm.DefaultFusionBytes.
	FusionBytes int
	// NoErrorFeedback applies Codec bare, without residual accumulation.
	NoErrorFeedback bool
}

// resolve is the single precedence rule: the static Options, with DistAuto
// mapped through ResolveDistMode, overridden by the in-force autotune level
// (nil before the first decision) in codec, fusion bound and group size.
// The error-feedback mode and the plan fields are static.
func resolve(opts Options, level *TuneLevel) Decision {
	d := Decision{
		Mode:            ResolveDistMode(opts.DistMode, opts.Strategy),
		GradWorkerFrac:  opts.GradWorkerFrac,
		GroupSize:       opts.GroupSize,
		Codec:           opts.Compression,
		FusionBytes:     comm.DefaultFusionBytes,
		NoErrorFeedback: opts.NoErrorFeedback,
	}
	if level != nil {
		d.Codec, d.FusionBytes, d.GroupSize = level.Codec, level.FusionBytes, level.GroupSize
	}
	return d
}

// NewFuser builds a fuser configured by the decision — the factor
// allreduce's and the trainer's gradient exchange's alike. ef is the
// caller's error-feedback accumulator (each payload stream owns one, since
// residual slots are per tensor); it is attached when a codec is in force
// and error feedback is on, and ignored otherwise.
func (d Decision) NewFuser(c *comm.Communicator, ef *comm.ErrorFeedback) *comm.Fuser {
	fu := comm.NewFuser(c, d.FusionBytes)
	fu.SetGroupSize(d.GroupSize)
	switch {
	case d.Codec == nil:
	case d.NoErrorFeedback:
		fu.SetCodec(d.Codec)
	default:
		ef.SetCodec(d.Codec)
		fu.SetErrorFeedback(ef)
	}
	return fu
}

// Decision returns the configuration in force: the static options until
// the first autotune decision, the tuned level's from then on. The trainer
// reads it once per iteration, before Step, so a decision made during step
// k configures its gradient exchange from step k+1 — the same boundary on
// every rank.
func (p *Preconditioner) Decision() Decision { return p.dec }
