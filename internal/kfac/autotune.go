package kfac

import (
	"fmt"
	"math"
	"time"

	"repro/internal/comm"
)

// Bandwidth-adaptive communication autotuning (ROADMAP item 11). The
// paper's central tradeoff — communication cost vs statistical efficiency
// of the second-order update — is static in PR 3's codecs: somebody has
// to guess the link quality at launch. The autotuner closes the loop at
// runtime: each factor-update interval every rank estimates its factor-
// path bandwidth from the stage profile (wire bytes over measured
// allreduce time) and samples the transport's DeliveryMetrics for the
// drop rate, then the ranks agree on one view of the link through a tiny
// consensus allreduce — the same trick the trainer uses for cancellation:
// the allreduce sums every element in one fixed order and hands every
// rank that one sum, so the mean is bit-identical on every rank, so thresholding it yields the same policy
// level everywhere, and every rank re-resolves its Decision (codec, fusion
// bound, group size) at the same step boundary with no extra coordination
// protocol. Decisions are recorded in StageStats.TuneDecisions; the
// determinism suite asserts the sequences are deep-equal across ranks
// under chaos schedules.

// TuneLevel is one row of the autotune policy table (tuneLevels): the
// communication configuration to run when the consensus bandwidth estimate
// is at least MinBandwidthBps.
type TuneLevel struct {
	// Name labels the level in decisions and logs.
	Name string
	// MinBandwidthBps is the lower edge of this level's bandwidth band;
	// levels are ordered by strictly descending MinBandwidthBps, and the
	// last level uses 0 as the catch-all.
	MinBandwidthBps float64
	// Codec compresses factor and gradient payloads (nil = exact).
	Codec comm.Codec
	// FusionBytes bounds the fusion buffer at this level.
	FusionBytes int
	// GroupSize, when ≥ 2, routes exact chunks through the hierarchical
	// allreduce (ignored for compressed chunks, which ride an allgather).
	GroupSize int
}

// tuneLevels is the policy table the autotuner selects from: exact/flat on
// fast links, exact/hierarchical with a smaller fusion buffer in the
// middle band, float16 below that, and Top-K 10% + error feedback on
// badly constrained links.
var tuneLevels = []TuneLevel{
	{Name: "exact", MinBandwidthBps: 64 << 20, FusionBytes: comm.DefaultFusionBytes},
	{Name: "exact-hier", MinBandwidthBps: 16 << 20, FusionBytes: 4 << 20, GroupSize: 2},
	{Name: "float16", MinBandwidthBps: 4 << 20, Codec: comm.Float16Codec{}, FusionBytes: 4 << 20},
	{Name: "topk10", MinBandwidthBps: 0, Codec: comm.TopKCodec{FractionK: 0.10}, FusionBytes: 1 << 20},
}

// dropPenalty is the consensus drop rate above which the selection moves
// one level down (toward more compression): small messages ride retries
// better.
const dropPenalty = 0.02

// pickLevel returns the index into tuneLevels for a consensus (bandwidth,
// drop) estimate: the first level whose band contains the bandwidth,
// pushed one level down when the drop rate exceeds dropPenalty. A pure
// function — every rank calling it with the same consensus inputs picks
// the same level.
func pickLevel(bwBps, dropRate float64) int {
	pick := len(tuneLevels) - 1
	for i, lv := range tuneLevels {
		if bwBps >= lv.MinBandwidthBps {
			pick = i
			break
		}
	}
	if dropRate > dropPenalty && pick < len(tuneLevels)-1 {
		pick++
	}
	return pick
}

// AutotuneConfig configures the runtime controller (Options.Autotune).
type AutotuneConfig struct {
	// Interval is the number of factor updates between consensus
	// decisions (≤ 0 selects 1: decide at every factor-update boundary).
	Interval int
}

// TuneDecision is one consensus decision, recorded in StageStats in step
// order. All float fields are consensus outputs — bit-identical across
// ranks by construction, which the determinism tests assert literally.
type TuneDecision struct {
	// Step is the zero-based optimizer step the decision was made at; the
	// selected configuration applies from this step's factor update on.
	Step int
	// BandwidthBps is the consensus mean of the ranks' local factor-path
	// bandwidth estimates.
	BandwidthBps float64
	// DropRate is the consensus mean of the ranks' transport drop rates
	// (0 when the transport keeps no metrics).
	DropRate float64
	// Level indexes the policy table and Name labels the selected row.
	Level int
	Name  string
	// Decision is the configuration the decision put in force.
	Decision
	// Changed marks decisions that selected a different level than the
	// previous decision.
	Changed bool
}

// tuner is the controller's mutable runtime state. It lives on the
// preconditioner and is only touched from Step (single-goroutine).
type tuner struct {
	interval  int
	level     int // -1 until the first decision
	sinceLast int
	lastBW    float64

	prevComm    time.Duration
	prevUpdates int
	prevMetrics comm.DeliveryMetrics
	hasMetrics  bool
}

func newTuner(cfg AutotuneConfig) *tuner {
	t := &tuner{interval: cfg.Interval, level: -1, lastBW: math.Inf(1)}
	if t.interval < 1 {
		t.interval = 1
	}
	return t
}

// factorWireBytesPerUpdate models the bytes this rank puts on the wire
// for one factor update under the decision in force. The payload
// is every factor's packed upper triangle (comm.SymPackedLen, what the
// Fuser actually sends); a flat allreduce sends 2(p−1)/p of it, a
// compressed allgather circulates each encoded block p−1 times. The model
// is shared by every rank (a pure function of plan state), so only the
// measured time side of the bandwidth estimate differs per rank — and the
// consensus mean absorbs that.
func (p *Preconditioner) factorWireBytesPerUpdate() float64 {
	var n int
	for _, s := range p.states {
		da, dg := FactorDims(s.layer)
		n += comm.SymPackedLen(da) + comm.SymPackedLen(dg)
	}
	w := float64(p.comm.Size())
	if codec := p.dec.Codec; codec != nil {
		return 8 * float64(codec.CompressedLen(n)) * (w - 1)
	}
	return 8 * float64(n) * 2 * (w - 1) / w
}

// autotune runs one controller step: estimate locally, agree by
// consensus, pick a level, record the decision. Called from Step at
// factor-update boundaries (after the first), before the update issues
// its collectives — the same schedule point on every rank.
func (p *Preconditioner) autotune(iter int) error {
	t := p.tuner
	t.sinceLast++
	if t.sinceLast < t.interval {
		return nil
	}
	t.sinceLast = 0

	snap := p.stats.Snapshot()
	commDelta := snap.FactorComm - t.prevComm
	updates := snap.FactorUpdates - t.prevUpdates
	t.prevComm, t.prevUpdates = snap.FactorComm, snap.FactorUpdates
	bw := t.lastBW
	if commDelta > 0 && updates > 0 {
		bw = p.factorWireBytesPerUpdate() * float64(updates) / commDelta.Seconds()
	}
	drop := 0.0
	if m, ok := p.comm.TransportMetrics(); ok {
		if t.hasMetrics {
			sentD := float64(m.Sent - t.prevMetrics.Sent)
			dropD := float64(m.Dropped - t.prevMetrics.Dropped)
			if sentD+dropD > 0 {
				drop = dropD / (sentD + dropD)
			}
		}
		t.prevMetrics, t.hasMetrics = m, true
	}

	// Consensus: a two-word mean allreduce. Its fixed summation order
	// produces bit-identical sums everywhere, so every rank
	// thresholds the same floats and picks the same level — no separate
	// agreement protocol (the PR 2 cancellation trick).
	est := []float64{bw, drop}
	if err := p.comm.AllreduceMean(est); err != nil {
		return fmt.Errorf("kfac: autotune consensus: %w", err)
	}
	t.lastBW = est[0]
	level := pickLevel(est[0], est[1])
	changed := level != t.level
	t.level = level
	lv := &tuneLevels[level]
	p.dec = resolve(p.opts, lv)
	p.stats.recordTune(TuneDecision{
		Step:         iter,
		BandwidthBps: est[0],
		DropRate:     est[1],
		Level:        level,
		Name:         lv.Name,
		Decision:     p.dec,
		Changed:      changed,
	})
	return nil
}
