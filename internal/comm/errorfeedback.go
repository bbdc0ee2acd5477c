package comm

// Error-feedback compression (Seide et al. 2014; Karimireddy et al. 2019
// "Error Feedback Fixes SignSGD"): a lossy codec applied to gradient-like
// payloads biases the average, and for sparsifiers such as TopKCodec the
// bias is large enough to stall convergence outright. The fix is local
// residual accumulation: before encoding, each rank adds the error its
// codec discarded on previous rounds (compensate), and after decoding its
// own contribution it stores the newly discarded part (update). The
// compensated stream telescopes — over any horizon, the sum of what was
// actually transmitted plus the final residual equals the sum of the true
// payloads — so the compression error stays O(1) instead of growing with
// the step count. See TestErrorFeedbackTelescopes for the property pinned
// as a test.
//
// ErrorFeedback holds one float64 residual buffer per fused chunk
// ordinal. The Fuser hands out slots at launch time in Add order; because
// the SPMD schedule recreates fusers with identical Add sequences every
// round (the same ordering contract that makes async collectives safe),
// ordinal i always names the same tensor group on every rank, and a
// length change at a slot (a reshaped schedule) resets that residual to
// zero identically everywhere.

// ErrorFeedback accumulates per-chunk compression residuals for a lossy
// Codec. The zero codec (nil) means "transmit exact"; residuals are then
// left untouched (frozen) so a later switch back to a lossy codec resumes
// compensation where it left off. Not safe for concurrent use: slots are
// handed out by the single goroutine driving the fuser schedule, and each
// launched chunk owns its slot exclusively until its Wait completes.
type ErrorFeedback struct {
	codec Codec
	slots [][]float64
}

// NewErrorFeedback returns an accumulator wrapping codec (nil for exact
// transmission until SetCodec installs one).
func NewErrorFeedback(codec Codec) *ErrorFeedback {
	return &ErrorFeedback{codec: codec}
}

// Codec returns the currently installed codec (nil = exact).
func (ef *ErrorFeedback) Codec() Codec { return ef.codec }

// SetCodec switches the codec. Residual buffers are preserved across the
// switch: pending error mass keeps draining under the new codec, and a
// switch to nil (exact) freezes it until a lossy codec returns. In SPMD use
// every rank must switch at the same schedule boundary — the autotuner
// guarantees this by deriving the switch from a consensus collective.
func (ef *ErrorFeedback) SetCodec(c Codec) { ef.codec = c }

// slot returns the residual buffer for chunk ordinal i, sized n. A size
// mismatch (schedule reshape) discards the old residual — the mismatch is
// schedule-determined, so every rank takes the same branch.
func (ef *ErrorFeedback) slot(i, n int) []float64 {
	for len(ef.slots) <= i {
		ef.slots = append(ef.slots, nil)
	}
	if len(ef.slots[i]) != n {
		ef.slots[i] = make([]float64, n)
	}
	return ef.slots[i]
}
