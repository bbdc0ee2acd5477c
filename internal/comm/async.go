package comm

// Asynchronous collectives in the style of Horovod's communication handles
// (paper §V-A): the caller launches operations as inputs become available
// and waits for completion in batches. The tag namespace for every async
// operation is reserved synchronously at call time, so as long as every
// rank issues the same collectives in the same program order, overlapping
// operations cannot cross-match on the wire — this is the SPMD ordering
// contract the pipelined K-FAC engine relies on (see docs/ARCHITECTURE.md).

import "sync"

// Handle is an asynchronous collective in flight. It must not be copied.
type Handle struct {
	wg  sync.WaitGroup // one count, held by the operation's goroutine
	err error          // written before wg.Done, read after wg.Wait
}

// Wait blocks until the operation completes and returns its error. It may
// be called any number of times, from any goroutine.
func (h *Handle) Wait() error {
	h.wg.Wait()
	return h.err
}

// launch starts op(r, data, n, base) on a goroutine of its own and returns
// its handle: the one launcher of every asynchronous collective. The caller
// reserves base, the operation's tag namespace, on its own goroutine, so
// overlapping operations keep the SPMD order. op is a method expression
// that captures nothing, so a launch allocates the handle and the
// goroutine's closure, no more.
func launch[R any](op func(R, []float64, int, uint64) error, r R, data []float64, n int, base uint64) *Handle {
	h := &Handle{}
	h.wg.Add(1)
	go func() {
		defer h.wg.Done()
		h.err = op(r, data, n, base)
	}()
	return h
}

// completed is the one already finished, error-free handle: the fuser
// returns it for degenerate (empty) chunks and group collectives for
// non-members, neither of which communicates. It is shared and never
// written.
var completed = &Handle{}

// WaitAll aggregates a batch of handles: it waits for every operation and
// returns the first error encountered.
func WaitAll(hs ...*Handle) error {
	var firstErr error
	for _, h := range hs {
		if err := h.Wait(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// AllreduceMeanAsync starts an asynchronous in-place mean-allreduce. The tag
// namespace is reserved synchronously at call time, so as long as every rank
// issues the same collectives in the same program order, overlapping
// operations cannot cross-match. The caller must not touch data until Wait
// returns. It is HierarchicalAllreduceMeanAsync without groups.
func (c *Communicator) AllreduceMeanAsync(data []float64) *Handle {
	return c.HierarchicalAllreduceMeanAsync(data, 1)
}

// GatherHandle is an asynchronous variable-length allgather in flight.
type GatherHandle struct {
	h      *Handle
	c      *Communicator
	blocks [][]float64 // written before h completes
}

// Wait blocks until the allgather completes and returns the per-rank
// payloads (indexed by rank, identical on every rank).
func (h *GatherHandle) Wait() ([][]float64, error) {
	err := h.h.Wait()
	return h.blocks, err
}

// AllgatherVAsync starts gathering each rank's (variable-length)
// contribution; Wait returns the per-rank payloads indexed by rank,
// identical on every rank. This is the collective the paper's step 2→3
// transition uses to share eigen decompositions (Algorithm 1, line 18);
// here the Fuser's compressed chunks ride it. The caller must not mutate
// mine until Wait returns.
func (c *Communicator) AllgatherVAsync(mine []float64) *GatherHandle {
	gh := &GatherHandle{c: c}
	gh.h = launch((*GatherHandle).gather, gh, mine, 0, c.nextOp())
	return gh
}

// gather is AllgatherVAsync's launched body; n is unused.
func (gh *GatherHandle) gather(mine []float64, _ int, base uint64) (err error) {
	gh.blocks, err = gh.c.allgatherVTagged(mine, base)
	return err
}
