// Package comm implements the collective-communication runtime the paper
// delegates to Horovod (§II-D, §V-A): allreduce, allgather, broadcast,
// reduce and gather over an abstract point-to-point Transport, with
// asynchronous handles and a gradient fusion buffer.
//
// Allreduce is bandwidth-optimal at every world size: each rank sends
// 2(p−1)/p of the buffer. On a power-of-two world it runs recursive
// halving then doubling (Thakur, Rabenseifner & Gropp) in 2·log₂p hops;
// on any other it runs the ring scatter-reduce + allgather (Patarasuk &
// Yuan) in 2(p−1). Broadcast uses a binomial tree. All collectives are SPMD: every rank must
// invoke the same collectives in the same program order (Horovod enforces
// this with its coordinator; here it is a documented contract, checked by
// the per-operation sequence tags).
//
// A collective runs on its caller's goroutine: each hop of a ring or
// pairwise exchange is a Send then a Recv, which cannot deadlock because
// no Transport's Send waits for the peer's Recv. Each asynchronous
// collective starts one goroutine for the whole operation.
//
// Two transports are provided: an in-process fabric (goroutines and
// channels, used by tests, the trainer, and single-process examples) and a
// TCP fabric (one net.Conn per peer pair, used by the multi-process
// example).
package comm

import (
	"context"
	"fmt"
	"sync"
)

// Transport moves float64 payloads between ranks. Implementations must
// allow concurrent Send/Recv from multiple goroutines and must match
// messages by (peer, tag).
type Transport interface {
	// Rank returns this endpoint's rank in [0, Size).
	Rank() int
	// Size returns the number of ranks.
	Size() int
	// Send delivers data to rank `to` under the given tag. The callee owns
	// no reference to data after return (implementations copy as needed).
	// Send must not wait for the peer's Recv: it returns once the payload
	// is queued or handed to the wire, so every hop of a collective can
	// send and then receive on one goroutine while its partner does the
	// same.
	Send(to int, tag uint64, data []float64) error
	// Recv blocks until a message from rank `from` with the given tag
	// arrives and returns its payload, or until ctx is cancelled, in which
	// case it returns ctx's error. Cancellation is a hard abort: the
	// message, if it arrives later, stays queued for a subsequent Recv.
	Recv(ctx context.Context, from int, tag uint64) ([]float64, error)
	// Close releases transport resources.
	Close() error
}

// Fabric hands out one Transport endpoint per rank. InprocFabric and
// ChaosFabric implement it; runners that accept a Fabric (e.g.
// trainer.RunSessionsOn) can therefore train over a fault-injected world
// without knowing about chaos.
type Fabric interface {
	Endpoint(rank int) Transport
}

// mailbox buffers out-of-order tagged messages from a single peer.
type mailbox struct {
	mu      sync.Mutex
	cond    *sync.Cond
	pending map[uint64][][]float64
	closed  bool
	err     error // why the mailbox closed, when a failure closed it
}

func newMailbox() *mailbox {
	m := &mailbox{pending: make(map[uint64][][]float64)}
	m.cond = sync.NewCond(&m.mu)
	return m
}

// put enqueues a message and wakes waiters.
func (m *mailbox) put(tag uint64, data []float64) {
	m.mu.Lock()
	m.pending[tag] = append(m.pending[tag], data)
	m.mu.Unlock()
	m.cond.Broadcast()
}

// take blocks until a message with the tag is available, the mailbox is
// closed, or ctx is cancelled.
func (m *mailbox) take(ctx context.Context, tag uint64) ([]float64, error) {
	if ctx.Done() != nil {
		// Wake the condition variable when the context fires. The empty
		// critical section orders the broadcast after any waiter that saw
		// ctx.Err() == nil has entered Wait (releasing the lock), so no
		// wakeup can be missed.
		stop := context.AfterFunc(ctx, func() {
			m.mu.Lock()
			m.mu.Unlock() //nolint:staticcheck // empty section intentional, see above
			m.cond.Broadcast()
		})
		defer stop()
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	for {
		if q := m.pending[tag]; len(q) > 0 {
			data := q[0]
			if len(q) == 1 {
				delete(m.pending, tag)
			} else {
				m.pending[tag] = q[1:]
			}
			return data, nil
		}
		if m.closed {
			if m.err != nil {
				return nil, fmt.Errorf("comm: mailbox closed while waiting for tag %d: %w", tag, m.err)
			}
			return nil, fmt.Errorf("comm: mailbox closed while waiting for tag %d", tag)
		}
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		m.cond.Wait()
	}
}

// close wakes all waiters with an error.
func (m *mailbox) close() { m.fail(nil) }

// fail closes the mailbox because of err (nil for an orderly close); the
// first cause sticks and is reported to every waiter.
func (m *mailbox) fail(err error) {
	m.mu.Lock()
	if !m.closed {
		m.closed, m.err = true, err
	}
	m.mu.Unlock()
	m.cond.Broadcast()
}

// InprocFabric connects n ranks within one process. Create it once, then
// hand Endpoint(i) to each rank's goroutine.
type InprocFabric struct {
	n     int
	boxes [][]*mailbox // boxes[to][from]
}

// NewInprocFabric builds an n-rank in-process fabric.
func NewInprocFabric(n int) *InprocFabric {
	f := &InprocFabric{n: n, boxes: make([][]*mailbox, n)}
	for to := 0; to < n; to++ {
		f.boxes[to] = make([]*mailbox, n)
		for from := 0; from < n; from++ {
			f.boxes[to][from] = newMailbox()
		}
	}
	return f
}

// Endpoint returns the Transport for the given rank.
func (f *InprocFabric) Endpoint(rank int) Transport {
	return &inprocEndpoint{fabric: f, rank: rank}
}

type inprocEndpoint struct {
	fabric *InprocFabric
	rank   int
}

func (e *inprocEndpoint) Rank() int { return e.rank }
func (e *inprocEndpoint) Size() int { return e.fabric.n }

func (e *inprocEndpoint) Send(to int, tag uint64, data []float64) error {
	if to < 0 || to >= e.fabric.n {
		return fmt.Errorf("comm: send to invalid rank %d", to)
	}
	cp := make([]float64, len(data))
	copy(cp, data)
	e.fabric.boxes[to][e.rank].put(tag, cp)
	return nil
}

func (e *inprocEndpoint) Recv(ctx context.Context, from int, tag uint64) ([]float64, error) {
	if from < 0 || from >= e.fabric.n {
		return nil, fmt.Errorf("comm: recv from invalid rank %d", from)
	}
	return e.fabric.boxes[e.rank][from].take(ctx, tag)
}

func (e *inprocEndpoint) Close() error {
	for from := 0; from < e.fabric.n; from++ {
		e.fabric.boxes[e.rank][from].close()
	}
	return nil
}
