package comm

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// Fault injection for the distributed runtime. The paper's speedups come
// from asynchronous, overlapped collectives — exactly the code paths that
// are hardest to trust on anything but a well-behaved in-memory fabric.
// ChaosTransport wraps any Transport and injects latency, message drops
// (with bounded retry), bandwidth caps, and scripted rank kills, all
// replayable from a seed, so the conformance suite and the elastic trainer
// can exercise the SPMD ordering contract and the recovery path under
// adversity.
//
// Determinism model: every per-message decision (injected latency, drop
// rolls) is a pure hash of (seed, from, to, tag, use, attempt), where
// `use` is the per-(to, tag) send ordinal. Collective wire tags are
// unique per operation instance (Communicator.nextOp), so their use is
// always 0 and the fault sequence experienced by a given collective
// schedule is a pure function of the seed — independent of goroutine
// interleaving and wall time. Reusable low-range tags (heartbeats) draw
// independent fates per message through the use ordinal, which is equally
// deterministic for the single-sender streams that use them. Replaying the same seed over the same schedule replays the same
// faults. Because latency and retried drops never alter payloads, an
// injected-latency-only schedule leaves all collective arithmetic
// bit-identical to a chaos-free run.
//
// A rank dies when ChaosFabric.Kill is called on it, at whatever point of
// the run its caller (a test, or a training hook) chooses.

// ErrRankKilled is returned by a killed rank's own Send/Recv calls.
var ErrRankKilled = errors.New("comm: rank killed by chaos schedule")

// ErrPeerKilled is returned when sending to a rank the chaos schedule has
// killed — the in-memory analogue of a connection reset.
var ErrPeerKilled = errors.New("comm: peer killed by chaos schedule")

// ErrDropped is returned when a message was dropped on every attempt of
// the bounded retry loop.
var ErrDropped = errors.New("comm: message dropped after retries exhausted")

// ChaosConfig scripts the fault schedule. The zero value injects nothing.
type ChaosConfig struct {
	// Seed drives every latency and drop decision; the same seed replays
	// the same fault sequence over the same collective schedule.
	Seed int64
	// MinLatency/MaxLatency bound the per-message injected delivery delay
	// (uniform, hash-derived). MaxLatency ≤ 0 disables latency injection.
	MinLatency, MaxLatency time.Duration
	// DropRate is the per-attempt probability a send is dropped. Dropped
	// sends are retried up to MaxRetries times (the transport's reliability
	// contract is preserved unless the retry budget is exhausted).
	DropRate float64
	// MaxRetries bounds the retry loop for dropped sends (default 3).
	MaxRetries int
	// RetryBackoff is the delay between retry attempts (default 200µs).
	RetryBackoff time.Duration
	// BandwidthBps caps per-message throughput: each send is additionally
	// delayed by payloadBytes/BandwidthBps seconds (0 = uncapped).
	BandwidthBps float64
}

func (c *ChaosConfig) fillDefaults() {
	if c.MaxRetries == 0 {
		c.MaxRetries = 3
	}
	if c.RetryBackoff == 0 {
		c.RetryBackoff = 200 * time.Microsecond
	}
}

// DeliveryMetrics counts one endpoint's chaos-layer traffic.
type DeliveryMetrics struct {
	// Sent counts successful Send completions; Received successful Recvs.
	Sent, Received int64
	// Dropped counts dropped attempts; Retried counts re-send attempts
	// after a drop (Retried ≤ Dropped).
	Dropped, Retried int64
	// Bytes is the payload volume of successful sends.
	Bytes int64
	// InjectedDelay is the total latency+bandwidth delay added to sends.
	InjectedDelay time.Duration
}

// endpointState is the shared per-rank chaos state.
type endpointState struct {
	killed atomic.Bool
	dead   chan struct{} // closed by Kill; wakes a sleeping Send

	// tagUse counts sends per (to, tag) for reusable low-range tags
	// (heartbeats), salting their fault rolls so a stream reusing one tag
	// still gets independent per-message fates. Guarded by mu.
	mu     sync.Mutex
	tagUse map[uint64]uint64

	sent, recvd, dropped, retried, bytes atomic.Int64
	delayNanos                           atomic.Int64
}

// useCount returns and increments the per-(to,tag) usage ordinal.
func (s *endpointState) useCount(to int, tag uint64) uint64 {
	key := uint64(to)<<32 | tag
	s.mu.Lock()
	if s.tagUse == nil {
		s.tagUse = make(map[uint64]uint64)
	}
	n := s.tagUse[key]
	s.tagUse[key] = n + 1
	s.mu.Unlock()
	return n
}

func (s *endpointState) metrics() DeliveryMetrics {
	return DeliveryMetrics{
		Sent:          s.sent.Load(),
		Received:      s.recvd.Load(),
		Dropped:       s.dropped.Load(),
		Retried:       s.retried.Load(),
		Bytes:         s.bytes.Load(),
		InjectedDelay: time.Duration(s.delayNanos.Load()),
	}
}

// ChaosFabric wraps another fabric's endpoints in ChaosTransports sharing
// one fault schedule and one kill/metrics table.
type ChaosFabric struct {
	inner Fabric
	cfg   ChaosConfig
	ranks []*endpointState

	mu        sync.Mutex
	endpoints map[int]*ChaosTransport
}

// NewChaosFabric builds a chaos wrapper over inner for a world of n ranks.
func NewChaosFabric(inner Fabric, n int, cfg ChaosConfig) *ChaosFabric {
	cfg.fillDefaults()
	f := &ChaosFabric{
		inner:     inner,
		cfg:       cfg,
		ranks:     make([]*endpointState, n),
		endpoints: make(map[int]*ChaosTransport),
	}
	for i := range f.ranks {
		f.ranks[i] = &endpointState{dead: make(chan struct{})}
	}
	return f
}

// Endpoint returns rank's chaos-wrapped transport (cached: repeated calls
// return the same instance). A rank killed before its endpoint is first
// taken gets one whose inner endpoint is already closed.
func (f *ChaosFabric) Endpoint(rank int) Transport {
	f.mu.Lock()
	defer f.mu.Unlock()
	if t, ok := f.endpoints[rank]; ok {
		return t
	}
	t := &ChaosTransport{inner: f.inner.Endpoint(rank), fabric: f, rank: rank}
	if s := t.state(rank); s != nil && s.killed.Load() {
		t.inner.Close()
	}
	f.endpoints[rank] = t
	return t
}

// Kill marks rank dead immediately and closes its inner endpoint: its
// blocked receives wake through the inner transport's close path and
// return ErrRankKilled, and all of its subsequent operations fail.
func (f *ChaosFabric) Kill(rank int) {
	if rank < 0 || rank >= len(f.ranks) {
		return
	}
	s := f.ranks[rank]
	f.mu.Lock()
	defer f.mu.Unlock()
	if !s.killed.CompareAndSwap(false, true) {
		return
	}
	close(s.dead)
	if t, ok := f.endpoints[rank]; ok {
		t.inner.Close()
	}
}

// Killed lists the ranks the schedule (or Kill) has terminated, ascending.
func (f *ChaosFabric) Killed() []int {
	var out []int
	for r, s := range f.ranks {
		if s.killed.Load() {
			out = append(out, r)
		}
	}
	return out
}

// Metrics returns rank's delivery counters.
func (f *ChaosFabric) Metrics(rank int) DeliveryMetrics {
	if rank < 0 || rank >= len(f.ranks) {
		return DeliveryMetrics{}
	}
	return f.ranks[rank].metrics()
}

// TotalMetrics sums the delivery counters over all ranks.
func (f *ChaosFabric) TotalMetrics() DeliveryMetrics {
	var total DeliveryMetrics
	for r := range f.ranks {
		m := f.Metrics(r)
		total.Sent += m.Sent
		total.Received += m.Received
		total.Dropped += m.Dropped
		total.Retried += m.Retried
		total.Bytes += m.Bytes
		total.InjectedDelay += m.InjectedDelay
	}
	return total
}

// ChaosTransport is one rank's fault-injecting Transport view. Create it
// through ChaosFabric.Endpoint — kills and metrics are shared across a
// fabric's endpoints, so standalone wrapping has no meaningful semantics.
type ChaosTransport struct {
	inner  Transport
	fabric *ChaosFabric
	rank   int
}

var _ Transport = (*ChaosTransport)(nil)

// Rank implements Transport.
func (t *ChaosTransport) Rank() int { return t.inner.Rank() }

// Size implements Transport.
func (t *ChaosTransport) Size() int { return t.inner.Size() }

// Metrics returns this endpoint's delivery counters.
func (t *ChaosTransport) Metrics() DeliveryMetrics { return t.fabric.ranks[t.rank].metrics() }

// splitmix64 is the seed-mixing hash behind every chaos decision.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// roll derives the deterministic 64-bit decision value for one message
// attempt. use is the per-(to,tag) send ordinal: collective tags are
// single-use so it is always 0 there, while reusable low-range tags
// (heartbeats) advance it per message so a stream on one tag still draws
// independent fates.
func (t *ChaosTransport) roll(to int, tag uint64, use uint64, attempt int) uint64 {
	h := splitmix64(uint64(t.fabric.cfg.Seed))
	h = splitmix64(h ^ uint64(t.rank)<<32 ^ uint64(to))
	h = splitmix64(h ^ tag)
	h = splitmix64(h ^ use)
	return splitmix64(h ^ uint64(attempt))
}

// unit maps a decision value to [0, 1).
func unit(h uint64) float64 { return float64(h>>11) / (1 << 53) }

// sendDelay computes the injected latency + bandwidth delay for one send.
func (t *ChaosTransport) sendDelay(to int, tag uint64, use uint64, payloadLen int) time.Duration {
	cfg := &t.fabric.cfg
	var d time.Duration
	if cfg.MaxLatency > 0 {
		span := cfg.MaxLatency - cfg.MinLatency
		if span <= 0 {
			d = cfg.MaxLatency
		} else {
			h := t.roll(to, tag, use, -1)
			d = cfg.MinLatency + time.Duration(h%uint64(span))
		}
	}
	if cfg.BandwidthBps > 0 {
		bytes := float64(8 * payloadLen)
		d += time.Duration(bytes / cfg.BandwidthBps * float64(time.Second))
	}
	return d
}

// state returns the shared chaos state for a rank of this fabric.
func (t *ChaosTransport) state(rank int) *endpointState {
	if rank < 0 || rank >= len(t.fabric.ranks) {
		return nil
	}
	return t.fabric.ranks[rank]
}

// reusableTagLimit bounds the tag range whose per-(to,tag) usage is
// tracked for fault-roll salting: collective tags (≥ 1<<16, single-use by
// construction) stay out of the map, so it never grows with training.
const reusableTagLimit = uint64(1) << 16

// Send implements Transport: it fails on a killed rank or peer, injects
// the hash-derived latency/bandwidth delay, and runs the bounded drop-retry
// loop before delegating to the wrapped transport.
func (t *ChaosTransport) Send(to int, tag uint64, data []float64) error {
	self := t.state(t.rank)
	if self.killed.Load() {
		return ErrRankKilled
	}
	if peer := t.state(to); peer != nil && peer.killed.Load() {
		return ErrPeerKilled
	}

	var use uint64
	if tag < reusableTagLimit {
		use = self.useCount(to, tag)
	}
	cfg := &t.fabric.cfg
	if d := t.sendDelay(to, tag, use, len(data)); d > 0 {
		if err := t.sleep(self, d); err != nil {
			return err
		}
	}
	if cfg.DropRate > 0 {
		for attempt := 0; ; attempt++ {
			if unit(t.roll(to, tag, use, attempt)) >= cfg.DropRate {
				break // this attempt goes through
			}
			self.dropped.Add(1)
			if attempt >= cfg.MaxRetries {
				return fmt.Errorf("%w (to %d tag %d, %d attempts)", ErrDropped, to, tag, attempt+1)
			}
			self.retried.Add(1)
			if err := t.sleep(self, cfg.RetryBackoff); err != nil {
				return err
			}
		}
	}
	if err := t.inner.Send(to, tag, data); err != nil {
		return err
	}
	self.sent.Add(1)
	self.bytes.Add(int64(8 * len(data)))
	return nil
}

// sleep delays for d, accounting it as injected delay, but wakes
// immediately with ErrRankKilled if the rank dies mid-sleep — a tight
// bandwidth cap can make single-message delays arbitrarily long, and an
// uninterruptible sleep would stall kill-triggered teardown (and elastic
// recovery) for its full length.
func (t *ChaosTransport) sleep(self *endpointState, d time.Duration) error {
	if d <= 0 {
		return nil
	}
	timer := time.NewTimer(d)
	defer timer.Stop()
	select {
	case <-timer.C:
		self.delayNanos.Add(int64(d))
		return nil
	case <-self.dead:
		return ErrRankKilled
	}
}

// Recv implements Transport. A killed rank's receives — including ones
// already blocked when the kill fires, which Kill wakes by closing the
// inner endpoint — return ErrRankKilled.
func (t *ChaosTransport) Recv(ctx context.Context, from int, tag uint64) ([]float64, error) {
	self := t.state(t.rank)
	if self.killed.Load() {
		return nil, ErrRankKilled
	}
	data, err := t.inner.Recv(ctx, from, tag)
	if err != nil {
		if self.killed.Load() {
			return nil, ErrRankKilled
		}
		return nil, err
	}
	self.recvd.Add(1)
	return data, nil
}

// Close implements Transport.
func (t *ChaosTransport) Close() error { return t.inner.Close() }
