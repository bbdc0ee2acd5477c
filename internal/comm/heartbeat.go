package comm

import (
	"context"
	"sort"
	"sync"
	"time"
)

// Heartbeat-based failure detection. Collectives block forever on a dead
// peer (the transport cannot distinguish "slow" from "gone"), so liveness
// is tracked out of band: every rank streams small heartbeat messages to
// every peer on a reserved tag below the collective namespace, and a
// monitor goroutine flags peers whose stream goes quiet for longer than
// the timeout. The monitor never touches the collective tag sequence —
// heartbeats and collectives multiplex freely on one transport.
//
// Detection is the trigger for recovery, not recovery itself: the
// elastic trainer reacts to OnFailure by hard-aborting the generation's
// communicator context and rebuilding a resized world (see
// docs/ARCHITECTURE.md, "Failure model & recovery").

// heartbeatTag is the reserved heartbeat tag, below the collective
// namespace: collective tags are ≥ 1<<16 (Communicator.nextOp shifts its
// sequence by 16 bits), so they never collide. All heartbeats of a pair
// share this one tag — the stream has no ordering or completeness
// requirement, so a lost message is simply a gap in the mailbox queue,
// never a wedge. Fault-injection layers salt their per-message decisions
// with a usage ordinal for reused low-range tags (see comm.ChaosTransport),
// so sharing a tag does not freeze one fault fate for the whole stream.
const heartbeatTag = uint64(1) << 15

// HeartbeatConfig tunes the failure detector.
type HeartbeatConfig struct {
	// Interval between heartbeats to each peer (default 50ms).
	Interval time.Duration
	// Timeout after which a silent peer is declared failed (default
	// 10×Interval). It must comfortably exceed the transport's worst-case
	// delivery delay (including injected chaos latency).
	Timeout time.Duration
}

func (c *HeartbeatConfig) fillDefaults() {
	if c.Interval <= 0 {
		c.Interval = 50 * time.Millisecond
	}
	if c.Timeout <= 0 {
		c.Timeout = 10 * c.Interval
	}
}

// HeartbeatMonitor streams heartbeats to all peers and watches for peers
// going silent. Create it with StartHeartbeat and Close it when the rank
// leaves the world.
type HeartbeatMonitor struct {
	t      Transport
	cfg    HeartbeatConfig
	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup

	mu        sync.Mutex
	lastSeen  map[int]time.Time
	failed    map[int]bool
	onFailure func(rank int)
}

// StartHeartbeat begins heartbeating over t. onFailure (may be nil) is
// invoked at most once per failed peer, from the monitor goroutine.
func StartHeartbeat(t Transport, cfg HeartbeatConfig, onFailure func(rank int)) *HeartbeatMonitor {
	cfg.fillDefaults()
	ctx, cancel := context.WithCancel(context.Background())
	m := &HeartbeatMonitor{
		t: t, cfg: cfg, ctx: ctx, cancel: cancel,
		lastSeen:  make(map[int]time.Time),
		failed:    make(map[int]bool),
		onFailure: onFailure,
	}
	start := time.Now()
	self := t.Rank()
	for peer := 0; peer < t.Size(); peer++ {
		if peer != self {
			m.lastSeen[peer] = start // grace period: one full timeout from start
		}
	}
	for peer := 0; peer < t.Size(); peer++ {
		if peer == self {
			continue
		}
		m.wg.Add(2)
		go m.sendLoop(peer)
		go m.recvLoop(peer)
	}
	m.wg.Add(1)
	go m.watchLoop()
	return m
}

// sendLoop streams heartbeats to one peer until the monitor closes. Send
// errors are ignored: a dead or unreachable peer is the watcher's finding
// to make, from the silence of the reverse stream.
func (m *HeartbeatMonitor) sendLoop(peer int) {
	defer m.wg.Done()
	payload := []float64{0}
	ticker := time.NewTicker(m.cfg.Interval)
	defer ticker.Stop()
	for n := float64(0); ; n++ {
		payload[0] = n
		_ = m.t.Send(peer, heartbeatTag, payload)
		select {
		case <-m.ctx.Done():
			return
		case <-ticker.C:
		}
	}
}

// recvLoop consumes one peer's heartbeat stream, refreshing lastSeen. A
// dropped heartbeat is a gap, not a wedge: every message uses the same
// tag, so the next one that does arrive refreshes liveness.
func (m *HeartbeatMonitor) recvLoop(peer int) {
	defer m.wg.Done()
	for {
		if _, err := m.t.Recv(m.ctx, peer, heartbeatTag); err != nil {
			return // monitor closed, transport closed, or self killed
		}
		m.mu.Lock()
		m.lastSeen[peer] = time.Now()
		m.mu.Unlock()
	}
}

// watchLoop declares peers failed when their stream goes silent.
func (m *HeartbeatMonitor) watchLoop() {
	defer m.wg.Done()
	period := m.cfg.Interval / 2
	if period <= 0 {
		period = time.Millisecond
	}
	ticker := time.NewTicker(period)
	defer ticker.Stop()
	for {
		select {
		case <-m.ctx.Done():
			return
		case now := <-ticker.C:
			var newlyFailed []int
			m.mu.Lock()
			for peer, seen := range m.lastSeen {
				if !m.failed[peer] && now.Sub(seen) > m.cfg.Timeout {
					m.failed[peer] = true
					newlyFailed = append(newlyFailed, peer)
				}
			}
			m.mu.Unlock()
			if m.onFailure != nil {
				for _, peer := range newlyFailed {
					m.onFailure(peer)
				}
			}
		}
	}
}

// Failed lists the peers declared dead so far, ascending.
func (m *HeartbeatMonitor) Failed() []int {
	m.mu.Lock()
	defer m.mu.Unlock()
	var out []int
	for peer, f := range m.failed {
		if f {
			out = append(out, peer)
		}
	}
	sort.Ints(out)
	return out
}

// Close stops all monitor goroutines and waits for them to exit. It does
// not close the underlying transport.
func (m *HeartbeatMonitor) Close() {
	m.cancel()
	m.wg.Wait()
}
