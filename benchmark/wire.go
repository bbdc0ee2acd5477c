package main

import (
	"context"
	"sync/atomic"
	"time"

	"repro/internal/comm"
)

// countingTransport wraps one rank's endpoint and counts what crosses it:
// send calls, payload bytes and — when timeRecv is set (traced runs only,
// it costs a clock pair per receive) — the time the rank spent blocked in
// Recv, which is communication not hidden behind compute.
type countingTransport struct {
	comm.Transport
	timeRecv   bool
	sends      atomic.Int64
	bytes      atomic.Int64
	recvWaitNS atomic.Int64
}

func (t *countingTransport) Send(to int, tag uint64, data []float64) error {
	t.sends.Add(1)
	t.bytes.Add(int64(8 * len(data)))
	return t.Transport.Send(to, tag, data)
}

func (t *countingTransport) Recv(ctx context.Context, from int, tag uint64) ([]float64, error) {
	if !t.timeRecv {
		return t.Transport.Recv(ctx, from, tag)
	}
	t0 := time.Now()
	data, err := t.Transport.Recv(ctx, from, tag)
	t.recvWaitNS.Add(int64(time.Since(t0)))
	return data, err
}

// wireCounts is a snapshot of one endpoint's counters.
type wireCounts struct{ sends, bytes, recvWaitNS int64 }

func (t *countingTransport) counts() wireCounts {
	return wireCounts{t.sends.Load(), t.bytes.Load(), t.recvWaitNS.Load()}
}

func (a wireCounts) sub(b wireCounts) wireCounts {
	return wireCounts{a.sends - b.sends, a.bytes - b.bytes, a.recvWaitNS - b.recvWaitNS}
}

// countingFabric hands out one countingTransport per rank over inner, and
// keeps them so the harness can read the counters after the run.
type countingFabric struct {
	ends []*countingTransport
}

// newCountingFabric builds the world's fabric: in-process mailboxes, behind
// the fixed α–β link when link is set. chaos is nil on a clean fabric.
func newCountingFabric(world int, link bool, seed int64, timeRecv bool) (f *countingFabric, chaos *comm.ChaosFabric) {
	var inner comm.Fabric = comm.NewInprocFabric(world)
	if link {
		chaos = comm.NewChaosFabric(inner, world, comm.ChaosConfig{
			Seed: seed, MinLatency: linkLatency, MaxLatency: linkLatency, BandwidthBps: linkBandwidth,
		})
		inner = chaos
	}
	f = &countingFabric{ends: make([]*countingTransport, world)}
	for r := range f.ends {
		f.ends[r] = &countingTransport{Transport: inner.Endpoint(r), timeRecv: timeRecv}
	}
	return f, chaos
}

func (f *countingFabric) Endpoint(rank int) comm.Transport { return f.ends[rank] }

// total sums the counters over all ranks.
func (f *countingFabric) total() wireCounts {
	var sum wireCounts
	for _, e := range f.ends {
		c := e.counts()
		sum.sends += c.sends
		sum.bytes += c.bytes
		sum.recvWaitNS += c.recvWaitNS
	}
	return sum
}
