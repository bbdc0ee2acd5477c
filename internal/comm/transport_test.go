package comm

import (
	"context"
	"fmt"
	"math"
	"math/bits"
	"runtime"
	"sync"
	"testing"
	"time"
)

// benchLink is the repository benchmark's link: 50 µs per message plus
// 100 MB/s.
var benchLink = ChaosConfig{
	Seed: 1, MinLatency: 50 * time.Microsecond, MaxLatency: 50 * time.Microsecond, BandwidthBps: 100e6,
}

// bigPayload is rank r's 8 MiB message: hashed bit patterns, NaNs and
// subnormals included, so a transport that moves values rather than bits
// shows.
func bigPayload(r int) []float64 {
	out := make([]float64, 1<<20)
	for i := range out {
		out[i] = math.Float64frombits(splitmix64(uint64(r)<<40 | uint64(i)))
	}
	return out
}

// TestSendReturnsBeforePeerReceives holds every transport to the contract
// a collective's hop relies on: Send does not wait for the peer's Recv.
// Both ranks of a world of two send each other an 8 MiB payload (larger
// than the loopback socket buffers) and 64 small messages before either
// calls Recv. Every Send must return within the deadline; then every
// message arrives in order, bit-equal.
func TestSendReturnsBeforePeerReceives(t *testing.T) {
	const small = 64
	bigTag, smallTag := uint64(1)<<16, uint64(2)<<16
	worlds := []struct {
		name string
		ends func(t *testing.T) [2]Transport
	}{
		{"inproc", func(t *testing.T) [2]Transport {
			f := NewInprocFabric(2)
			return [2]Transport{f.Endpoint(0), f.Endpoint(1)}
		}},
		{"chaos", func(t *testing.T) [2]Transport {
			f := NewChaosFabric(NewInprocFabric(2), 2, benchLink)
			return [2]Transport{f.Endpoint(0), f.Endpoint(1)}
		}},
		{"tcp", func(t *testing.T) [2]Transport {
			addrs := freePorts(t, 2)
			var ends [2]Transport
			errs := make(chan error, 2)
			for r := range ends {
				go func(r int) {
					f, err := NewTCPFabric(r, addrs, 5*time.Second)
					if err == nil {
						ends[r] = f
					}
					errs <- err
				}(r)
			}
			for range ends {
				if err := <-errs; err != nil {
					t.Fatal(err)
				}
			}
			return ends
		}},
	}
	for _, w := range worlds {
		t.Run(w.name, func(t *testing.T) {
			ends := w.ends(t)
			defer func() {
				for _, e := range ends {
					e.Close()
				}
			}()
			var sending sync.WaitGroup
			sending.Add(len(ends))
			allSent := make(chan struct{})
			go func() { sending.Wait(); close(allSent) }()
			errs := make(chan error, len(ends))
			for r, e := range ends {
				go func(r int, e Transport) {
					errs <- func() error {
						peer := 1 - r
						sendErr := e.Send(peer, bigTag, bigPayload(r))
						for k := 0; k < small && sendErr == nil; k++ {
							sendErr = e.Send(peer, smallTag, []float64{float64(r), float64(k)})
						}
						sending.Done()
						if sendErr != nil {
							return fmt.Errorf("rank %d send: %w", r, sendErr)
						}
						<-allSent
						got, err := e.Recv(context.Background(), peer, bigTag)
						if err != nil {
							return fmt.Errorf("rank %d recv: %w", r, err)
						}
						want := bigPayload(peer)
						if len(got) != len(want) {
							return fmt.Errorf("rank %d: payload of %d values, want %d", r, len(got), len(want))
						}
						for i := range want {
							if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
								return fmt.Errorf("rank %d: payload value %d is %x, want %x",
									r, i, math.Float64bits(got[i]), math.Float64bits(want[i]))
							}
						}
						for k := 0; k < small; k++ {
							msg, err := e.Recv(context.Background(), peer, smallTag)
							if err != nil {
								return fmt.Errorf("rank %d recv small %d: %w", r, k, err)
							}
							if len(msg) != 2 || msg[0] != float64(peer) || msg[1] != float64(k) {
								return fmt.Errorf("rank %d: small message %d is %v, want [%d %d]", r, k, msg, peer, k)
							}
						}
						return nil
					}()
				}(r, e)
			}
			select {
			case <-allSent:
			case <-time.After(10 * time.Second):
				t.Fatal("a Send did not return before its peer received: the transport waits for Recv")
			}
			for range ends {
				if err := <-errs; err != nil {
					t.Error(err)
				}
			}
		})
	}
}

// TestCollectiveHopAllocs pins the heap allocations of one collective hop,
// per rank, over 200 world-4 AllreduceMean calls (2·log₂4 = 4 hops each).
// In process a hop costs the transport's payload copy and the mailbox's
// queue entry, no more. On the benchmark's link, under a cancellable
// context as every in-process world's rank has, the chaos send's timer
// and the mailbox's context.AfterFunc add theirs. A hop that starts a
// goroutine, or a receive that derives a context, exceeds both bounds.
// Each bound carries 0.05 per hop (160 allocations over the window) for
// the runtime's own bookkeeping and the mailbox maps' occasional growth.
func TestCollectiveHopAllocs(t *testing.T) {
	const p, calls = 4, 200
	hops := 2 * bits.TrailingZeros(uint(p))
	for _, tc := range []struct {
		name        string
		fabric      func() Fabric
		cancellable bool
		perHop      float64
	}{
		{"inproc", func() Fabric { return NewInprocFabric(p) }, false, 2},
		{"chaos", func() Fabric { return NewChaosFabric(NewInprocFabric(p), p, benchLink) }, true, 8},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ctx, cancel := context.Background(), context.CancelFunc(func() {})
			if tc.cancellable {
				ctx, cancel = context.WithCancel(ctx)
			}
			defer cancel()
			fab := tc.fabric()
			var before, after runtime.MemStats
			var ready, done sync.WaitGroup
			gate := make(chan struct{})
			ready.Add(p)
			done.Add(p)
			for r := 0; r < p; r++ {
				go func(r int) {
					defer done.Done()
					c := NewCommunicator(fab.Endpoint(r)).WithContext(ctx)
					data := scheduleInput(r, 64)
					err := c.AllreduceMean(data) // warm the mailboxes' maps
					ready.Done()
					<-gate
					for i := 0; i < calls && err == nil; i++ {
						err = c.AllreduceMean(data)
					}
					if err != nil {
						t.Errorf("rank %d: %v", r, err)
					}
				}(r)
			}
			ready.Wait()
			runtime.ReadMemStats(&before)
			close(gate)
			done.Wait()
			runtime.ReadMemStats(&after)
			got := float64(after.Mallocs-before.Mallocs) / float64(p*calls*hops)
			t.Logf("%s: %.3f allocations per hop per rank", tc.name, got)
			if got > tc.perHop+0.05 {
				t.Errorf("%s: a hop allocates %.2f times per rank, want at most %v", tc.name, got, tc.perHop)
			}
		})
	}
}
