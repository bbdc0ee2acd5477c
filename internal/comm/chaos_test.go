package comm

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"testing"
	"time"
)

// chaosWorld builds a chaos-wrapped in-process world.
func chaosWorld(n int, cfg ChaosConfig) *ChaosFabric {
	return NewChaosFabric(NewInprocFabric(n), n, cfg)
}

// TestChaosDeterministicSchedule replays the same collective schedule under
// the same seed twice and asserts the fault sequence — per-rank delay
// totals, drop counts, retry counts — replays exactly, and that a different
// seed produces a different sequence.
func TestChaosDeterministicSchedule(t *testing.T) {
	run := func(seed int64) []DeliveryMetrics {
		const p = 3
		fab := chaosWorld(p, ChaosConfig{
			Seed:         seed,
			MinLatency:   10 * time.Microsecond,
			MaxLatency:   120 * time.Microsecond,
			DropRate:     0.3,
			MaxRetries:   8,
			RetryBackoff: 10 * time.Microsecond,
		})
		var wg sync.WaitGroup
		for r := 0; r < p; r++ {
			wg.Add(1)
			go func(r int) {
				defer wg.Done()
				c := NewCommunicator(fab.Endpoint(r))
				data := []float64{float64(r + 1), float64(2 * r), 7, 9}
				for i := 0; i < 4; i++ {
					if err := c.AllreduceSum(data); err != nil {
						t.Errorf("rank %d allreduce: %v", r, err)
						return
					}
					if _, err := c.AllgatherVAsync([]float64{float64(r)}).Wait(); err != nil {
						t.Errorf("rank %d allgather: %v", r, err)
						return
					}
				}
			}(r)
		}
		wg.Wait()
		out := make([]DeliveryMetrics, p)
		for r := 0; r < p; r++ {
			out[r] = fab.Metrics(r)
		}
		return out
	}

	a, b := run(42), run(42)
	for r := range a {
		if a[r] != b[r] {
			t.Errorf("rank %d: same seed, different fault sequence:\n  %+v\n  %+v", r, a[r], b[r])
		}
	}
	c := run(43)
	same := true
	for r := range a {
		if a[r].Dropped != c[r].Dropped || a[r].InjectedDelay != c[r].InjectedDelay {
			same = false
		}
	}
	if same {
		t.Error("different seeds produced an identical fault sequence (suspicious hash)")
	}
	if total := a[0].Dropped + a[1].Dropped + a[2].Dropped; total == 0 {
		t.Error("expected some drops at DropRate 0.3")
	}
}

// TestChaosLatencyOnlyPreservesValues checks the acceptance property that
// latency injection perturbs timing, never arithmetic: a chaos-free and a
// latency-chaos allreduce produce bit-identical results.
func TestChaosLatencyOnlyPreservesValues(t *testing.T) {
	const p = 4
	run := func(chaos bool) [][]float64 {
		var fab Fabric = NewInprocFabric(p)
		if chaos {
			fab = NewChaosFabric(fab, p, ChaosConfig{
				Seed: 7, MinLatency: 5 * time.Microsecond, MaxLatency: 80 * time.Microsecond,
			})
		}
		out := make([][]float64, p)
		var wg sync.WaitGroup
		for r := 0; r < p; r++ {
			wg.Add(1)
			go func(r int) {
				defer wg.Done()
				c := NewCommunicator(fab.Endpoint(r))
				data := make([]float64, 13)
				for i := range data {
					data[i] = float64((r+1)*(i+3)) * 0.125
				}
				if err := c.AllreduceMean(data); err != nil {
					t.Errorf("rank %d: %v", r, err)
				}
				out[r] = data
			}(r)
		}
		wg.Wait()
		return out
	}
	clean, chaotic := run(false), run(true)
	for r := 0; r < p; r++ {
		for i := range clean[r] {
			if clean[r][i] != chaotic[r][i] {
				t.Fatalf("rank %d elem %d: latency chaos changed the value: %v != %v",
					r, i, chaotic[r][i], clean[r][i])
			}
		}
	}
}

// TestChaosDropRetryTransparent: drops below the retry budget must be
// invisible to the collective result.
func TestChaosDropRetryTransparent(t *testing.T) {
	const p = 3
	fab := chaosWorld(p, ChaosConfig{
		Seed: 11, DropRate: 0.4, MaxRetries: 16, RetryBackoff: 5 * time.Microsecond,
	})
	var wg sync.WaitGroup
	results := make([][]float64, p)
	for r := 0; r < p; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			c := NewCommunicator(fab.Endpoint(r))
			data := []float64{float64(r), 1, 2}
			if err := c.AllreduceSum(data); err != nil {
				t.Errorf("rank %d: %v", r, err)
			}
			results[r] = data
		}(r)
	}
	wg.Wait()
	want := []float64{3, 3, 6} // 0+1+2, 1×3, 2×3
	for r := 0; r < p; r++ {
		for i := range want {
			if results[r][i] != want[i] {
				t.Errorf("rank %d: got %v, want %v", r, results[r], want)
			}
		}
	}
	m := fab.TotalMetrics()
	if m.Dropped == 0 || m.Retried != m.Dropped {
		t.Errorf("expected every drop retried (below budget): %+v", m)
	}
}

// TestChaosRetryExhaustion: DropRate 1 defeats any bounded retry budget and
// must surface ErrDropped rather than hanging or panicking.
func TestChaosRetryExhaustion(t *testing.T) {
	fab := chaosWorld(2, ChaosConfig{Seed: 1, DropRate: 1, MaxRetries: 2, RetryBackoff: time.Microsecond})
	err := fab.Endpoint(0).Send(1, 1<<16, []float64{1})
	if !errors.Is(err, ErrDropped) {
		t.Fatalf("got %v, want ErrDropped", err)
	}
	if m := fab.Metrics(0); m.Dropped != 3 || m.Retried != 2 || m.Sent != 0 {
		t.Errorf("metrics after exhaustion: %+v", m)
	}
}

// TestChaosScriptedKill: a Kill between two sends kills the rank: its next
// send fails with ErrRankKilled, peers sending to it see ErrPeerKilled,
// and its own blocked Recv unblocks with ErrRankKilled.
func TestChaosScriptedKill(t *testing.T) {
	fab := chaosWorld(2, ChaosConfig{Seed: 1})
	e0, e1 := fab.Endpoint(0), fab.Endpoint(1)

	// A receive blocked before the kill must unblock when it fires.
	recvErr := make(chan error, 1)
	go func() {
		_, err := e0.Recv(context.Background(), 1, 99<<16)
		recvErr <- err
	}()

	if err := e0.Send(1, 1<<16, []float64{1}); err != nil {
		t.Fatalf("send 1: %v", err)
	}
	if err := e0.Send(1, 2<<16, []float64{2}); err != nil {
		t.Fatalf("send 2: %v", err)
	}
	fab.Kill(0)
	if err := e0.Send(1, 3<<16, []float64{3}); !errors.Is(err, ErrRankKilled) {
		t.Fatalf("send 3: got %v, want ErrRankKilled", err)
	}
	select {
	case err := <-recvErr:
		if !errors.Is(err, ErrRankKilled) {
			t.Fatalf("blocked recv: got %v, want ErrRankKilled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("blocked recv did not unblock on kill")
	}
	if err := e1.Send(0, 4<<16, []float64{4}); !errors.Is(err, ErrPeerKilled) {
		t.Fatalf("peer send: got %v, want ErrPeerKilled", err)
	}
	if got := fab.Killed(); len(got) != 1 || got[0] != 0 {
		t.Fatalf("Killed() = %v, want [0]", got)
	}
}

// killAtTagStep kills victim in place of sending to it at one tag step,
// after a pause that lets the victim block in that step's receive.
type killAtTagStep struct {
	Transport
	fab    *ChaosFabric
	victim int
	step   uint64
}

func (k *killAtTagStep) Send(to int, tag uint64, data []float64) error {
	if to == k.victim && tag&0xffff == k.step {
		time.Sleep(20 * time.Millisecond)
		k.fab.Kill(k.victim)
	}
	return k.Transport.Send(to, tag, data)
}

// TestChaosKillMidAllreduce: a rank killed while blocked in a world-4
// AllreduceMean returns ErrRankKilled. Its partner kills it in place of
// the first halving step's send; the victim runs without a context, so
// only Kill closing its endpoint can wake it. The survivors abort through
// a shared context, and every goroutine winds down.
func TestChaosKillMidAllreduce(t *testing.T) {
	const p, victim = 4, 3
	base := runtime.NumGoroutine()
	fab := chaosWorld(p, ChaosConfig{Seed: 1})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	errs := make([]error, p)
	var wg sync.WaitGroup
	for r := 0; r < p; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			tr := fab.Endpoint(r)
			if r == victim^1 {
				tr = &killAtTagStep{Transport: tr, fab: fab, victim: victim, step: 0}
			}
			c := NewCommunicator(tr)
			if r != victim {
				c = c.WithContext(ctx)
			}
			if errs[r] = c.AllreduceMean(make([]float64, 64)); errs[r] != nil {
				cancel()
			}
		}(r)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("ranks did not return after a kill mid-allreduce")
	}
	if !errors.Is(errs[victim], ErrRankKilled) {
		t.Errorf("victim returned %v, want ErrRankKilled", errs[victim])
	}
	for r, err := range errs {
		if r != victim && err == nil {
			t.Errorf("rank %d finished an allreduce its peer died in", r)
		}
	}
	for r := 0; r < p; r++ {
		fab.Endpoint(r).Close()
	}
	if n := waitForGoroutines(base); n > base {
		buf := make([]byte, 1<<20)
		buf = buf[:runtime.Stack(buf, true)]
		t.Errorf("goroutines leaked after a kill: %d > %d\n%s", n, base, dumpNew(string(buf)))
	}
}

// TestChaosKillBeforeEndpoint: a rank killed before its endpoint is first
// taken gets an endpoint whose inner transport is already closed, so a
// later Recv returns ErrRankKilled and the inner one fails rather than
// blocks. Kill, then Close twice, does not panic.
func TestChaosKillBeforeEndpoint(t *testing.T) {
	fab := chaosWorld(2, ChaosConfig{Seed: 1})
	fab.Kill(1)
	e := fab.Endpoint(1)
	if _, err := e.Recv(context.Background(), 0, 1<<16); !errors.Is(err, ErrRankKilled) {
		t.Fatalf("recv after kill: got %v, want ErrRankKilled", err)
	}
	if _, err := e.(*ChaosTransport).inner.Recv(context.Background(), 0, 1<<16); err == nil {
		t.Fatal("the killed rank's inner endpoint is still open")
	}
	fab.Kill(0)
	for i := 0; i < 2; i++ {
		for r := 0; r < 2; r++ {
			if err := fab.Endpoint(r).Close(); err != nil {
				t.Errorf("close %d of rank %d: %v", i, r, err)
			}
		}
	}
}

// TestChaosBandwidthCap: a byte-proportional delay must be recorded for
// large payloads.
func TestChaosBandwidthCap(t *testing.T) {
	fab := chaosWorld(2, ChaosConfig{Seed: 5, BandwidthBps: 8e6}) // 1M floats/s
	payload := make([]float64, 2000)                              // → 2ms injected
	start := time.Now()
	if err := fab.Endpoint(0).Send(1, 1<<16, payload); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed < 1500*time.Microsecond {
		t.Errorf("bandwidth cap not applied: send took %v", elapsed)
	}
	if m := fab.Metrics(0); m.InjectedDelay < 1500*time.Microsecond || m.Bytes != 16000 {
		t.Errorf("metrics: %+v", m)
	}
}

// TestChaosRecvCtxStillWins: a caller context cancellation must still
// surface as the context error, not be misattributed to a kill.
func TestChaosRecvCtxStillWins(t *testing.T) {
	fab := chaosWorld(2, ChaosConfig{Seed: 1})
	ctx, cancel := context.WithCancel(context.Background())
	go func() { time.Sleep(10 * time.Millisecond); cancel() }()
	_, err := fab.Endpoint(0).Recv(ctx, 1, 1<<16)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
}

// BenchmarkChaosLinkHop measures what one dependent hop costs on the
// repository benchmark's link (ChaosFabric, 50 µs + 100 MB/s): a one-value
// ping-pong between two ranks, ns/op per one-way hop. The nominal cost is
// the 50 µs latency; the measured one is dominated by timer granularity
// (docs/PERFORMANCE.md, "Communication"). Run with
// `go test ./internal/comm -run '^$' -bench ChaosLinkHop -benchtime 400x`.
func BenchmarkChaosLinkHop(b *testing.B) {
	fab := NewChaosFabric(NewInprocFabric(2), 2, ChaosConfig{
		Seed: 1, MinLatency: 50 * time.Microsecond, MaxLatency: 50 * time.Microsecond, BandwidthBps: 100e6,
	})
	ends := [2]Transport{fab.Endpoint(0), fab.Endpoint(1)}
	ctx := context.Background()
	done := make(chan error, 1)
	go func() {
		for i := 0; i < b.N; i += 2 {
			msg, err := ends[1].Recv(ctx, 0, uint64(1<<16+i))
			if err == nil {
				err = ends[1].Send(0, uint64(1<<16+i+1), msg)
			}
			if err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()
	b.ResetTimer()
	for i := 0; i < b.N; i += 2 {
		if err := ends[0].Send(1, uint64(1<<16+i), []float64{1}); err != nil {
			b.Fatal(err)
		}
		if _, err := ends[0].Recv(ctx, 1, uint64(1<<16+i+1)); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if err := <-done; err != nil {
		b.Fatal(err)
	}
}
