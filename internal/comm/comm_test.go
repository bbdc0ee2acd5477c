package comm

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"net"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/tensor"
)

// runWorld executes fn on every rank of a fresh in-process world and fails
// the test on any per-rank error.
func runWorld(t *testing.T, p int, fn func(c *Communicator) error) {
	t.Helper()
	fab := NewInprocFabric(p)
	errs := make([]error, p)
	var wg sync.WaitGroup
	for r := 0; r < p; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			errs[r] = fn(NewCommunicator(fab.Endpoint(r)))
		}(r)
	}
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", r, err)
		}
	}
}

func TestAllreduceSumSingleRank(t *testing.T) {
	runWorld(t, 1, func(c *Communicator) error {
		data := []float64{1, 2, 3}
		if err := c.AllreduceSum(data); err != nil {
			return err
		}
		if data[0] != 1 || data[2] != 3 {
			return fmt.Errorf("single-rank allreduce mutated data: %v", data)
		}
		return nil
	})
}

func TestAllreduceSumAcrossSizes(t *testing.T) {
	for _, p := range []int{2, 3, 4, 7, 8} {
		for _, n := range []int{1, 2, p - 1, p, p + 1, 100, 1023} {
			if n < 1 {
				continue
			}
			p, n := p, n
			t.Run(fmt.Sprintf("p%d_n%d", p, n), func(t *testing.T) {
				var mu sync.Mutex
				results := make(map[int][]float64)
				runWorld(t, p, func(c *Communicator) error {
					data := make([]float64, n)
					for i := range data {
						data[i] = float64(c.Rank()*1000 + i)
					}
					if err := c.AllreduceSum(data); err != nil {
						return err
					}
					mu.Lock()
					results[c.Rank()] = data
					mu.Unlock()
					return nil
				})
				// Expected sum: Σ_r (r*1000 + i) = 1000·p(p−1)/2 + p·i.
				for r := 0; r < p; r++ {
					for i := 0; i < n; i++ {
						want := 1000*float64(p*(p-1)/2) + float64(p*i)
						if math.Abs(results[r][i]-want) > 1e-9 {
							t.Fatalf("rank %d elem %d = %v, want %v", r, i, results[r][i], want)
						}
					}
				}
			})
		}
	}
}

func TestAllreduceMean(t *testing.T) {
	runWorld(t, 4, func(c *Communicator) error {
		data := []float64{float64(c.Rank())}
		if err := c.AllreduceMean(data); err != nil {
			return err
		}
		if math.Abs(data[0]-1.5) > 1e-12 {
			return fmt.Errorf("mean = %v, want 1.5", data[0])
		}
		return nil
	})
}

// Property: allreduce-sum equals the directly computed elementwise sum for
// random vectors and world sizes.
func TestAllreduceSumProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := 2 + rng.Intn(6)
		n := 1 + rng.Intn(64)
		inputs := make([][]float64, p)
		want := make([]float64, n)
		for r := 0; r < p; r++ {
			inputs[r] = make([]float64, n)
			for i := range inputs[r] {
				inputs[r][i] = rng.NormFloat64()
				want[i] += inputs[r][i]
			}
		}
		fab := NewInprocFabric(p)
		got := make([][]float64, p)
		var wg sync.WaitGroup
		ok := true
		var mu sync.Mutex
		for r := 0; r < p; r++ {
			wg.Add(1)
			go func(r int) {
				defer wg.Done()
				c := NewCommunicator(fab.Endpoint(r))
				data := append([]float64(nil), inputs[r]...)
				if err := c.AllreduceSum(data); err != nil {
					mu.Lock()
					ok = false
					mu.Unlock()
					return
				}
				got[r] = data
			}(r)
		}
		wg.Wait()
		if !ok {
			return false
		}
		for r := 0; r < p; r++ {
			for i := 0; i < n; i++ {
				if math.Abs(got[r][i]-want[i]) > 1e-9 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestBroadcastFromEachRoot(t *testing.T) {
	for _, p := range []int{2, 3, 5, 8} {
		for root := 0; root < p; root++ {
			p, root := p, root
			t.Run(fmt.Sprintf("p%d_root%d", p, root), func(t *testing.T) {
				runWorld(t, p, func(c *Communicator) error {
					data := make([]float64, 17)
					if c.Rank() == root {
						for i := range data {
							data[i] = float64(i * i)
						}
					}
					if err := c.Broadcast(data, root); err != nil {
						return err
					}
					for i := range data {
						if data[i] != float64(i*i) {
							return fmt.Errorf("rank %d elem %d = %v", c.Rank(), i, data[i])
						}
					}
					return nil
				})
			})
		}
	}
}

func TestAllgatherV(t *testing.T) {
	for _, p := range []int{1, 2, 3, 6} {
		p := p
		t.Run(fmt.Sprintf("p%d", p), func(t *testing.T) {
			runWorld(t, p, func(c *Communicator) error {
				// Rank r contributes r+1 elements, all valued r.
				mine := make([]float64, c.Rank()+1)
				for i := range mine {
					mine[i] = float64(c.Rank())
				}
				got, err := c.AllgatherVAsync(mine).Wait()
				if err != nil {
					return err
				}
				if len(got) != p {
					return fmt.Errorf("got %d blocks, want %d", len(got), p)
				}
				for r := 0; r < p; r++ {
					if len(got[r]) != r+1 {
						return fmt.Errorf("block %d len %d, want %d", r, len(got[r]), r+1)
					}
					for _, v := range got[r] {
						if v != float64(r) {
							return fmt.Errorf("block %d has value %v", r, v)
						}
					}
				}
				return nil
			})
		})
	}
}

func TestAsyncAllreduceOverlap(t *testing.T) {
	// Launch several async allreduces before waiting on any, exercising tag
	// separation between in-flight collectives.
	runWorld(t, 4, func(c *Communicator) error {
		const k = 5
		bufs := make([][]float64, k)
		handles := make([]*Handle, k)
		for i := 0; i < k; i++ {
			bufs[i] = []float64{float64(c.Rank() + i)}
			handles[i] = c.AllreduceMeanAsync(bufs[i])
		}
		for i := k - 1; i >= 0; i-- { // wait out of order
			if err := handles[i].Wait(); err != nil {
				return err
			}
		}
		for i := 0; i < k; i++ {
			want := float64(0+1+2+3)/4 + float64(i)
			if bufs[i][0] != want {
				return fmt.Errorf("op %d = %v, want %v", i, bufs[i][0], want)
			}
		}
		return nil
	})
}

// allreduceMeanTensors averages ts across ranks through one Fuser with the
// given budget.
func allreduceMeanTensors(c *Communicator, limitBytes int, ts ...*tensor.Tensor) error {
	fu := NewFuser(c, limitBytes)
	for _, t := range ts {
		fu.Add(t)
	}
	return fu.Flush()
}

func TestFuserAveragesTensors(t *testing.T) {
	runWorld(t, 3, func(c *Communicator) error {
		a := tensor.Full(float64(c.Rank()), 4)
		b := tensor.Full(float64(c.Rank()*10), 3, 3)
		if err := allreduceMeanTensors(c, 0, a, b); err != nil {
			return err
		}
		for _, v := range a.Data {
			if math.Abs(v-1) > 1e-12 {
				return fmt.Errorf("a = %v, want 1", v)
			}
		}
		for _, v := range b.Data {
			if math.Abs(v-10) > 1e-12 {
				return fmt.Errorf("b = %v, want 10", v)
			}
		}
		return nil
	})
}

func TestFuserSmallLimitSplitsBatches(t *testing.T) {
	// A tiny limit forces one fused launch per tensor; results must be
	// identical to the single-launch case.
	runWorld(t, 2, func(c *Communicator) error {
		ts := make([]*tensor.Tensor, 6)
		for i := range ts {
			ts[i] = tensor.Full(float64(c.Rank()+i), 8)
		}
		if err := allreduceMeanTensors(c, 1, ts...); err != nil {
			return err
		}
		for i, tt := range ts {
			want := float64(i) + 0.5
			for _, v := range tt.Data {
				if math.Abs(v-want) > 1e-12 {
					return fmt.Errorf("tensor %d = %v, want %v", i, v, want)
				}
			}
		}
		return nil
	})
}

func TestSplitCoversAll(t *testing.T) {
	for n := 0; n < 40; n++ {
		for p := 1; p <= 9; p++ {
			counts, displs := split(n, p)
			total := 0
			for _, c := range counts {
				total += c
			}
			if total != n {
				t.Fatalf("split(%d,%d) counts sum %d", n, p, total)
			}
			if displs[p] != n {
				t.Fatalf("split(%d,%d) final displacement %d", n, p, displs[p])
			}
			// Chunks differ in size by at most one.
			for _, c := range counts {
				if c < n/p || c > n/p+1 {
					t.Fatalf("split(%d,%d) uneven chunk %d", n, p, c)
				}
			}
		}
	}
}

func TestInprocSendToInvalidRank(t *testing.T) {
	fab := NewInprocFabric(2)
	e := fab.Endpoint(0)
	if err := e.Send(5, 1, []float64{1}); err == nil {
		t.Error("expected error sending to invalid rank")
	}
	if _, err := e.Recv(context.Background(), -1, 1); err == nil {
		t.Error("expected error receiving from invalid rank")
	}
}

func TestInprocSendCopiesData(t *testing.T) {
	fab := NewInprocFabric(2)
	a, b := fab.Endpoint(0), fab.Endpoint(1)
	buf := []float64{1, 2, 3}
	if err := a.Send(1, 7, buf); err != nil {
		t.Fatal(err)
	}
	buf[0] = 99 // sender reuses its buffer
	got, err := b.Recv(context.Background(), 0, 7)
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != 1 {
		t.Error("Send must copy the payload")
	}
}

func TestMailboxOutOfOrderTags(t *testing.T) {
	fab := NewInprocFabric(2)
	a, b := fab.Endpoint(0), fab.Endpoint(1)
	if err := a.Send(1, 100, []float64{100}); err != nil {
		t.Fatal(err)
	}
	if err := a.Send(1, 200, []float64{200}); err != nil {
		t.Fatal(err)
	}
	// Receive in reverse tag order.
	got, err := b.Recv(context.Background(), 0, 200)
	if err != nil || got[0] != 200 {
		t.Fatalf("tag 200: %v %v", got, err)
	}
	got, err = b.Recv(context.Background(), 0, 100)
	if err != nil || got[0] != 100 {
		t.Fatalf("tag 100: %v %v", got, err)
	}
}

func TestTCPFabricAllreduce(t *testing.T) {
	if testing.Short() {
		t.Skip("tcp test skipped in -short")
	}
	const p = 3
	// Reserve distinct loopback ports by listening on :0 first.
	addrs := make([]string, p)
	for i := range addrs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		addrs[i] = ln.Addr().String()
		ln.Close()
	}
	var wg sync.WaitGroup
	errs := make([]error, p)
	for r := 0; r < p; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			fab, err := NewTCPFabric(r, addrs, 5*time.Second)
			if err != nil {
				errs[r] = err
				return
			}
			defer fab.Close()
			c := NewCommunicator(fab)
			data := []float64{float64(r), float64(r * 2)}
			if err := c.AllreduceSum(data); err != nil {
				errs[r] = err
				return
			}
			if data[0] != 3 || data[1] != 6 {
				errs[r] = fmt.Errorf("rank %d result %v", r, data)
				return
			}
			// Exercise broadcast and allgather over TCP too.
			bc := make([]float64, 4)
			if r == 1 {
				for i := range bc {
					bc[i] = 7
				}
			}
			if err := c.Broadcast(bc, 1); err != nil {
				errs[r] = err
				return
			}
			if bc[3] != 7 {
				errs[r] = fmt.Errorf("rank %d broadcast got %v", r, bc)
			}
		}(r)
	}
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", r, err)
		}
	}
}
