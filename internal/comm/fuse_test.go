package comm

import (
	"sync"
	"testing"

	"repro/internal/tensor"
)

// runRanks executes fn on every rank of a fresh in-process fabric and fails
// the test on any rank error.
func runRanks(t *testing.T, p int, fn func(c *Communicator) error) {
	t.Helper()
	fab := NewInprocFabric(p)
	var wg sync.WaitGroup
	errs := make([]error, p)
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

func TestFuserTensorLargerThanBudget(t *testing.T) {
	// One tensor bigger than the fusion budget must form its own chunk and
	// still be averaged correctly.
	const p = 3
	const n = 64 // 512 bytes > 128-byte budget
	var mu sync.Mutex
	results := map[int]*tensor.Tensor{}
	runRanks(t, p, func(c *Communicator) error {
		big := tensor.Full(float64(c.Rank()), n)
		small := tensor.Full(float64(c.Rank()+10), 2)
		fu := NewFuser(c, 128)
		fu.Add(big)
		fu.Add(small)
		if err := fu.Flush(); err != nil {
			return err
		}
		mu.Lock()
		results[c.Rank()] = big
		mu.Unlock()
		return nil
	})
	want := (0.0 + 1 + 2) / 3
	for r, got := range results {
		for i := 0; i < n; i++ {
			if got.Data[i] != want {
				t.Fatalf("rank %d big[%d] = %v, want %v", r, i, got.Data[i], want)
			}
		}
	}
}

func TestFuserZeroSizeTensors(t *testing.T) {
	// Zero-element tensors must pass through without deadlocking or
	// corrupting neighbouring tensors.
	const p = 2
	runRanks(t, p, func(c *Communicator) error {
		empty := tensor.New(0)
		v := tensor.Full(float64(c.Rank()), 4)
		empty2 := tensor.New(0)
		fu := NewFuser(c, 1024)
		fu.Add(empty)
		fu.Add(v)
		fu.Add(empty2)
		if err := fu.Flush(); err != nil {
			return err
		}
		for i := range v.Data {
			if v.Data[i] != 0.5 {
				t.Errorf("rank %d v[%d] = %v, want 0.5", c.Rank(), i, v.Data[i])
			}
		}
		return nil
	})
}

func TestFuserOnlyZeroSizeTensors(t *testing.T) {
	// A flush whose every tensor is empty must not emit wire traffic that
	// could deadlock; it should simply complete.
	runRanks(t, 2, func(c *Communicator) error {
		fu := NewFuser(c, 1024)
		fu.Add(tensor.New(0))
		fu.Add(tensor.New(0))
		return fu.Flush()
	})
}

func TestFuserFlushEmptyBuffer(t *testing.T) {
	// Flush with nothing added is a no-op, and a second Flush after a
	// completed one is too.
	runRanks(t, 2, func(c *Communicator) error {
		fu := NewFuser(c, 1024)
		if err := fu.Flush(); err != nil {
			return err
		}
		v := tensor.Full(float64(c.Rank()), 3)
		fu.Add(v)
		if err := fu.Flush(); err != nil {
			return err
		}
		return fu.Flush()
	})
}

func TestFuserStreamingChunks(t *testing.T) {
	// Streaming interface: chunks become available incrementally, each chunk
	// waits independently, and chunk boundaries are deterministic.
	const p = 2
	runRanks(t, p, func(c *Communicator) error {
		ts := make([]*tensor.Tensor, 6)
		for i := range ts {
			ts[i] = tensor.Full(float64(c.Rank()+i), 4) // 32 bytes each
		}
		fu := NewFuser(c, 64) // two tensors per chunk
		var chunks []*Chunk
		for _, x := range ts {
			fu.Add(x)
			chunks = append(chunks, fu.TakeLaunched()...)
		}
		chunks = append(chunks, fu.FlushAsync()...)
		if len(chunks) != 3 {
			t.Errorf("rank %d: got %d chunks, want 3", c.Rank(), len(chunks))
		}
		for _, ch := range chunks {
			if len(ch.Tensors()) != 2 {
				t.Errorf("rank %d: chunk holds %d tensors, want 2", c.Rank(), len(ch.Tensors()))
			}
			if err := ch.Wait(); err != nil {
				return err
			}
		}
		for i, x := range ts {
			want := float64(i) + 0.5 // mean of ranks 0 and 1 offsets
			for _, v := range x.Data {
				if v != want {
					t.Errorf("rank %d tensor %d = %v, want %v", c.Rank(), i, v, want)
				}
			}
		}
		return nil
	})
}

func TestFuserReuseAfterFlushKeepsTakenChunks(t *testing.T) {
	// Chunks handed out via TakeLaunched must stay valid when the fuser is
	// flushed and reused: Flush drops its backing array instead of
	// recycling it underneath the caller's slice.
	runRanks(t, 2, func(c *Communicator) error {
		fu := NewFuser(c, 8) // every tensor launches immediately
		first := tensor.Full(float64(c.Rank()), 2)
		fu.Add(first)
		taken := fu.TakeLaunched()
		if len(taken) != 1 || taken[0].Tensors()[0] != first {
			t.Errorf("rank %d: unexpected taken chunks", c.Rank())
		}
		if err := fu.Flush(); err != nil {
			return err
		}
		second := tensor.Full(float64(c.Rank()+10), 2)
		fu.Add(second)
		if err := fu.Flush(); err != nil {
			return err
		}
		if taken[0].Tensors()[0] != first {
			t.Errorf("rank %d: taken chunk was overwritten by post-Flush launch", c.Rank())
		}
		return nil
	})
}

func TestWaitAllAggregatesHandles(t *testing.T) {
	runRanks(t, 2, func(c *Communicator) error {
		a := []float64{float64(c.Rank()), 2, 3}
		b := []float64{4, 5}
		h1 := c.AllreduceMeanAsync(a)
		h2 := c.HierarchicalAllreduceMeanAsync(b, 2)
		if err := WaitAll(h1, h2); err != nil {
			return err
		}
		if a[0] != 0.5 || b[0] != 4 {
			t.Errorf("rank %d: a=%v b=%v", c.Rank(), a, b)
		}
		return nil
	})
}

func TestAllgatherVAsyncMatchesSync(t *testing.T) {
	const p = 3
	runRanks(t, p, func(c *Communicator) error {
		mine := make([]float64, c.Rank()+1)
		for i := range mine {
			mine[i] = float64(c.Rank()*10 + i)
		}
		h := c.AllgatherVAsync(mine)
		blocks, err := h.Wait()
		if err != nil {
			return err
		}
		if len(blocks) != p {
			t.Errorf("rank %d: %d blocks, want %d", c.Rank(), len(blocks), p)
		}
		for r, blk := range blocks {
			if len(blk) != r+1 {
				t.Errorf("rank %d: block %d has len %d, want %d", c.Rank(), r, len(blk), r+1)
				continue
			}
			for i, v := range blk {
				if v != float64(r*10+i) {
					t.Errorf("rank %d: block %d[%d] = %v", c.Rank(), r, i, v)
				}
			}
		}
		return nil
	})
}

func TestAllgatherVAsyncInterleaved(t *testing.T) {
	// Several async allgathers in flight simultaneously must not cross-match
	// as long as all ranks issue them in the same order.
	const p = 2
	const rounds = 5
	runRanks(t, p, func(c *Communicator) error {
		handles := make([]*GatherHandle, rounds)
		for i := 0; i < rounds; i++ {
			handles[i] = c.AllgatherVAsync([]float64{float64(100*i + c.Rank())})
		}
		for i, h := range handles {
			blocks, err := h.Wait()
			if err != nil {
				return err
			}
			for r, blk := range blocks {
				if len(blk) != 1 || blk[0] != float64(100*i+r) {
					t.Errorf("rank %d round %d: block %d = %v", c.Rank(), i, r, blk)
				}
			}
		}
		return nil
	})
}
