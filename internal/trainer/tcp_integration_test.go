package trainer

import (
	"context"
	"math/rand"
	"net"
	"sync"
	"testing"
	"time"

	"repro/internal/comm"
	"repro/internal/kfac"
)

// TestTCPDistributedKFACTraining runs the complete stack — model,
// backward, fused gradient allreduce, distributed K-FAC with round-robin
// placement — across real TCP sockets on loopback, and verifies the ranks
// agree bit-for-bit on the final validation accuracy.
func TestTCPDistributedKFACTraining(t *testing.T) {
	if testing.Short() {
		t.Skip("tcp integration skipped in -short")
	}
	const world = 2
	addrs := make([]string, world)
	for i := range addrs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		addrs[i] = ln.Addr().String()
		ln.Close()
	}
	train, test := tinyDataset(t)
	opts := append(sessionOpts(), WithEpochs(1), WithBatchPerRank(8),
		WithKFAC(kfac.WithFactorUpdateFreq(2), kfac.WithInvUpdateFreq(4), kfac.WithDamping(1e-2)))

	var wg sync.WaitGroup
	accs := make([]float64, world)
	errs := make([]error, world)
	for r := 0; r < world; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			fab, err := comm.NewTCPFabric(r, addrs, 10*time.Second)
			if err != nil {
				errs[r] = err
				return
			}
			defer fab.Close()
			net := buildTestNet(rand.New(rand.NewSource(1)))
			s, err := NewSession(net, comm.NewCommunicator(fab), train, test, opts...)
			if err != nil {
				errs[r] = err
				return
			}
			res, err := s.Run(context.Background())
			if err != nil {
				errs[r] = err
				return
			}
			accs[r] = res.FinalValAcc
		}(r)
	}
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", r, err)
		}
	}
	if accs[0] != accs[1] {
		t.Errorf("TCP ranks disagree: %v vs %v", accs[0], accs[1])
	}
	if accs[0] <= 0 {
		t.Errorf("no learning signal: acc %v", accs[0])
	}
}
