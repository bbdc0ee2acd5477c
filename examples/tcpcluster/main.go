// TCP cluster demo: runs distributed K-FAC training across *separate OS
// processes* connected by the TCP transport — the closest this repository
// comes to the paper's multi-node Horovod deployment.
//
// Run without flags to launch a 3-process world on localhost (the parent
// re-executes itself once per rank):
//
//	go run ./examples/tcpcluster
//
// Or start ranks manually across machines:
//
//	tcpcluster -rank 0 -addrs host0:7000,host1:7000,host2:7000
//	tcpcluster -rank 1 -addrs host0:7000,host1:7000,host2:7000
//	tcpcluster -rank 2 -addrs host0:7000,host1:7000,host2:7000
//
// Every rank runs a Session under a SIGINT/SIGTERM-cancelled context: an
// interrupt on ANY rank propagates through the cancellation-consensus
// collective, so all ranks stop together at the same iteration boundary
// even though their local signals arrive at different times (or not at
// all).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"math/rand"
	"net"
	"os"
	"os/exec"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/comm"
	"repro/internal/data"
	"repro/internal/kfac"
	"repro/internal/models"
	"repro/internal/optim"
	"repro/internal/trainer"
)

func main() {
	var (
		rank  = flag.Int("rank", -1, "this process's rank; -1 spawns a local world")
		addrs = flag.String("addrs", "", "comma-separated rank addresses")
		world = flag.Int("world", 3, "world size when spawning locally")
	)
	flag.Parse()

	if *rank < 0 {
		if err := spawnLocalWorld(*world); err != nil {
			log.Fatal(err)
		}
		return
	}
	// Run the rank through a function that returns instead of calling
	// log.Fatal, so the deferred transport Close always executes: an early
	// error (failed join, training failure) must not strand the listener
	// or the per-peer reader goroutines while the process lingers.
	if err := runRank(*rank, strings.Split(*addrs, ",")); err != nil {
		log.Fatalf("rank %d: %v", *rank, err)
	}
}

// spawnLocalWorld reserves loopback ports and re-executes this binary once
// per rank, streaming rank 0's output. If any rank fails — including
// failing to start — every other rank is terminated before returning, so
// an early error never leaves orphan processes holding ports.
func spawnLocalWorld(world int) error {
	addrs := make([]string, world)
	for i := range addrs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return err
		}
		addrs[i] = ln.Addr().String()
		ln.Close()
	}
	fmt.Printf("spawning %d local ranks: %v\n", world, addrs)
	procs := make([]*exec.Cmd, 0, world)
	// killExcept terminates every started rank but `except` (-1 = all).
	// Kill on an already-exited process is a no-op.
	killExcept := func(except int) {
		for q, p := range procs {
			if q != except && p.Process != nil {
				_ = p.Process.Kill()
			}
		}
	}
	for r := 0; r < world; r++ {
		cmd := exec.Command(os.Args[0],
			"-rank", fmt.Sprint(r), "-addrs", strings.Join(addrs, ","))
		if r == 0 {
			cmd.Stdout = os.Stdout
			cmd.Stderr = os.Stderr
		}
		if err := cmd.Start(); err != nil {
			killExcept(-1)
			for _, p := range procs {
				_ = p.Wait()
			}
			return fmt.Errorf("spawn rank %d: %v", r, err)
		}
		procs = append(procs, cmd)
	}
	var firstErr error
	for r, p := range procs {
		if err := p.Wait(); err != nil && firstErr == nil {
			firstErr = fmt.Errorf("rank %d failed: %v", r, err)
			// Siblings of a dead rank block forever in collectives; put
			// them down rather than hanging the parent (the loop reaps
			// them on its remaining iterations).
			killExcept(r)
		}
	}
	if firstErr != nil {
		return firstErr
	}
	fmt.Println("all ranks finished")
	return nil
}

// runRank joins the TCP world and trains with distributed K-FAC under a
// signal-cancelled context.
func runRank(rank int, addrs []string) error {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	fab, err := comm.NewTCPFabric(rank, addrs, 10*time.Second)
	if err != nil {
		return err
	}
	defer fab.Close()
	c := comm.NewCommunicator(fab)

	cfg := data.CIFARLike(3)
	cfg.Train, cfg.Test, cfg.Size = 512, 256, 16
	train, test := data.GenerateSynthetic(cfg)

	net := models.BuildCIFARResNet(1, 4, 3, 10, rand.New(rand.NewSource(99)))
	opts := []trainer.SessionOption{
		trainer.WithEpochs(3),
		trainer.WithBatchPerRank(16),
		trainer.WithLRSchedule(optim.LRSchedule{
			BaseLR: 0.05 * float64(len(addrs)), WarmupEpochs: 1,
			Milestones: []int{2}, Factor: 0.1,
		}),
		trainer.WithMomentum(0.9),
		trainer.WithKFACOptions(kfac.Options{
			Strategy: kfac.RoundRobin, Damping: 1e-3, FactorUpdateFreq: 1, InvUpdateFreq: 5,
		}),
		trainer.WithSeed(3),
	}
	if rank == 0 {
		opts = append(opts, trainer.WithLogger(os.Stdout))
		fmt.Printf("rank 0: %d-rank TCP world connected, training...\n", len(addrs))
	}
	s, err := trainer.NewSession(net, c, train, test, opts...)
	if err != nil {
		return err
	}
	res, err := s.Run(ctx)
	if errors.Is(err, context.Canceled) {
		if rank == 0 {
			fmt.Printf("rank 0: interrupted after %d iterations; all ranks stopped at the same boundary\n",
				res.Iterations)
		}
		return nil
	}
	if err != nil {
		return fmt.Errorf("training: %w", err)
	}
	if rank == 0 {
		fmt.Printf("rank 0: final val acc %.2f%% over %d iterations\n",
			res.FinalValAcc*100, res.Iterations)
	}
	return nil
}
