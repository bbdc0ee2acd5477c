package comm

import (
	"bytes"
	"context"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/testenv"
)

// Multi-process SPMD conformance: a world of REAL child processes joined
// over the TCP transport must produce bit-identical collective results on
// every rank, matching the in-process fabric exactly — and every child
// must wind its mesh down cleanly (no goroutines, no held listeners)
// before exiting. This is the conformance layer under every multi-process
// run over NewTCPFabric (examples/tcpcluster among them): if checksums
// diverge here, ranks are computing different things.

// tcpSPMDWorld is the conformance world size: 16 processes, the world of
// the TCP calibration rows in docs/PERFORMANCE.md.
const tcpSPMDWorld = 16

const (
	tcpSPMDRankEnv  = "REPRO_TCP_SPMD_RANK"
	tcpSPMDAddrsEnv = "REPRO_TCP_SPMD_ADDRS"
)

// spmdSequence runs a fixed program of collectives — flat allreduce,
// hierarchical allreduce (group 4), broadcast, allgather — over
// deterministic per-rank data and folds every resulting bit pattern into
// one checksum. Identical on every rank iff the transport delivered every
// collective exactly.
func spmdSequence(c *Communicator) (uint64, error) {
	rank := c.Rank()
	h := fnv.New64a()
	fold := func(data []float64) {
		var buf [8]byte
		for _, v := range data {
			bits := math.Float64bits(v)
			for i := 0; i < 8; i++ {
				buf[i] = byte(bits >> (8 * i))
			}
			h.Write(buf[:])
		}
	}
	fill := func(n, salt int) []float64 {
		data := make([]float64, n)
		for i := range data {
			data[i] = float64((rank+1)*(i+salt+1)) / 7.0
		}
		return data
	}

	ar := fill(37, 1)
	if err := c.AllreduceMean(ar); err != nil {
		return 0, fmt.Errorf("allreduce: %w", err)
	}
	fold(ar)

	hier := fill(53, 2)
	if err := c.HierarchicalAllreduceMeanAsync(hier, 4).Wait(); err != nil {
		return 0, fmt.Errorf("hierarchical allreduce: %w", err)
	}
	fold(hier)

	bc := make([]float64, 19)
	if rank == 0 {
		for i := range bc {
			bc[i] = float64(3*i+1) / 11.0
		}
	}
	if err := c.Broadcast(bc, 0); err != nil {
		return 0, fmt.Errorf("broadcast: %w", err)
	}
	fold(bc)

	parts, err := c.AllgatherVAsync(fill(rank+1, 3)).Wait()
	if err != nil {
		return 0, fmt.Errorf("allgather: %w", err)
	}
	for _, part := range parts {
		fold(part)
	}

	return h.Sum64(), nil
}

// TestTCPSPMDHelper is the child-process entry of the conformance test: it
// joins the TCP mesh described by the environment, runs the collective
// program, prints its checksum, and verifies clean teardown before
// exiting. Skipped unless spawned by TestTCPFabricSPMDConformance.
func TestTCPSPMDHelper(t *testing.T) {
	rankStr := os.Getenv(tcpSPMDRankEnv)
	if rankStr == "" {
		t.Skip("helper entry; spawned by TestTCPFabricSPMDConformance")
	}
	rank, err := strconv.Atoi(rankStr)
	if err != nil {
		t.Fatal(err)
	}
	addrs := strings.Split(os.Getenv(tcpSPMDAddrsEnv), ",")
	base := runtime.NumGoroutine()

	fab, err := NewTCPFabric(rank, addrs, 30*time.Second)
	if err != nil {
		t.Fatalf("rank %d join: %v", rank, err)
	}
	sum, seqErr := spmdSequence(NewCommunicator(fab))
	closeErr := fab.Close()
	if seqErr != nil {
		t.Fatalf("rank %d: %v", rank, seqErr)
	}
	if closeErr != nil {
		t.Fatalf("rank %d close: %v", rank, closeErr)
	}
	// Teardown discipline: all reader goroutines and the listener must be
	// gone — the same clean-exit contract the leak tests pin in-process.
	if n := waitForGoroutines(base); n > base {
		buf := make([]byte, 1<<20)
		buf = buf[:runtime.Stack(buf, true)]
		t.Fatalf("rank %d leaked goroutines after Close: %d > %d\n%s", rank, n, base, dumpNew(string(buf)))
	}
	// The parent greps this token from the test output.
	fmt.Printf("SPMD_SUM rank=%d sum=%016x\n", rank, sum)
}

// TestTCPFabricSPMDConformance spawns tcpSPMDWorld real OS processes (the
// test binary re-executing TestTCPSPMDHelper), each joining a TCP mesh on
// reserved loopback ports, and asserts every process reports the same
// collective checksum — bit-identical to the in-process fabric running the
// identical program.
func TestTCPFabricSPMDConformance(t *testing.T) {
	if testenv.Short() {
		t.Skip("spawns 16 OS processes; skipped in short mode (CI multiproc-smoke runs it)")
	}
	world := tcpSPMDWorld

	// Reference: the same program over the in-process fabric.
	fab := NewInprocFabric(world)
	ref := make([]uint64, world)
	refErrs := make([]error, world)
	var wg sync.WaitGroup
	for r := 0; r < world; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			ref[r], refErrs[r] = spmdSequence(NewCommunicator(fab.Endpoint(r)))
		}(r)
	}
	wg.Wait()
	for r, err := range refErrs {
		if err != nil {
			t.Fatalf("inproc rank %d: %v", r, err)
		}
	}
	for r := 1; r < world; r++ {
		if ref[r] != ref[0] {
			t.Fatalf("inproc checksums differ: rank %d %016x vs rank 0 %016x", r, ref[r], ref[0])
		}
	}

	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	addrs := freePorts(t, world)
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()

	type child struct {
		cmd *exec.Cmd
		out *bytes.Buffer
	}
	children := make([]child, 0, world)
	killAll := func() {
		for _, ch := range children {
			if ch.cmd.Process != nil {
				_ = ch.cmd.Process.Kill()
			}
		}
	}
	for r := 0; r < world; r++ {
		var out bytes.Buffer
		cmd := exec.CommandContext(ctx, exe, "-test.run", "^TestTCPSPMDHelper$", "-test.v")
		cmd.Env = append(os.Environ(),
			fmt.Sprintf("%s=%d", tcpSPMDRankEnv, r),
			fmt.Sprintf("%s=%s", tcpSPMDAddrsEnv, strings.Join(addrs, ",")),
		)
		cmd.Stdout = &out
		cmd.Stderr = &out
		if err := cmd.Start(); err != nil {
			killAll()
			t.Fatalf("spawn rank %d: %v", r, err)
		}
		children = append(children, child{cmd: cmd, out: &out})
	}
	// Wait on every child at once. The first to fail stops the others and
	// the failure prints every rank's output, so its cause is shown rather
	// than a peer's join timing out on the rank that is gone.
	errs := make([]error, world)
	exited := make(chan int, world)
	for r, ch := range children {
		go func() {
			errs[r] = ch.cmd.Wait()
			exited <- r
		}()
	}
	first := -1
	for range world {
		if r := <-exited; errs[r] != nil && first < 0 {
			first = r
			killAll()
		}
	}
	if first >= 0 {
		var all strings.Builder
		for r, ch := range children {
			fmt.Fprintf(&all, "--- rank %d (exit: %v)\n%s", r, errs[r], ch.out.String())
		}
		t.Fatalf("rank %d process failed first: %v\n%s", first, errs[first], all.String())
	}

	// Every child must report exactly the in-process checksum.
	for r, ch := range children {
		sum, ok := parseSPMDSum(ch.out.String(), r)
		if !ok {
			t.Fatalf("rank %d output missing SPMD_SUM line:\n%s", r, ch.out.String())
		}
		if sum != ref[0] {
			t.Errorf("rank %d TCP checksum %016x != inproc %016x", r, sum, ref[0])
		}
	}
}

// parseSPMDSum extracts the helper's checksum token for a rank.
func parseSPMDSum(out string, rank int) (uint64, bool) {
	prefix := fmt.Sprintf("SPMD_SUM rank=%d sum=", rank)
	for _, line := range strings.Split(out, "\n") {
		line = strings.TrimSpace(line)
		if strings.HasPrefix(line, prefix) {
			sum, err := strconv.ParseUint(strings.TrimPrefix(line, prefix), 16, 64)
			return sum, err == nil
		}
	}
	return 0, false
}
