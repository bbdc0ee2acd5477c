package comm

import (
	"context"
	"fmt"
	"math/rand"
	"net"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"
)

// waitForGoroutines polls until the goroutine count settles back to at
// most base (with a small tolerance for runtime bookkeeping goroutines),
// returning the final count.
func waitForGoroutines(base int) int {
	deadline := time.Now().Add(5 * time.Second)
	n := runtime.NumGoroutine()
	for n > base && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
		n = runtime.NumGoroutine()
	}
	return n
}

// freePorts reserves n distinct loopback addresses that were free when
// probed. Where the kernel's ephemeral port range can be read (Linux) they
// lie below it: a free port inside it can be handed to another socket — the
// local end of a rank's outgoing connection, a listener bound to port 0 in a
// concurrent test — between the probe and the moment the rank it was
// reserved for listens on it, and that rank's join then fails. Elsewhere
// they come from port 0.
func freePorts(t *testing.T, n int) []string {
	t.Helper()
	addrs := make([]string, 0, n)
	seen := map[string]bool{}
	if lo := ephemeralLow(); lo > 1024 {
		rng := rand.New(rand.NewSource(time.Now().UnixNano()))
		base := max(1024, lo-16384)
		for try := 0; len(addrs) < n && try < 100*n; try++ {
			addr := fmt.Sprintf("127.0.0.1:%d", base+rng.Intn(lo-base))
			if seen[addr] {
				continue
			}
			ln, err := net.Listen("tcp", addr)
			if err != nil {
				continue // taken
			}
			ln.Close()
			seen[addr] = true
			addrs = append(addrs, addr)
		}
	}
	for len(addrs) < n {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		addr := ln.Addr().String()
		ln.Close()
		if !seen[addr] {
			seen[addr] = true
			addrs = append(addrs, addr)
		}
	}
	return addrs
}

// ephemeralLow returns the first port of Linux's ephemeral range, or 0
// where it cannot be read.
func ephemeralLow() int {
	b, err := os.ReadFile("/proc/sys/net/ipv4/ip_local_port_range")
	if err != nil {
		return 0
	}
	var lo, hi int
	if _, err := fmt.Sscan(string(b), &lo, &hi); err != nil {
		return 0
	}
	return lo
}

// TestTCPFabricNoLeakOnFailedJoin: when a peer never joins, NewTCPFabric
// must return an error within the timeout (not hang in Accept) and leave
// no goroutines or listeners behind — the tcpcluster early-error leak.
func TestTCPFabricNoLeakOnFailedJoin(t *testing.T) {
	addrs := freePorts(t, 3)
	base := runtime.NumGoroutine()

	// Rank 0 listens for ranks 1 and 2; nobody ever dials it.
	start := time.Now()
	fab, err := NewTCPFabric(0, addrs, 400*time.Millisecond)
	if err == nil {
		fab.Close()
		t.Fatal("NewTCPFabric succeeded with no peers")
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("constructor hung %v past its 400ms timeout", elapsed)
	}

	if n := waitForGoroutines(base); n > base {
		buf := make([]byte, 1<<20)
		buf = buf[:runtime.Stack(buf, true)]
		t.Errorf("goroutines leaked after failed join: %d > %d\n%s", n, base, dumpNew(string(buf)))
	}
	// The listener must be released: rebinding the same address succeeds.
	ln, err := net.Listen("tcp", addrs[0])
	if err != nil {
		t.Fatalf("listen address still held after failed join: %v", err)
	}
	ln.Close()
}

// TestTCPFabricNoLeakAfterClose: a successfully formed mesh must wind down
// completely on Close.
func TestTCPFabricNoLeakAfterClose(t *testing.T) {
	const p = 3
	addrs := freePorts(t, p)
	base := runtime.NumGoroutine()

	fabs := make([]*TCPFabric, p)
	errs := make(chan error, p)
	for r := 0; r < p; r++ {
		go func(r int) {
			f, err := NewTCPFabric(r, addrs, 5*time.Second)
			fabs[r] = f
			errs <- err
		}(r)
	}
	for i := 0; i < p; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	// Exercise the mesh so reader goroutines are demonstrably alive first.
	done := make(chan error, 2)
	go func() { done <- fabs[1].Send(0, 7<<16, []float64{1, 2, 3}) }()
	go func() {
		_, err := fabs[0].Recv(context.Background(), 1, 7<<16)
		done <- err
	}()
	for i := 0; i < 2; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	for _, f := range fabs {
		f.Close()
	}
	if n := waitForGoroutines(base); n > base {
		buf := make([]byte, 1<<20)
		buf = buf[:runtime.Stack(buf, true)]
		t.Errorf("goroutines leaked after Close: %d > %d\n%s", n, base, dumpNew(string(buf)))
	}
}

// dumpNew trims a full stack dump to the comm-related goroutines, keeping
// leak reports readable.
func dumpNew(stacks string) string {
	var out []string
	for _, g := range strings.Split(stacks, "\n\n") {
		if strings.Contains(g, "repro/internal/comm") {
			out = append(out, g)
		}
	}
	if len(out) == 0 {
		return "(no comm goroutines in dump)"
	}
	return fmt.Sprintf("%d comm goroutines:\n%s", len(out), strings.Join(out, "\n\n"))
}
