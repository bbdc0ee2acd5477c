// Command kfacd is the multi-job training control-plane daemon: it accepts
// job specs over an HTTP JSON API, admits them against a declared worker
// fleet (rejecting jobs whose planned K-FAC memory footprint can never
// fit), schedules them fair-share across users, executes each through the
// elastic trainer (worker deaths recover automatically), streams per-step
// metrics, and files every checkpoint into a content-addressed store with
// configurable retention.
//
// Examples:
//
//	kfacd -addr :7070 -store /var/lib/kfacd/store -workers 8
//	kfacd -workers 4 -mem-per-worker 64MiB -keep-per-job 3
//
// SIGINT/SIGTERM drains gracefully: no new submissions, running jobs are
// paused at a step boundary with their latest checkpoint retained, then
// the process exits. The job table lives in memory: a restarted daemon
// starts with no jobs and numbers new ones after the IDs its store holds,
// so no new job resumes from an old job's checkpoint.
//
// See docs/ARCHITECTURE.md, "Control plane", for the state machine and
// API contract; kfacctl is the companion client.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/ckptstore"
	"repro/internal/ctl"
)

// parseBytes accepts "67108864", "64MiB", "1GiB", "512KiB".
func parseBytes(s string) (int64, error) {
	s = strings.TrimSpace(s)
	mult := int64(1)
	for _, u := range []struct {
		suffix string
		mult   int64
	}{{"KiB", 1 << 10}, {"MiB", 1 << 20}, {"GiB", 1 << 30}} {
		if strings.HasSuffix(s, u.suffix) {
			mult = u.mult
			s = strings.TrimSuffix(s, u.suffix)
			break
		}
	}
	n, err := strconv.ParseInt(strings.TrimSpace(s), 10, 64)
	if err != nil || n < 0 {
		return 0, fmt.Errorf("bad byte size %q", s)
	}
	return n * mult, nil
}

func main() {
	addr := flag.String("addr", "127.0.0.1:7070", "HTTP listen address")
	storeDir := flag.String("store", "kfacd-store", "checkpoint store directory")
	workers := flag.Int("workers", 4, "worker fleet size")
	memPerWorker := flag.String("mem-per-worker", "0",
		"per-worker memory budget for K-FAC decompositions (0 disables the check; accepts KiB/MiB/GiB)")
	keepPerJob := flag.Int("keep-per-job", 0, "retention: newest checkpoints kept per job (0 = all)")
	maxAge := flag.Duration("max-age", 0, "retention: drop checkpoints older than this (0 = no limit)")
	metricsBuf := flag.Int("metrics-buffer", 4096, "retained step metrics per job")
	drainTimeout := flag.Duration("drain-timeout", 30*time.Second, "graceful drain deadline on SIGTERM")
	quiet := flag.Bool("quiet", false, "suppress scheduler logging")
	flag.Parse()

	mem, err := parseBytes(*memPerWorker)
	if err != nil {
		fmt.Fprintln(os.Stderr, "kfacd:", err)
		os.Exit(2)
	}
	cfg := ctl.Config{
		Fleet:         ctl.Fleet{Workers: *workers, MemoryPerWorker: mem},
		StoreDir:      *storeDir,
		Retention:     ckptstore.Policy{MaxPerJob: *keepPerJob, MaxAge: *maxAge},
		MetricsBuffer: *metricsBuf,
	}
	if !*quiet {
		cfg.Log = os.Stderr
	}
	d, err := ctl.NewDaemon(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "kfacd:", err)
		os.Exit(1)
	}

	srv := &http.Server{Addr: *addr, Handler: ctl.NewHandler(d)}
	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	fmt.Fprintf(os.Stderr, "kfacd: listening on %s — fleet %d worker(s), store %s\n",
		*addr, *workers, *storeDir)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	select {
	case err := <-errc:
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintln(os.Stderr, "kfacd:", err)
			os.Exit(1)
		}
	case s := <-sig:
		fmt.Fprintf(os.Stderr, "kfacd: %v — draining (deadline %v)\n", s, *drainTimeout)
		ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
		if err := d.Drain(ctx); err != nil {
			fmt.Fprintln(os.Stderr, "kfacd:", err)
		}
		cancel()
		shutCtx, shutCancel := context.WithTimeout(context.Background(), 5*time.Second)
		srv.Shutdown(shutCtx) //nolint:errcheck // exiting either way
		shutCancel()
		d.Close()
		fmt.Fprintln(os.Stderr, "kfacd: drained, bye")
	}
}
