// Command kfac-bench regenerates the paper's tables and figures.
//
// Usage:
//
//	kfac-bench -list              # show all experiment IDs
//	kfac-bench -exp table1        # run one experiment
//	kfac-bench -exp pipeline      # pipelined vs synchronous step-engine profile
//	kfac-bench -exp chaos         # step-time degradation vs injected latency
//	kfac-bench -all               # run everything
//	kfac-bench -all -quick        # smoke-test scale (seconds instead of minutes)
//
// Each experiment prints its table/series to stdout together with the
// paper's reported values for comparison. Performance is measured by the
// repository benchmark instead (benchmark/README.md, docs/PERFORMANCE.md).
// Interrupting the process (SIGINT/SIGTERM) cancels the in-progress runs
// cleanly through the trainer's context plumbing.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/experiments"
)

// usage prints the flag reference with examples.
func usage() {
	fmt.Fprintf(flag.CommandLine.Output(), `kfac-bench — paper tables and figures

  -list         list experiment IDs
  -exp ID       run one experiment (see -list)
  -all          run every experiment
  -quick        reduced-scale smoke runs (with -exp/-all)
  -seed N       random seed (default 42)

Examples:
  kfac-bench -exp table1
  kfac-bench -all -quick
`)
}

func main() {
	var (
		expID = flag.String("exp", "", "experiment ID to run (see -list)")
		all   = flag.Bool("all", false, "run every experiment")
		list  = flag.Bool("list", false, "list experiment IDs")
		quick = flag.Bool("quick", false, "reduced-scale smoke runs")
		seed  = flag.Int64("seed", 42, "random seed")
	)
	flag.Usage = usage
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	cfg := experiments.Config{Quick: *quick, Seed: *seed}

	switch {
	case *list:
		for _, e := range experiments.All() {
			fmt.Printf("%-20s %s\n", e.ID, e.Title)
		}
	case *all:
		for _, e := range experiments.All() {
			start := time.Now()
			if err := e.Run(ctx, os.Stdout, cfg); err != nil {
				fail(e.ID, err)
			}
			fmt.Printf("   [%s completed in %v]\n\n", e.ID, time.Since(start).Round(time.Millisecond))
		}
	case *expID != "":
		e, ok := experiments.ByID(*expID)
		if !ok {
			fmt.Fprintf(os.Stderr, "unknown experiment %q; use -list\n", *expID)
			os.Exit(2)
		}
		if err := e.Run(ctx, os.Stdout, cfg); err != nil {
			fail(e.ID, err)
		}
	default:
		flag.Usage()
		os.Exit(2)
	}
}

// fail reports an experiment error, distinguishing operator interruption
// from real failures.
func fail(id string, err error) {
	if errors.Is(err, context.Canceled) {
		fmt.Fprintf(os.Stderr, "%s: interrupted\n", id)
		os.Exit(130)
	}
	fmt.Fprintf(os.Stderr, "%s: %v\n", id, err)
	os.Exit(1)
}
