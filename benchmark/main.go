// Command benchmark is the repo benchmark: six named workloads, end-to-end
// metrics from an untraced run and per-layer metrics from a traced run, all
// measured from outside the program. See README.md in this directory.
//
//	go run ./benchmark -seed 42 -out benchmark/results     # the whole suite
//	go run ./benchmark -workload stale_w1 -trace 1         # one run, one result line
//	go run ./benchmark -compare A/summary.json B/summary.json
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
)

const specFile = "BENCHMARK.json"

func main() {
	var (
		name    = flag.String("workload", "", "run this one workload and print the result line (default: the whole suite)")
		seed    = flag.Int64("seed", 42, "every input is generated from this seed")
		seconds = flag.Float64("seconds", 0, "time box of the timed phase (default: run_seconds of "+specFile+")")
		trace   = flag.Int("trace", 0, "0: untraced run, end-to-end metrics; 1: traced run, per-layer metrics")
		out     = flag.String("out", "", "directory for summary.json and the trace files")
		smoke   = flag.Bool("smoke", false, "tiny sizes, a few steps: exercises every code path, measures nothing")
		compare = flag.Bool("compare", false, "compare two summary.json files given as arguments, under the bounds of "+specFile)
		recPath = flag.String("record", "", "also write the run's full record to this file (used by the suite)")
	)
	flag.Parse()
	// The reference host has two cores; a larger GOMAXPROCS measures
	// scheduler contention, not the code.
	runtime.GOMAXPROCS(min(runtime.NumCPU(), 4))

	if *compare {
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("-compare needs two summary.json files"))
		}
		ok, err := compareSummaries(os.Stdout, specFile, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		if !ok {
			os.Exit(1)
		}
		return
	}

	if *seconds == 0 && !*smoke {
		spec, err := readSpec(specFile)
		if err != nil {
			fatal(fmt.Errorf("no -seconds given and %w (run from the repository root)", err))
		}
		*seconds = float64(spec.RunSeconds)
	}
	o := runOpts{seed: *seed, seconds: *seconds, trace: *trace != 0, smoke: *smoke,
		scratch: filepath.Join(".bench_build", "scratch")}

	if *name == "" {
		if *out == "" {
			fatal(fmt.Errorf("the suite needs -out <dir> (or name one -workload)"))
		}
		ok, err := runSuite(o, *out)
		if err != nil {
			fatal(err)
		}
		if !ok {
			os.Exit(1)
		}
		return
	}

	w, ok := findWorkload(*name)
	if !ok {
		fatal(fmt.Errorf("unknown workload %q", *name))
	}
	rec, err := runWorkload(w, o)
	if err != nil {
		fatal(err)
	}
	if *out != "" && rec.spanBufs != nil {
		if err := os.MkdirAll(*out, 0o755); err != nil {
			fatal(err)
		}
		if err := writeChromeTrace(filepath.Join(*out, w.Name+".trace.json"), rec.spanBufs); err != nil {
			fatal(err)
		}
	}
	if *recPath != "" {
		if err := writeJSON(*recPath, rec); err != nil {
			fatal(err)
		}
	}
	for _, c := range rec.Checks {
		if !c.OK {
			fmt.Fprintf(os.Stderr, "check %s failed: %s\n", c.Name, c.Detail)
		}
	}
	line, err := rec.resultLine()
	if err != nil {
		fatal(err)
	}
	fmt.Println(line)
	if !rec.correct() {
		os.Exit(1)
	}
}

// runWorkload runs one workload once, with the host canary before and after.
func runWorkload(w workload, o runOpts) (*record, error) {
	if o.smoke {
		w = w.smoke()
	}
	var before float64
	if !o.smoke {
		before = hostCanary()
	}
	run := runStep
	if w.Converge {
		run = runConverge
	}
	rec, err := run(w, o)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", w.Name, err)
	}
	if !o.smoke {
		rec.CanaryBeforeMS, rec.CanaryAfterMS = before, hostCanary()
	}
	return rec, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(2)
}
