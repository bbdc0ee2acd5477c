package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

const summarySchema = "kfac-benchmark/v1"

// workloadSummary is one workload's row of summary.json: the untraced run's
// end-to-end metrics and the traced run's per-layer metrics.
type workloadSummary struct {
	Name string `json:"name"`
	Why  string `json:"why"`

	Ranks       int `json:"ranks"`
	Params      int `json:"params"`
	KFACLayers  int `json:"kfac_layers"`
	Steps       int `json:"steps"`        // timed steps of the untraced run
	StepsKept   int `json:"steps_kept"`   // its quiet-cycle steps: the sample count of step_ms_p50/tail
	TracedSteps int `json:"traced_steps"` // timed steps of the traced run
	TailPct     int `json:"tail_pct"`

	Attempted   int     `json:"ops_attempted"`
	Failed      int     `json:"ops_failed"`
	FailedShare float64 `json:"failed_share"`
	Checks      []check `json:"checks"`

	ParamChecksum    string  `json:"param_checksum"`
	CanaryBeforeMS   float64 `json:"host_canary_ms_before"`
	CanaryAfterMS    float64 `json:"host_canary_ms_after"`
	TraceOverheadPct float64 `json:"trace_overhead_pct"`

	EndToEnd      metricSet     `json:"end_to_end"`
	PerLayer      metricSet     `json:"per_layer"`
	Spans         []spanSummary `json:"spans,omitempty"`
	ValAccByEpoch []float64     `json:"val_acc_by_epoch,omitempty"`
}

// hostInfo describes where a summary was measured.
type hostInfo struct {
	NProc      int    `json:"nproc"`
	GoMaxProcs int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
}

type summary struct {
	Schema    string            `json:"schema"`
	Smoke     bool              `json:"smoke"`
	Seed      int64             `json:"seed"`
	Seconds   float64           `json:"seconds"`
	Host      hostInfo          `json:"host"`
	Workloads []workloadSummary `json:"workloads"`
}

// runSuite runs every workload twice — untraced, then traced — each in a
// fresh child process of this binary, so peak RSS and the shared scheduler
// pool are per run. It prints every metric by name with its unit, writes
// out/summary.json and one trace file per workload, and reports whether
// every output check passed.
func runSuite(o runOpts, out string) (bool, error) {
	if err := os.MkdirAll(out, 0o755); err != nil {
		return false, err
	}
	exe, err := os.Executable()
	if err != nil {
		return false, err
	}
	sum := summary{Schema: summarySchema, Smoke: o.smoke, Seed: o.seed, Seconds: o.seconds, Host: hostInfo{
		NProc: runtime.NumCPU(), GoMaxProcs: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(), Commit: gitCommit(),
	}}
	fmt.Printf("host: nproc=%d GOMAXPROCS=%d %s commit=%s seed=%d seconds=%g\n",
		sum.Host.NProc, sum.Host.GoMaxProcs, sum.Host.GoVersion, sum.Host.Commit, o.seed, o.seconds)

	ok := true
	for _, w := range workloads {
		plain, err := runChild(exe, w, o, false, out)
		if err != nil {
			return false, err
		}
		traced, err := runChild(exe, w, o, true, out)
		if err != nil {
			return false, err
		}
		ws := workloadSummary{
			Name: w.Name, Why: w.Why, Ranks: plain.Ranks, Params: plain.Params, KFACLayers: plain.KFACLayers,
			Steps: plain.Steps, StepsKept: plain.StepsKept, TracedSteps: traced.Steps, TailPct: plain.TailPct,
			Attempted: plain.Attempted + traced.Attempted, Failed: plain.Failed + traced.Failed,
			ParamChecksum:  plain.ParamChecksum,
			CanaryBeforeMS: plain.CanaryBeforeMS, CanaryAfterMS: plain.CanaryAfterMS,
			TraceOverheadPct: 100 * (traced.StepP50MS - plain.StepP50MS) / plain.StepP50MS,
			EndToEnd:         plain.Metrics, PerLayer: traced.Metrics,
			Spans: traced.Spans, ValAccByEpoch: plain.ValAccByEpoch,
		}
		ws.FailedShare = per(float64(ws.Failed), float64(ws.Attempted))
		ws.Checks = append(append(ws.Checks, plain.Checks...), traced.Checks...)
		ws.Checks = append(ws.Checks, check{Name: "checksum_repeats", OK: plain.ParamChecksum == traced.ParamChecksum,
			Detail: fmt.Sprintf("untraced %s, traced %s", plain.ParamChecksum, traced.ParamChecksum)})
		for _, c := range ws.Checks {
			ok = ok && c.OK
		}
		ok = ok && ws.Failed == 0
		printWorkload(&ws)
		sum.Workloads = append(sum.Workloads, ws)
	}
	path := filepath.Join(out, "summary.json")
	if err := writeJSON(path, &sum); err != nil {
		return false, err
	}
	fmt.Printf("\nwrote %s\n", path)
	return ok, nil
}

// runChild runs one workload in a child process and reads back its record.
// Exit status 1 means an output check failed; the record still exists and
// carries the failed check.
func runChild(exe string, w workload, o runOpts, trace bool, out string) (*record, error) {
	recPath := filepath.Join(out, fmt.Sprintf(".%s.%t.record.json", w.Name, trace))
	defer os.Remove(recPath)
	args := []string{"-workload", w.Name, "-seed", fmt.Sprint(o.seed), "-seconds", fmt.Sprint(o.seconds), "-record", recPath}
	if trace {
		args = append(args, "-trace", "1", "-out", out)
	}
	if o.smoke {
		args = append(args, "-smoke")
	}
	cmd := exec.Command(exe, args...)
	cmd.Stderr = os.Stderr
	err := cmd.Run()
	var exit *exec.ExitError
	if err != nil && !(errors.As(err, &exit) && exit.ExitCode() == 1) {
		return nil, fmt.Errorf("%s (trace=%t): %w", w.Name, trace, err)
	}
	raw, err := os.ReadFile(recPath)
	if err != nil {
		return nil, err
	}
	var rec record
	if err := json.Unmarshal(raw, &rec); err != nil {
		return nil, fmt.Errorf("%s: %w", recPath, err)
	}
	return &rec, nil
}

func printWorkload(ws *workloadSummary) {
	fmt.Printf("\n== %s  (ranks %d, %d params, %d K-FAC layers; %d timed steps, timings over the %d of the quiet cycles, tail = p%d)\n",
		ws.Name, ws.Ranks, ws.Params, ws.KFACLayers, ws.Steps, ws.StepsKept, ws.TailPct)
	fmt.Printf("   %s\n", ws.Why)
	fmt.Println("   end-to-end (untraced run):")
	printMetrics(ws.EndToEnd, endToEnd)
	fmt.Printf("   per-layer (traced run, %d timed steps; pipelined-engine stage columns are task time):\n", ws.TracedSteps)
	printMetrics(ws.PerLayer, perLayer)
	fmt.Printf("   param_checksum %s  trace_overhead_pct %.2f  host_canary_ms %.1f → %.1f\n",
		ws.ParamChecksum, ws.TraceOverheadPct, ws.CanaryBeforeMS, ws.CanaryAfterMS)
	fmt.Printf("   ops attempted %d, failed %d, failed_share %.4f\n", ws.Attempted, ws.Failed, ws.FailedShare)
	var failed []string
	for _, c := range ws.Checks {
		if !c.OK {
			failed = append(failed, c.Name+": "+c.Detail)
		}
	}
	sort.Strings(failed)
	if len(failed) > 0 {
		fmt.Printf("   CHECKS FAILED:\n     %s\n", strings.Join(failed, "\n     "))
	} else {
		fmt.Printf("   checks: all %d passed\n", len(ws.Checks))
	}
}

func printMetrics(m metricSet, defs []metricDef) {
	for _, d := range defs {
		fmt.Printf("     %-38s %14.6g %s\n", d.Name, m[d.Name].Value, d.Unit)
	}
}

func gitCommit() string {
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}
