package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
)

// check is one output check of a run; a failed check fails the run.
type check struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Detail string `json:"detail,omitempty"`
}

// record is everything one run of one workload produced. The driver-facing
// result line is a projection of it; the suite keeps all of it.
type record struct {
	Workload string  `json:"workload"`
	Seed     int64   `json:"seed"`
	Seconds  float64 `json:"seconds"`
	Traced   bool    `json:"traced"`
	Smoke    bool    `json:"smoke"`

	Ranks      int     `json:"ranks"`
	Steps      int     `json:"steps"`      // timed steps on rank 0
	StepsKept  int     `json:"steps_kept"` // steps of the quiet cycles: the sample count of the timings
	StepP50MS  float64 `json:"step_ms_p50"`
	TailPct    int     `json:"tail_pct"`
	Params     int     `json:"params"`
	KFACLayers int     `json:"kfac_layers"`

	// Attempted counts operations (timed steps × ranks, plus epochs on
	// converge_w2); Failed those that returned an error, produced a
	// non-finite loss, or — when an end-of-run check failed — all of them.
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	Checks    []check `json:"checks"`

	// ParamChecksum is taken at a fixed step (end of the first timed cycle;
	// end of training on converge_w2), so it does not depend on how many
	// cycles the time box allowed.
	ParamChecksum string `json:"param_checksum"`

	CanaryBeforeMS float64 `json:"host_canary_ms_before"`
	CanaryAfterMS  float64 `json:"host_canary_ms_after"`

	Metrics metricSet     `json:"metrics"`
	Spans   []spanSummary `json:"spans,omitempty"`
	// StepMS is rank 0's timed step walls in order, for looking at drift
	// inside a run; the suite does not copy it into the summary.
	StepMS []float64 `json:"step_ms,omitempty"`
	// ValAccByEpoch is converge_w2's K-FAC validation accuracy per epoch.
	ValAccByEpoch []float64 `json:"val_acc_by_epoch,omitempty"`

	spanBufs []*spanBuf // written as a trace file by the caller, if asked
}

func (r *record) addCheck(name string, ok bool, format string, args ...any) {
	r.Checks = append(r.Checks, check{Name: name, OK: ok, Detail: fmt.Sprintf(format, args...)})
}

// correct reports, after finish, whether no operation failed.
func (r *record) correct() bool { return r.Failed == 0 }

// finish applies the end-of-run rule: a workload whose checks failed counts
// every operation as failed.
func (r *record) finish() {
	for _, c := range r.Checks {
		if !c.OK {
			r.Failed = r.Attempted
			return
		}
	}
}

// resultLine is the driver contract's last line of standard output.
func (r *record) resultLine() (string, error) {
	for name, m := range r.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return "", fmt.Errorf("metric %s is not finite", name)
		}
	}
	out, err := json.Marshal(struct {
		Correct   bool      `json:"correct"`
		Attempted int       `json:"attempted"`
		Failed    int       `json:"failed"`
		Metrics   metricSet `json:"metrics"`
	}{r.correct(), r.Attempted, r.Failed, r.Metrics})
	return string(out), err
}

func writeJSON(path string, v any) error {
	raw, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(raw, '\n'), 0o644)
}
