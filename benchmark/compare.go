package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
)

// canaryDrift is how far two runs' host canaries may differ before a timed
// comparison between them says nothing about the code.
const canaryDrift = 0.05

// timedMetrics are the end-to-end metrics the host's speed moves; the
// others (memory) are compared whatever the canaries say.
var timedMetrics = map[string]bool{"setup_s": true, "samples_per_s": true, "step_ms_p50": true, "step_ms_tail": true}

// sameCount reports whether two readings of an exact metric agree. They are
// quotients (bytes ÷ steps) of counts that differ between runs with the
// number of cycles the time box allowed, so equal ratios may differ in the
// last bits.
func sameCount(a, b float64) bool {
	return math.Abs(a-b) <= 1e-9*math.Max(math.Abs(a), math.Abs(b))
}

func readSummary(path string) (*summary, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s summary
	if err := json.Unmarshal(raw, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if s.Schema != summarySchema {
		return nil, fmt.Errorf("%s: schema %q, want %q", path, s.Schema, summarySchema)
	}
	if s.Smoke {
		return nil, fmt.Errorf("%s is a -smoke summary: its numbers mean nothing", path)
	}
	return &s, nil
}

// compareSummaries prints, per workload and end-to-end metric, A, B, the
// ratio B/A, the bound from BENCHMARK.json and a verdict: ok, worse, or
// unresolved (host drift) when the two runs' canaries differ by more than
// canaryDrift. Exact metrics and the parameter checksum must be equal. It
// returns false when anything is worse or differs.
func compareSummaries(w io.Writer, specPath, pathA, pathB string) (bool, error) {
	spec, err := readSpec(specPath)
	if err != nil {
		return false, err
	}
	a, err := readSummary(pathA)
	if err != nil {
		return false, err
	}
	b, err := readSummary(pathB)
	if err != nil {
		return false, err
	}
	if a.Seed != b.Seed {
		fmt.Fprintf(w, "note: seeds differ (A %d, B %d): exact metrics are not expected to match\n", a.Seed, b.Seed)
	}
	fmt.Fprintf(w, "A = %s (commit %s)\nB = %s (commit %s)\n", pathA, a.Host.Commit, pathB, b.Host.Commit)
	byName := map[string]*workloadSummary{}
	for i := range b.Workloads {
		byName[b.Workloads[i].Name] = &b.Workloads[i]
	}
	ok := true
	unresolved := 0
	for i := range a.Workloads {
		wa := &a.Workloads[i]
		wb := byName[wa.Name]
		if wb == nil {
			fmt.Fprintf(w, "\n%s: missing from B\n", wa.Name)
			ok = false
			continue
		}
		ca, cb := (wa.CanaryBeforeMS+wa.CanaryAfterMS)/2, (wb.CanaryBeforeMS+wb.CanaryAfterMS)/2
		drift := math.Abs(ca-cb) / math.Min(ca, cb)
		fmt.Fprintf(w, "\n%s  (host canary A %.1f ms, B %.1f ms, differ %.1f%%)\n", wa.Name, ca, cb, 100*drift)
		if drift > canaryDrift {
			unresolved++
		}
		fmt.Fprintf(w, "  %-34s %14s %14s %18s %7s  %s\n", "metric", "A", "B", "B/A (base A)", "bound", "verdict")
		for _, e := range spec.EndToEnd {
			va, vb := wa.EndToEnd[e.Name].Value, wb.EndToEnd[e.Name].Value
			verdict := "ok"
			worse := (vb - va) / va // the share of A by which B is worse
			if e.Better == "higher" {
				worse = -worse
			}
			switch {
			case exactMetrics[e.Name]:
				if !sameCount(va, vb) {
					verdict = "differs (exact metric)"
				}
			case timedMetrics[e.Name] && drift > canaryDrift:
				verdict = "unresolved (host drift)"
			case worse > e.Bound:
				verdict = fmt.Sprintf("worse by %.1f%%", 100*worse)
			}
			if verdict != "ok" && verdict != "unresolved (host drift)" {
				ok = false
			}
			fmt.Fprintf(w, "  %-34s %14.6g %14.6g %18s %6.0f%%  %s\n", e.Name, va, vb,
				fmt.Sprintf("%.3f (%.4g %s)", vb/va, va, e.Unit), 100*e.Bound, verdict)
		}
		for _, d := range perLayer {
			if !exactMetrics[d.Name] {
				continue
			}
			va, vb := wa.PerLayer[d.Name].Value, wb.PerLayer[d.Name].Value
			verdict := "ok"
			if !sameCount(va, vb) {
				verdict, ok = "differs (exact metric)", false
			}
			fmt.Fprintf(w, "  %-34s %14.6g %14.6g %18s %7s  %s\n", d.Name, va, vb, "", "exact", verdict)
		}
		verdict := "ok"
		if wa.ParamChecksum != wb.ParamChecksum {
			verdict, ok = "differs: the arithmetic changed; compare loss and accuracy within bounds instead", false
		}
		fmt.Fprintf(w, "  %-34s %14s %14s %18s %7s  %s\n", "param_checksum", wa.ParamChecksum[:12], wb.ParamChecksum[:12], "", "exact", verdict)
	}
	fmt.Fprintf(w, "\n%d workload(s) unresolved by host drift\n", unresolved)
	return ok, nil
}
