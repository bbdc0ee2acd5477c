package main

import (
	"bytes"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"repro/internal/testenv"
)

const repoSpec = "../" + specFile

// TestSmoke runs every workload through the real code path at -smoke sizes,
// untraced and traced, and holds the reported metric names and units equal
// to BENCHMARK.json: every listed name is reported with its unit, and
// nothing unlisted is. Under REPRO_TEST_SHORT only the traced run (a
// superset of the untraced code path) is exercised.
func TestSmoke(t *testing.T) {
	spec, err := readSpec(repoSpec)
	if err != nil {
		t.Fatal(err)
	}
	want := map[bool]map[string]string{false: {}, true: {}}
	for _, e := range spec.EndToEnd {
		want[false][e.Name] = e.Unit
	}
	for _, p := range spec.PerLayer {
		want[true][p.Name] = p.Unit
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("%s lists %d workloads, the benchmark has %d", specFile, len(spec.Workloads), len(workloads))
	}
	modes := []bool{false, true}
	if testenv.Short() {
		modes = modes[1:]
	}
	for i, w := range workloads {
		if sw := spec.Workloads[i]; sw.Name != w.Name || sw.Why != w.Why {
			t.Errorf("workload %d: %s has %q, the benchmark %q (name or why differ)", i, specFile, sw.Name, w.Name)
		}
		for _, traced := range modes {
			rec, err := runWorkload(w, runOpts{seed: 42, smoke: true, trace: traced, scratch: t.TempDir()})
			if err != nil {
				t.Fatal(err)
			}
			if !rec.Smoke {
				t.Errorf("%s: record not stamped smoke", w.Name)
			}
			for _, c := range rec.Checks {
				if !c.OK {
					t.Errorf("%s traced=%t: check %s failed: %s", w.Name, traced, c.Name, c.Detail)
				}
			}
			if rec.Failed != 0 || rec.Attempted < 1 {
				t.Errorf("%s traced=%t: %d of %d operations failed", w.Name, traced, rec.Failed, rec.Attempted)
			}
			if _, err := rec.resultLine(); err != nil {
				t.Errorf("%s traced=%t: %v", w.Name, traced, err)
			}
			for name, unit := range want[traced] {
				if got, ok := rec.Metrics[name]; !ok || got.Unit != unit {
					t.Errorf("%s traced=%t: metric %s: reported unit %q (present %t), %s says %q", w.Name, traced, name, got.Unit, ok, specFile, unit)
				}
			}
			for name := range rec.Metrics {
				if _, ok := want[traced][name]; !ok {
					t.Errorf("%s traced=%t: metric %s is reported but not listed in %s", w.Name, traced, name, specFile)
				}
			}
			if !traced {
				for name, m := range rec.Metrics {
					if m.Value <= 0 {
						t.Errorf("%s: end-to-end metric %s = %v, must never be 0", w.Name, name, m.Value)
					}
				}
			}
		}
	}
}

// TestSpecNames checks BENCHMARK.json's names against the contract's
// alphabet and that the exact-metric table names only declared metrics.
func TestSpecNames(t *testing.T) {
	spec, err := readSpec(repoSpec)
	if err != nil {
		t.Fatal(err)
	}
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	seen := map[string]bool{}
	check := func(name string) {
		if !nameRE.MatchString(name) {
			t.Errorf("name %q is outside [A-Za-z0-9_.-]", name)
		}
		if seen[name] {
			t.Errorf("name %q is used twice", name)
		}
		seen[name] = true
	}
	for _, w := range spec.Workloads {
		check(w.Name)
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	for _, e := range spec.EndToEnd {
		check(e.Name)
		if e.Bound < 0 || e.Bound > 0.25 {
			t.Errorf("%s: bound %v outside [0, 0.25]", e.Name, e.Bound)
		}
	}
	for _, p := range spec.PerLayer {
		check(p.Name)
	}
	for name := range exactMetrics {
		if !seen[name] {
			t.Errorf("exactMetrics names %q, which %s does not list", name, specFile)
		}
	}
}

// TestCompare drives -compare on two summaries: equal ones agree, a timed
// metric beyond its bound is worse, a drifted host canary makes the pair
// unresolved instead, an exact metric must match, and -smoke is refused.
func TestCompare(t *testing.T) {
	base := func() *summary {
		s := &summary{Schema: summarySchema, Seed: 42}
		e2e, layers := newMetricSet(endToEnd), newMetricSet(perLayer)
		for _, d := range endToEnd {
			e2e.set(d.Name, 100)
		}
		s.Workloads = []workloadSummary{{Name: "stale_w1", EndToEnd: e2e, PerLayer: layers,
			ParamChecksum: "0123456789abcdef", CanaryBeforeMS: 200, CanaryAfterMS: 200}}
		return s
	}
	dir := t.TempDir()
	write := func(name string, s *summary) string {
		path := filepath.Join(dir, name)
		if err := writeJSON(path, s); err != nil {
			t.Fatal(err)
		}
		return path
	}
	a := write("a.json", base())

	cases := []struct {
		name   string
		mutate func(*summary)
		ok     bool
		says   string
	}{
		{"same", func(*summary) {}, true, ""},
		{"slower", func(s *summary) { s.Workloads[0].EndToEnd.set("step_ms_p50", 130) }, false, "worse by 30.0%"},
		{"faster", func(s *summary) { s.Workloads[0].EndToEnd.set("step_ms_p50", 80) }, true, ""},
		{"drift", func(s *summary) {
			s.Workloads[0].EndToEnd.set("step_ms_p50", 130)
			s.Workloads[0].CanaryAfterMS = 240
		}, true, "unresolved (host drift)"},
		{"exact", func(s *summary) { s.Workloads[0].PerLayer.set("comm.send_calls_per_step", 1) }, false, "differs (exact metric)"},
		{"checksum", func(s *summary) { s.Workloads[0].ParamChecksum = "fedcba9876543210" }, false, "the arithmetic changed"},
	}
	for _, c := range cases {
		s := base()
		c.mutate(s)
		var out bytes.Buffer
		ok, err := compareSummaries(&out, repoSpec, a, write(c.name+".json", s))
		if err != nil {
			t.Fatal(err)
		}
		if ok != c.ok || !strings.Contains(out.String(), c.says) {
			t.Errorf("%s: ok=%t, want %t and %q in:\n%s", c.name, ok, c.ok, c.says, out.String())
		}
	}

	smoke := base()
	smoke.Smoke = true
	if _, err := compareSummaries(&bytes.Buffer{}, repoSpec, a, write("smoke.json", smoke)); err == nil {
		t.Error("a -smoke summary was accepted by -compare")
	}
}
