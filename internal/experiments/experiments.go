// Package experiments contains one runner per table and figure of the
// paper's evaluation (§VI), shared by the kfac-bench CLI and the top-level
// Go benchmarks (bench_test.go). Each runner prints what the paper reports
// (Experiment.Paper) beside its own numbers.
//
// Two kinds of runner exist:
//
//   - correctness experiments (Tables I–II, Figure 4) train real networks
//     with the real distributed K-FAC implementation on the synthetic
//     CIFAR stand-in, at a reduced scale that runs in seconds in pure Go;
//   - ImageNet-scale experiments (Tables III–VI, Figures 5–10) combine the
//     calibrated performance model with the real placement algorithms and
//     the convergence model (see internal/simulate).
package experiments

import (
	"context"
	"fmt"
	"io"
	"sort"
)

// Config controls experiment scale.
type Config struct {
	// Quick shrinks the trained experiments to smoke-test size (used by
	// the benchmark suite); full scale is the default for kfac-bench.
	Quick bool
	// Seed drives all data generation and initialization.
	Seed int64
}

// Experiment is one reproducible artifact of the paper.
type Experiment struct {
	// ID is the harness identifier, e.g. "table1", "fig7".
	ID string
	// Title is the artifact's headline.
	Title string
	// Paper summarizes what the paper reports for this artifact.
	Paper string
	// Run executes the experiment and writes its table/series to w. The
	// context cancels in-progress training runs (kfac-bench wires it to
	// SIGINT); model-based experiments complete quickly and may ignore it.
	Run func(ctx context.Context, w io.Writer, cfg Config) error
}

var registry = map[string]Experiment{}

func register(e Experiment) { registry[e.ID] = e }

// All returns every experiment sorted by ID.
func All() []Experiment {
	out := make([]Experiment, 0, len(registry))
	for _, e := range registry {
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// ByID resolves an experiment.
func ByID(id string) (Experiment, bool) {
	e, ok := registry[id]
	return e, ok
}

// header prints a standard experiment banner.
func header(w io.Writer, e Experiment) {
	fmt.Fprintf(w, "== %s — %s\n", e.ID, e.Title)
	fmt.Fprintf(w, "   paper: %s\n", e.Paper)
}
