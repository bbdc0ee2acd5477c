package trainer

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
	"time"

	"repro/internal/comm"
	"repro/internal/kfac"
	"repro/internal/nn"
)

// TestFabricMismatchRefused: a fabric whose endpoints are not ranks
// 0..world-1 of world is refused with an error naming both sizes before
// any session starts. A 2-rank fabric under world 4 used to panic in a
// rank goroutine, and a 4-rank fabric under world 2 hung in the first
// collective.
func TestFabricMismatchRefused(t *testing.T) {
	train, test := tinyDataset(t)
	runSessionsOn := func(fab, world int) error {
		_, err := RunSessionsOn(context.Background(), comm.NewInprocFabric(fab), world, buildTestNet, train, test, elasticOpts(1)...)
		return err
	}
	runElastic := func(fab, world int) error {
		cfg := ElasticConfig{World: world, Store: testStore(t), Job: "job",
			Fabric: func(gen, world int) comm.Fabric { return comm.NewInprocFabric(fab) }}
		_, err := RunElastic(context.Background(), cfg, buildTestNet, train, test, elasticOpts(1)...)
		return err
	}
	cases := []struct {
		name       string
		fab, world int
		run        func(fab, world int) error
	}{
		{"RunSessionsOn", 2, 4, runSessionsOn},
		{"RunSessionsOn", 4, 2, runSessionsOn},
		{"RunElastic", 3, 2, runElastic},
	}
	for _, tc := range cases {
		t.Run(fmt.Sprintf("%s/fabric%d-world%d", tc.name, tc.fab, tc.world), func(t *testing.T) {
			done := make(chan error, 1)
			go func() { done <- tc.run(tc.fab, tc.world) }()
			select {
			case err := <-done:
				if err == nil {
					t.Fatal("mismatched fabric accepted")
				}
				if msg := err.Error(); !strings.Contains(msg, fmt.Sprintf("of %d, world is %d", tc.fab, tc.world)) {
					t.Fatalf("error %q does not name fabric size %d and world %d", msg, tc.fab, tc.world)
				}
			case <-time.After(time.Second):
				t.Fatal("mismatched fabric not refused within a second")
			}
		})
	}
}

// TestSingleRankRunSessionsMatchesNilCommunicator: a one-rank RunSessions
// run is the single-process run (nil communicator) from the replica seed,
// bit for bit — what lets callers launch every world size the same way.
func TestSingleRankRunSessionsMatchesNilCommunicator(t *testing.T) {
	train, test := tinyDataset(t)
	opts := append(elasticOpts(2),
		WithKFACOptions(kfac.Options{FactorUpdateFreq: 1, InvUpdateFreq: 3, Damping: 0.01}))

	var worldNet *nn.Sequential
	results, err := RunSessions(context.Background(), 1, buildTestNet, train, test,
		append(opts, OnEpochEnd(func(s *Session, _ EpochStats) error {
			worldNet = s.Net()
			return nil
		}))...)
	if err != nil {
		t.Fatal(err)
	}

	net := buildTestNet(rand.New(rand.NewSource(replicaSeed)))
	s, err := NewSession(net, nil, train, test, opts...)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	if results[0].Iterations != res.Iterations {
		t.Fatalf("iterations: one-rank world %d, nil communicator %d", results[0].Iterations, res.Iterations)
	}
	got, want := worldNet.Params(), net.Params()
	for i := range want {
		for j, v := range want[i].Value.Data {
			if g := got[i].Value.Data[j]; math.Float64bits(g) != math.Float64bits(v) {
				t.Fatalf("%s[%d]: one-rank world %v, nil communicator %v", want[i].Name, j, g, v)
			}
		}
	}
}

// TestErrorPickPrefersOriginatingFailure: a world reports the rank that
// failed for real over the context.Canceled its abort induced in peers,
// whatever their rank order.
func TestErrorPickPrefersOriginatingFailure(t *testing.T) {
	boom := errors.New("boom")
	cases := []struct {
		name string
		errs []error
		want error // nil: no error
		rank string
	}{
		{"genuine-after-canceled", []error{context.Canceled, boom}, boom, "rank 1"},
		{"genuine-before-canceled", []error{boom, context.Canceled}, boom, "rank 0"},
		{"all-canceled", []error{context.Canceled, context.Canceled}, context.Canceled, "rank 0"},
		{"all-nil", []error{nil, nil}, nil, ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := worldErr(tc.errs)
			if tc.want == nil {
				if err != nil {
					t.Fatalf("got %v, want nil", err)
				}
				return
			}
			if !errors.Is(err, tc.want) || !strings.HasPrefix(err.Error(), tc.rank+":") {
				t.Fatalf("got %v, want %s's %v", err, tc.rank, tc.want)
			}
		})
	}
}

// TestRunElasticReportsOriginatingError: rank 1 fails with a training
// error that is not a kill while rank 0 sees only the abort it triggers;
// RunElastic reports rank 1's error, not rank 0's context.Canceled.
func TestRunElasticReportsOriginatingError(t *testing.T) {
	train, test := tinyDataset(t)
	boom := errors.New("rank 1 hook failed")
	opts := append(elasticOpts(2), OnStep(func(s *Session, info StepInfo) error {
		if s.Rank() == 1 && info.Iteration == 2 {
			return boom
		}
		return nil
	}))
	_, err := RunElastic(context.Background(), ElasticConfig{World: 2, Store: testStore(t), Job: "job"},
		buildTestNet, train, test, opts...)
	if !errors.Is(err, boom) {
		t.Fatalf("got %v, want rank 1's error", err)
	}
}
