package ctl

import (
	"context"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/ckptstore"
)

// TestControlPlaneEndToEnd drives the whole control plane through the HTTP
// API exactly as kfacctl would — an in-process kfacd (httptest server over
// NewHandler) with a 4-worker fleet and MaxPerJob=2 retention:
//
//  1. two concurrent jobs from different users run to completion under
//     fair scheduling, streaming metrics and filing checkpoints;
//  2. an oversized third job is rejected at admission with a descriptive
//     error (and recorded for audit);
//  3. a job with a scripted worker kill recovers through RunElastic and
//     completes;
//  4. identical twin jobs share store objects (content-address dedup) and
//     retention pruned each job to its newest two checkpoints;
//  5. pause parks a running job with its checkpoint retained and resume
//     completes it; cancel lands a running job in Cancelled through the
//     consensus-stop path.
func TestControlPlaneEndToEnd(t *testing.T) {
	d, err := NewDaemon(Config{
		Fleet:     Fleet{Workers: 4},
		StoreDir:  t.TempDir(),
		Heartbeat: fastHeartbeat,
		Retention: ckptstore.Policy{MaxPerJob: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	srv := httptest.NewServer(NewHandler(d))
	defer srv.Close()
	c := NewClient(srv.URL, srv.Client())
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()

	if err := c.Health(ctx); err != nil {
		t.Fatalf("healthz: %v", err)
	}

	// --- 1. Two concurrent jobs (identical specs → dedup material for 4).
	twinA, err := c.Submit(ctx, runnableSpec("twin-a", "alice", 2, 3))
	if err != nil {
		t.Fatal(err)
	}
	twinB, err := c.Submit(ctx, runnableSpec("twin-b", "bob", 2, 3))
	if err != nil {
		t.Fatal(err)
	}

	// --- 2. Oversized job: rejected with the quota named.
	_, err = c.Submit(ctx, runnableSpec("too-big", "carol", 64, 1))
	if err == nil {
		t.Fatal("oversized job accepted over the API")
	}
	if !strings.Contains(err.Error(), "wants 64 workers") ||
		!strings.Contains(err.Error(), "has 4") {
		t.Errorf("rejection %q does not name the quota mismatch", err)
	}

	for _, id := range []string{twinA.ID, twinB.ID} {
		v, err := c.WaitSettled(ctx, id)
		if err != nil {
			t.Fatal(err)
		}
		if v.State != Completed {
			t.Fatalf("job %s settled in %v (err %q), want completed", id, v.State, v.Error)
		}
		ms, err := c.Metrics(ctx, id, 0)
		if err != nil {
			t.Fatal(err)
		}
		if len(ms) == 0 || ms[len(ms)-1].Iteration != v.Result.Iterations {
			t.Errorf("job %s metrics cover %d entries (last iter %d), want through iteration %d",
				id, len(ms), ms[len(ms)-1].Iteration, v.Result.Iterations)
		}
	}
	// The audit record of the rejection is visible in the listing.
	jobs, err := c.Jobs(ctx)
	if err != nil {
		t.Fatal(err)
	}
	var sawRejected bool
	for _, v := range jobs {
		if v.Name == "too-big" && v.State == Failed && strings.Contains(v.Error, "workers") {
			sawRejected = true
		}
	}
	if !sawRejected {
		t.Errorf("rejected job missing from the listing: %+v", jobs)
	}

	// --- 4. Dedup + retention, via the API's store stats and checkpoints.
	st, err := c.StoreStats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.Refs <= st.Objects {
		t.Errorf("store stats %+v: identical twins should dedup (refs > objects)", st)
	}
	for _, id := range []string{twinA.ID, twinB.ID} {
		cks, err := c.Checkpoints(ctx, id)
		if err != nil {
			t.Fatal(err)
		}
		if len(cks) != 2 {
			t.Errorf("job %s holds %d checkpoints under MaxPerJob=2, want 2", id, len(cks))
		}
		if len(cks) > 0 && len(cks[len(cks)-1].Sum) != 64 {
			t.Errorf("checkpoint sum %q is not 64-hex", cks[len(cks)-1].Sum)
		}
	}
	// Twins' checkpoint sums match position-wise: content addressing at
	// work across jobs.
	cksA, _ := c.Checkpoints(ctx, twinA.ID)
	cksB, _ := c.Checkpoints(ctx, twinB.ID)
	for i := range cksA {
		if i < len(cksB) && cksA[i].Sum != cksB[i].Sum {
			t.Errorf("twin checkpoint %d differs: %s vs %s", i, cksA[i].Sum, cksB[i].Sum)
		}
	}

	// --- 3. Scripted kill mid-job: elastic recovery completes the run.
	chaotic := runnableSpec("chaotic", "alice", 2, 3)
	chaotic.Chaos = &ChaosSpec{Seed: 13, KillRank: 1, KillAtEpoch: 1}
	cv, err := c.Submit(ctx, chaotic)
	if err != nil {
		t.Fatal(err)
	}
	cdone, err := c.WaitSettled(ctx, cv.ID)
	if err != nil {
		t.Fatal(err)
	}
	if cdone.State != Completed {
		t.Fatalf("chaos job settled in %v (err %q), want completed", cdone.State, cdone.Error)
	}
	if cdone.Result.Generations != 2 || cdone.Result.Epochs != 3 {
		t.Errorf("chaos result %+v, want 3 epochs over 2 generations", cdone.Result)
	}

	// --- 5a. Pause → checkpoint retained → resume → completed.
	pv, err := c.Submit(ctx, runnableSpec("pausable", "bob", 2, 40))
	if err != nil {
		t.Fatal(err)
	}
	for { // wait for durable progress so resume has something to load
		cks, err := c.Checkpoints(ctx, pv.ID)
		if err != nil {
			t.Fatal(err)
		}
		if len(cks) > 0 {
			break
		}
		if err := ctx.Err(); err != nil {
			t.Fatal(err)
		}
		time.Sleep(2 * time.Millisecond)
	}
	if _, err := c.Pause(ctx, pv.ID); err != nil {
		t.Fatal(err)
	}
	paused, err := c.WaitSettled(ctx, pv.ID)
	if err != nil {
		t.Fatal(err)
	}
	if paused.State != Paused {
		t.Fatalf("job settled in %v, want paused", paused.State)
	}
	if cks, _ := c.Checkpoints(ctx, pv.ID); len(cks) == 0 {
		t.Fatal("paused job lost its checkpoints")
	}
	if _, err := c.Resume(ctx, pv.ID); err != nil {
		t.Fatal(err)
	}
	resumed, err := c.WaitSettled(ctx, pv.ID)
	if err != nil {
		t.Fatal(err)
	}
	if resumed.State != Completed || resumed.Result.Epochs != 40 {
		t.Fatalf("resumed job: %v with %+v, want completed with 40 epochs", resumed.State, resumed.Result)
	}

	// --- 5b. Cancel a running job: terminal Cancelled via consensus stop.
	dv, err := c.Submit(ctx, runnableSpec("doomed", "alice", 2, 40))
	if err != nil {
		t.Fatal(err)
	}
	for { // ensure it is actually running before cancelling
		v, err := c.Job(ctx, dv.ID)
		if err != nil {
			t.Fatal(err)
		}
		if v.State == Running {
			break
		}
		if err := ctx.Err(); err != nil {
			t.Fatal(err)
		}
		time.Sleep(2 * time.Millisecond)
	}
	if _, err := c.Cancel(ctx, dv.ID); err != nil {
		t.Fatal(err)
	}
	killed, err := c.WaitSettled(ctx, dv.ID)
	if err != nil {
		t.Fatal(err)
	}
	if killed.State != Cancelled {
		t.Fatalf("cancelled job settled in %v, want cancelled", killed.State)
	}
	// Verbs against settled jobs are clean API errors, not surprises.
	if _, err := c.Resume(ctx, dv.ID); err == nil {
		t.Error("resume of a cancelled job succeeded")
	}
	if _, err := c.Job(ctx, "j-9999"); err == nil {
		t.Error("inspect of an unknown job succeeded")
	}
}
