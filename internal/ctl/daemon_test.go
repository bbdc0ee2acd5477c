package ctl

import (
	"context"
	"strings"
	"testing"
	"time"

	"repro/internal/ckptstore"
	"repro/internal/comm"
)

// fastHeartbeat keeps elastic failure detection snappy under test.
var fastHeartbeat = comm.HeartbeatConfig{
	Interval: 3 * time.Millisecond,
	Timeout:  60 * time.Millisecond,
}

func testDaemon(t *testing.T, fleet Fleet) *Daemon {
	t.Helper()
	d, err := NewDaemon(Config{
		Fleet:     fleet,
		StoreDir:  t.TempDir(),
		Heartbeat: fastHeartbeat,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { d.Close() })
	return d
}

// waitSettled polls until job id is settled — terminal or Paused, so it
// will not progress without operator action — and returns its view then.
func waitSettled(d *Daemon, id string) (JobView, error) {
	for {
		v, err := d.Job(id)
		if err != nil || v.State.Terminal() || v.State == Paused {
			return v, err
		}
		time.Sleep(time.Millisecond)
	}
}

// runnableSpec is a job small enough to train in tens of milliseconds.
func runnableSpec(name, user string, world, epochs int) *JobSpec {
	return &JobSpec{
		Name:  name,
		User:  user,
		Model: ModelSpec{Kind: "mlp", Dims: []int{16, 8, 4}, Classes: 4},
		Data: DataSpec{
			Train: 32, Test: 8, Classes: 4, Channels: 1, Size: 4, Seed: 11,
		},
		World: world, Epochs: epochs, BatchPerRank: 4, LR: 0.05, Seed: 5,
	}
}

func waitState(t *testing.T, d *Daemon, id string, want State) JobView {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		v, err := d.Job(id)
		if err != nil {
			t.Fatal(err)
		}
		if v.State == want {
			return v
		}
		if v.State.Terminal() && !want.Terminal() {
			t.Fatalf("job %s settled in %v (err %q) while waiting for %v", id, v.State, v.Error, want)
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("job %s never reached %v", id, want)
	return JobView{}
}

// Two jobs from different users share the fleet concurrently and both
// complete, with metrics streamed and checkpoints stored per job.
func TestDaemonRunsConcurrentJobs(t *testing.T) {
	d := testDaemon(t, Fleet{Workers: 4})
	va, err := d.Submit(runnableSpec("a", "alice", 2, 2))
	if err != nil {
		t.Fatal(err)
	}
	vb, err := d.Submit(runnableSpec("b", "bob", 2, 2))
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{va.ID, vb.ID} {
		v, err := waitSettled(d, id)
		if err != nil {
			t.Fatal(err)
		}
		if v.State != Completed {
			t.Fatalf("job %s settled in %v (err %q), want completed", id, v.State, v.Error)
		}
		if v.Result == nil || v.Result.Epochs != 2 || v.Result.Iterations == 0 {
			t.Errorf("job %s result %+v, want 2 epochs and nonzero iterations", id, v.Result)
		}
		ms, err := d.Metrics(id, 0)
		if err != nil {
			t.Fatal(err)
		}
		if len(ms) != v.Result.Iterations {
			t.Errorf("job %s streamed %d metrics, want %d (one per step)", id, len(ms), v.Result.Iterations)
		}
		for _, m := range ms {
			if m.Loss <= 0 || m.StepNS <= 0 {
				t.Errorf("job %s metric %+v missing loss or duration", id, m)
			}
		}
		f, ref, err := d.Store().Latest(id)
		if err != nil || f == nil {
			t.Fatalf("job %s has no stored checkpoint: %v", id, err)
		}
		if f.Epoch != 2 || ref.Job != id {
			t.Errorf("job %s latest checkpoint epoch %d under %q, want 2 under the job id", id, f.Epoch, ref.Job)
		}
	}
}

// A job that can never fit is rejected synchronously with a descriptive
// error and recorded as Failed for audit.
func TestDaemonRejectsOversizedJob(t *testing.T) {
	d := testDaemon(t, Fleet{Workers: 2})
	v, err := d.Submit(runnableSpec("big", "alice", 8, 1))
	if err == nil {
		t.Fatal("oversized job admitted")
	}
	if !strings.Contains(err.Error(), "wants 8 workers") {
		t.Errorf("rejection %q does not explain the quota", err)
	}
	got, jerr := d.Job(v.ID)
	if jerr != nil {
		t.Fatal(jerr)
	}
	if got.State != Failed || got.Error == "" {
		t.Errorf("rejected job recorded as %v (err %q), want failed with cause", got.State, got.Error)
	}
}

// With the fleet full, later jobs queue; when workers free while alice
// still holds part of the fleet, bob (least share) goes first even though
// alice's second job was submitted earlier.
func TestDaemonFairShareOrdering(t *testing.T) {
	d := testDaemon(t, Fleet{Workers: 4})
	// alice occupies half the fleet for the whole test; a filler occupies
	// the other half while we queue the contenders.
	long, err := d.Submit(runnableSpec("a-long", "alice", 2, 200))
	if err != nil {
		t.Fatal(err)
	}
	filler, err := d.Submit(runnableSpec("filler", "carol", 2, 200))
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, d, long.ID, Running)
	waitState(t, d, filler.ID, Running)
	a2, err := d.Submit(runnableSpec("a2", "alice", 2, 1))
	if err != nil {
		t.Fatal(err)
	}
	b1, err := d.Submit(runnableSpec("b1", "bob", 2, 1))
	if err != nil {
		t.Fatal(err)
	}
	if s := mustJob(t, d, a2.ID).State; s != Queued {
		t.Fatalf("a2 is %v with a full fleet, want queued", s)
	}
	// Free half the fleet: bob (zero running share) must be picked over
	// alice's a2 (alice still runs a-long) despite submitting later.
	if err := d.Cancel(filler.ID); err != nil {
		t.Fatal(err)
	}
	if v, err := waitSettled(d, b1.ID); err != nil || v.State != Completed {
		t.Fatalf("b1 settled as %v (err %v), want completed", v.State, err)
	}
	a2done, err := waitSettled(d, a2.ID)
	if err != nil || a2done.State != Completed {
		t.Fatalf("a2 settled as %v (err %v), want completed", a2done.State, err)
	}
	// bob's job must have STARTED before alice's second (fair share), not
	// merely finished first.
	if !mustJob(t, d, b1.ID).Started.Before(a2done.Started) {
		t.Error("alice's second job started before bob's first despite fair share")
	}
	if err := d.Cancel(long.ID); err != nil {
		t.Fatal(err)
	}
}

func mustJob(t *testing.T, d *Daemon, id string) JobView {
	t.Helper()
	v, err := d.Job(id)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

// A scripted worker kill mid-job recovers through RunElastic and the job
// still completes, spanning two generations.
func TestDaemonChaosKillRecovers(t *testing.T) {
	d := testDaemon(t, Fleet{Workers: 2})
	spec := runnableSpec("chaotic", "alice", 2, 3)
	spec.Chaos = &ChaosSpec{Seed: 9, KillRank: 1, KillAtEpoch: 1}
	v, err := d.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	done, err := waitSettled(d, v.ID)
	if err != nil {
		t.Fatal(err)
	}
	if done.State != Completed {
		t.Fatalf("chaos job settled in %v (err %q), want completed", done.State, done.Error)
	}
	if done.Result.Generations != 2 {
		t.Errorf("chaos job spanned %d generation(s), want 2 (kill + recovery)", done.Result.Generations)
	}
	if done.Result.Epochs != 3 {
		t.Errorf("chaos job completed %d epochs, want all 3", done.Result.Epochs)
	}
}

// Pause parks a running job with its checkpoint retained; Resume continues
// it to completion from that checkpoint rather than from scratch.
func TestDaemonPauseResume(t *testing.T) {
	d := testDaemon(t, Fleet{Workers: 2})
	v, err := d.Submit(runnableSpec("pausable", "alice", 2, 40))
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, d, v.ID, Running)
	// Let it make durable progress (≥ 1 epoch checkpoint) before pausing.
	deadline := time.Now().Add(30 * time.Second)
	for {
		if f, _, _ := d.Store().Latest(v.ID); f != nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("no checkpoint appeared")
		}
		time.Sleep(2 * time.Millisecond)
	}
	if err := d.Pause(v.ID); err != nil {
		t.Fatal(err)
	}
	paused, err := waitSettled(d, v.ID)
	if err != nil {
		t.Fatal(err)
	}
	if paused.State != Paused {
		t.Fatalf("job settled in %v, want paused", paused.State)
	}
	f, _, err := d.Store().Latest(v.ID)
	if err != nil || f == nil {
		t.Fatalf("paused job lost its checkpoint: %v", err)
	}
	resumedFrom := f.Epoch

	if err := d.Resume(v.ID); err != nil {
		t.Fatal(err)
	}
	done, err := waitSettled(d, v.ID)
	if err != nil {
		t.Fatal(err)
	}
	if done.State != Completed {
		t.Fatalf("resumed job settled in %v (err %q), want completed", done.State, done.Error)
	}
	if done.Result.Epochs != 40 {
		t.Errorf("resumed job completed %d epochs, want 40", done.Result.Epochs)
	}
	// The resumed attempt must have continued, not restarted: its history
	// covers fewer epochs than a from-scratch run would.
	if resumedFrom < 1 {
		t.Errorf("checkpoint at epoch %d, want ≥ 1", resumedFrom)
	}
}

// Cancel lands a running job in the terminal Cancelled state via the
// cooperative consensus stop, and terminal jobs reject further verbs.
func TestDaemonCancel(t *testing.T) {
	d := testDaemon(t, Fleet{Workers: 2})
	v, err := d.Submit(runnableSpec("doomed", "alice", 2, 40))
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, d, v.ID, Running)
	if err := d.Cancel(v.ID); err != nil {
		t.Fatal(err)
	}
	done, err := waitSettled(d, v.ID)
	if err != nil {
		t.Fatal(err)
	}
	if done.State != Cancelled {
		t.Fatalf("job settled in %v, want cancelled", done.State)
	}
	if err := d.Resume(v.ID); err == nil {
		t.Error("Resume accepted a cancelled job")
	}
	if err := d.Pause(v.ID); err == nil {
		t.Error("Pause accepted a cancelled job")
	}
}

// Identical jobs produce bit-identical epoch checkpoints, which the
// content-addressed store shares: more refs than objects.
func TestDaemonCheckpointDedupAcrossJobs(t *testing.T) {
	d := testDaemon(t, Fleet{Workers: 4})
	v1, err := d.Submit(runnableSpec("twin-1", "alice", 2, 2))
	if err != nil {
		t.Fatal(err)
	}
	v2, err := d.Submit(runnableSpec("twin-2", "bob", 2, 2))
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{v1.ID, v2.ID} {
		if v, err := waitSettled(d, id); err != nil || v.State != Completed {
			t.Fatalf("twin %s settled as %v (err %v)", id, v.State, err)
		}
	}
	st, err := d.Store().Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Jobs != 2 || st.Refs != 2*st.Objects {
		t.Errorf("store stats %+v: identical twins should share every object (refs = 2×objects)", st)
	}
}

// Retention: with MaxPerJob 1, only each job's newest checkpoint survives.
func TestDaemonRetentionPrunes(t *testing.T) {
	d, err := NewDaemon(Config{
		Fleet:     Fleet{Workers: 2},
		StoreDir:  t.TempDir(),
		Heartbeat: fastHeartbeat,
		Retention: ckptstore.Policy{MaxPerJob: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	v, err := d.Submit(runnableSpec("pruned", "alice", 2, 3))
	if err != nil {
		t.Fatal(err)
	}
	if got, err := waitSettled(d, v.ID); err != nil || got.State != Completed {
		t.Fatalf("job settled as %v (err %v)", got.State, err)
	}
	refs, err := d.Store().Refs(v.ID)
	if err != nil {
		t.Fatal(err)
	}
	if len(refs) != 1 {
		t.Fatalf("%d refs survive MaxPerJob=1, want 1", len(refs))
	}
	f, err := d.Store().Get(refs[0].Sum)
	if err != nil {
		t.Fatal(err)
	}
	if f.Epoch != 3 {
		t.Errorf("surviving checkpoint is epoch %d, want the newest (3)", f.Epoch)
	}
}

// A restarted daemon over the same store numbers new jobs after the IDs
// the store holds: a reused ID would resume the new job from the old job's
// checkpoint instead of training it.
func TestDaemonRestartDoesNotReuseJobIDs(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{Fleet: Fleet{Workers: 2}, StoreDir: dir, Heartbeat: fastHeartbeat}
	d1, err := NewDaemon(cfg)
	if err != nil {
		t.Fatal(err)
	}
	first, err := d1.Submit(runnableSpec("before", "alice", 2, 2))
	if err != nil {
		t.Fatal(err)
	}
	if v, err := waitSettled(d1, first.ID); err != nil || v.State != Completed {
		t.Fatalf("first job settled as %v (err %v)", v.State, err)
	}
	d1.Close()

	d2, err := NewDaemon(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	second, err := d2.Submit(runnableSpec("after", "bob", 2, 3))
	if err != nil {
		t.Fatal(err)
	}
	if second.ID == first.ID {
		t.Fatalf("restarted daemon reused job ID %s", first.ID)
	}
	done, err := waitSettled(d2, second.ID)
	if err != nil || done.State != Completed {
		t.Fatalf("second job settled as %v (err %v)", done.State, err)
	}
	ms, err := d2.Metrics(second.ID, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) != done.Result.Iterations {
		t.Errorf("second job trained %d of its %d steps: it resumed from another job's checkpoint",
			len(ms), done.Result.Iterations)
	}
}

// Drain refuses new work and pauses running jobs, their checkpoints kept
// in the store.
func TestDaemonDrainPausesRunning(t *testing.T) {
	d := testDaemon(t, Fleet{Workers: 2})
	v, err := d.Submit(runnableSpec("draining", "alice", 2, 40))
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, d, v.ID, Running)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := d.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	if s := mustJob(t, d, v.ID).State; s != Paused {
		t.Errorf("running job drained into %v, want paused", s)
	}
	if _, err := d.Submit(runnableSpec("late", "bob", 1, 1)); err == nil {
		t.Error("draining daemon accepted a submission")
	}
}
