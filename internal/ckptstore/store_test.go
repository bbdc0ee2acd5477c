package ckptstore

import (
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/models"
)

func testFile(t *testing.T, seed int64, epoch, step int) *checkpoint.File {
	t.Helper()
	m := models.BuildMLP("mlp", []int{4, 6, 2}, rand.New(rand.NewSource(seed)))
	return checkpoint.Snapshot(m, epoch, step)
}

// Put files an object under its content hash and a round trip preserves
// both the training state and the hash.
func TestPutGetRoundTrip(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	f := testFile(t, 1, 2, 20)
	ref, created, err := s.Put("job-a", f)
	if err != nil {
		t.Fatal(err)
	}
	if !created {
		t.Error("first Put of new content reported a dedup hit")
	}
	want, err := f.Sum()
	if err != nil {
		t.Fatal(err)
	}
	if ref.Sum != want || ref.Seq != 1 || ref.Job != "job-a" {
		t.Errorf("ref = %+v, want seq 1 of job-a under %x", ref, want)
	}

	got, err := s.Get(ref.Sum)
	if err != nil {
		t.Fatal(err)
	}
	if got.Epoch != 2 || got.Step != 20 {
		t.Errorf("round trip lost progress: %d/%d", got.Epoch, got.Step)
	}
	sum, err := got.Sum()
	if err != nil {
		t.Fatal(err)
	}
	if sum != want {
		t.Error("content hash changed through the store")
	}
}

// Identical content from different jobs (or repeat Puts) shares one
// object: content addressing dedups, refs keep per-job ownership.
func TestPutDeduplicatesIdenticalContent(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	f := testFile(t, 2, 1, 10)
	if _, created, err := s.Put("job-a", f); err != nil || !created {
		t.Fatalf("first put: created=%v err=%v", created, err)
	}
	if _, created, err := s.Put("job-a", f); err != nil || created {
		t.Fatalf("repeat put: created=%v err=%v, want dedup hit", created, err)
	}
	if _, created, err := s.Put("job-b", f); err != nil || created {
		t.Fatalf("cross-job put: created=%v err=%v, want dedup hit", created, err)
	}
	st, err := s.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Objects != 1 || st.Refs != 3 || st.Jobs != 2 {
		t.Errorf("stats %+v, want 1 object, 3 refs, 2 jobs", st)
	}
}

// Latest follows the highest sequence number; a job with no checkpoints
// reports absence without error; sequence numbering survives reopening.
func TestLatestAndReopen(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if f, _, err := s.Latest("ghost"); err != nil || f != nil {
		t.Fatalf("Latest on unknown job = (%v, %v), want (nil, nil)", f, err)
	}
	for i := 1; i <= 3; i++ {
		if _, _, err := s.Put("job-a", testFile(t, int64(10+i), i, i*10)); err != nil {
			t.Fatal(err)
		}
	}
	f, ref, err := s.Latest("job-a")
	if err != nil {
		t.Fatal(err)
	}
	if ref.Seq != 3 || f.Epoch != 3 {
		t.Errorf("latest = seq %d epoch %d, want seq 3 epoch 3", ref.Seq, f.Epoch)
	}

	// Reopen: numbering continues rather than restarting at 1.
	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	ref4, _, err := s2.Put("job-a", testFile(t, 99, 4, 40))
	if err != nil {
		t.Fatal(err)
	}
	if ref4.Seq != 4 {
		t.Errorf("post-reopen seq = %d, want 4", ref4.Seq)
	}
}

// Count-based retention keeps the newest MaxPerJob refs and GC removes the
// objects they alone referenced.
func TestPruneCountRetentionAndGC(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 5; i++ {
		if _, _, err := s.Put("job-a", testFile(t, int64(20+i), i, i)); err != nil {
			t.Fatal(err)
		}
	}
	rep, err := s.Prune(Policy{MaxPerJob: 2})
	if err != nil {
		t.Fatal(err)
	}
	if rep.RefsRemoved != 3 || rep.ObjectsRemoved != 3 || rep.BytesFreed <= 0 {
		t.Errorf("prune report %+v, want 3 refs and 3 objects removed", rep)
	}
	refs, err := s.Refs("job-a")
	if err != nil {
		t.Fatal(err)
	}
	if len(refs) != 2 || refs[0].Seq != 4 || refs[1].Seq != 5 {
		t.Errorf("surviving refs %+v, want seqs 4 and 5", refs)
	}
	// Survivors still load and verify.
	if _, err := s.Get(refs[1].Sum); err != nil {
		t.Errorf("surviving object unreadable: %v", err)
	}
	// The pruned objects are gone.
	st, _ := s.Stats()
	if st.Objects != 2 {
		t.Errorf("%d objects after GC, want 2", st.Objects)
	}
}

// GC never removes an object that another job still references.
func TestPruneKeepsCrossJobSharedObjects(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	shared := testFile(t, 31, 1, 1)
	if _, _, err := s.Put("job-a", shared); err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.Put("job-b", shared); err != nil {
		t.Fatal(err)
	}
	// job-a gets a newer checkpoint, then is pruned down to 1 ref.
	if _, _, err := s.Put("job-a", testFile(t, 32, 2, 2)); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Prune(Policy{MaxPerJob: 1}); err != nil {
		t.Fatal(err)
	}
	// job-b's (older, shared) object must survive the GC.
	f, ref, err := s.Latest("job-b")
	if err != nil || f == nil {
		t.Fatalf("shared object lost: %v", err)
	}
	wantSum, _ := shared.Sum()
	if ref.Sum != wantSum {
		t.Error("job-b latest is not the shared checkpoint")
	}
}

// Age-based retention drops old refs but always keeps each job's newest.
func TestPruneAgeRetentionKeepsNewest(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	var refs []Ref
	for i := 1; i <= 3; i++ {
		r, _, err := s.Put("job-a", testFile(t, int64(40+i), i, i))
		if err != nil {
			t.Fatal(err)
		}
		refs = append(refs, r)
	}
	// Backdate every ref beyond the age limit; the newest must survive
	// anyway (the resume guarantee).
	old := time.Now().Add(-time.Hour)
	for _, r := range refs {
		path := filepath.Join(s.root, "jobs", "job-a",
			refName(r.Seq, r.Sum))
		if err := os.Chtimes(path, old, old); err != nil {
			t.Fatal(err)
		}
	}
	rep, err := s.Prune(Policy{MaxAge: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	if rep.RefsRemoved != 2 {
		t.Errorf("removed %d refs, want 2 (newest exempt)", rep.RefsRemoved)
	}
	left, err := s.Refs("job-a")
	if err != nil {
		t.Fatal(err)
	}
	if len(left) != 1 || left[0].Seq != 3 {
		t.Errorf("surviving refs %+v, want only seq 3", left)
	}
}

// A corrupted object fails content verification on Get instead of handing
// back wrong training state.
func TestGetDetectsCorruptObject(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	ref, _, err := s.Put("job-a", testFile(t, 51, 1, 1))
	if err != nil {
		t.Fatal(err)
	}
	// Flip stored bytes while keeping the file a decodable checkpoint: a
	// re-encode of different content under the same name.
	other := testFile(t, 52, 9, 9)
	if err := other.Save(s.objectPath(ref.Sum)); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Get(ref.Sum); err == nil {
		t.Error("Get accepted an object that does not match its address")
	}
}

// A version-1 object (conv weights in the channels-first column order) that
// an older build filed is refused on the way out, by Get and by the Latest a
// kfacd resume starts from, with checkpoint.Read's reason attached.
func TestGetRefusesVersion1Layout(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	f := testFile(t, 3, 1, 10)
	f.Version = 1
	ref, _, err := s.Put("job-old", f)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Get(ref.Sum); err == nil || !strings.Contains(err.Error(), "channels-first") {
		t.Errorf("Get of a version-1 object: %v, want a refusal naming the layout", err)
	}
	if _, _, err := s.Latest("job-old"); err == nil || !strings.Contains(err.Error(), "channels-first") {
		t.Errorf("Latest over a version-1 object: %v, want a refusal naming the layout", err)
	}
}

// Job names reach the filesystem, so hostile ones are rejected outright,
// by Put and by the Latest a resuming run starts from.
func TestPutRejectsUnsafeJobNames(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	f := testFile(t, 61, 1, 1)
	for _, job := range []string{"", "../escape", "a/b", ".hidden", "x y"} {
		if _, _, err := s.Put(job, f); err == nil {
			t.Errorf("Put accepted unsafe job name %q", job)
		}
		if _, _, err := s.Latest(job); err == nil {
			t.Errorf("Latest accepted unsafe job name %q", job)
		}
	}
}

// TestJobNameBoundaries holds validJobName to the edges of its rule: 128
// bytes pass and 129 do not, the first byte must be a letter or digit, and
// '.', '_' and '-' are allowed after it.
func TestJobNameBoundaries(t *testing.T) {
	for _, c := range []struct {
		job string
		ok  bool
	}{
		{strings.Repeat("a", 128), true},
		{strings.Repeat("a", 129), false},
		{"a" + strings.Repeat("-", 127), true},
		{".job", false},
		{"-job", false},
		{"_job", false},
		{"j.o_b-9", true},
		{"Z", true},
		{"job\n", false},
		{"jöb", false},
	} {
		if got := validJobName(c.job); got != c.ok {
			t.Errorf("validJobName(%q) = %v, want %v", c.job, got, c.ok)
		}
	}
}
