package checkpoint

import (
	"bytes"
	"crypto/sha256"
	"math/bits"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/models"
	"repro/internal/nn"
	"repro/internal/tensor"
)

func TestSnapshotRestoreRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	src := models.BuildSmallCNN(3, 10, 4, rng)
	f := Snapshot(src, 7, 123)
	if f.Epoch != 7 || f.Step != 123 {
		t.Errorf("progress = %d/%d", f.Epoch, f.Step)
	}

	// Restore into a freshly initialized model with different weights.
	dst := models.BuildSmallCNN(3, 10, 4, rand.New(rand.NewSource(2)))
	if err := f.Restore(dst); err != nil {
		t.Fatal(err)
	}
	sp, dp := src.Params(), dst.Params()
	for i := range sp {
		if !sp[i].Value.Equal(dp[i].Value, 0) {
			t.Fatalf("parameter %s differs after restore", sp[i].Name)
		}
	}
}

func TestWriteReadStream(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	m := models.BuildMLP("mlp", []int{4, 8, 2}, rng)
	f := Snapshot(m, 1, 2)
	f.AddExtra("momentum.fc0", tensor.Full(0.5, 8, 4))

	var buf bytes.Buffer
	if err := f.Write(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Epoch != 1 || len(got.Params) != len(f.Params) {
		t.Error("round trip lost data")
	}
	ex := got.ExtraTensor("momentum.fc0")
	if ex == nil || ex.Data[0] != 0.5 {
		t.Error("extra tensor lost")
	}
	if got.ExtraTensor("missing") != nil {
		t.Error("missing extra should be nil")
	}
}

func TestSaveLoadFile(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	m := models.BuildMLP("mlp", []int{3, 3}, rng)
	f := Snapshot(m, 5, 50)
	path := filepath.Join(t.TempDir(), "ckpt.gob")
	if err := f.Save(path); err != nil {
		t.Fatal(err)
	}
	got, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Step != 50 {
		t.Errorf("Step = %d", got.Step)
	}
}

// TestSaveReplacesWhole: a Save over an existing checkpoint leaves the new
// one in place and no temp file beside it; a Save that cannot create its
// temp file leaves the old checkpoint untouched. (That a synced file
// survives a power cut is the kernel's promise; no test here can cut power.)
func TestSaveReplacesWhole(t *testing.T) {
	m := models.BuildMLP("mlp", []int{3, 3}, rand.New(rand.NewSource(4)))
	dir := t.TempDir()
	path := filepath.Join(dir, "ckpt.gob")
	for _, epoch := range []int{1, 2} {
		if err := Snapshot(m, epoch, 10*epoch).Save(path); err != nil {
			t.Fatal(err)
		}
	}
	got, err := Load(path)
	if err != nil || got.Epoch != 2 {
		t.Fatalf("Load after two Saves: epoch %v, err %v; want the second", got, err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil || len(entries) != 1 {
		t.Fatalf("directory holds %d entries (err %v), want only the checkpoint", len(entries), err)
	}
	if err := os.Mkdir(path+".tmp", 0o755); err != nil {
		t.Fatal(err)
	}
	if err := Snapshot(m, 3, 30).Save(path); err == nil {
		t.Fatal("Save succeeded although its temp file could not be created")
	}
	if got, err := Load(path); err != nil || got.Epoch != 2 {
		t.Fatalf("failed Save disturbed the old checkpoint: %v, %v", got, err)
	}
}

func TestLoadMissingFile(t *testing.T) {
	if _, err := Load(filepath.Join(t.TempDir(), "nope.gob")); err == nil {
		t.Error("expected error")
	}
}

func TestRestoreMismatchedModel(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	src := models.BuildMLP("a", []int{4, 4}, rng)
	f := Snapshot(src, 0, 0)

	// Different layer names.
	other := models.BuildMLP("b", []int{4, 4}, rng)
	if err := f.Restore(other); err == nil {
		t.Error("expected name mismatch error")
	}
	// Different shape, same names.
	bigger := models.BuildMLP("a", []int{4, 5}, rng)
	if err := f.Restore(bigger); err == nil {
		t.Error("expected size mismatch error")
	}
	// Different parameter count.
	deeper := models.BuildMLP("a", []int{4, 4, 4}, rng)
	if err := f.Restore(deeper); err == nil {
		t.Error("expected count mismatch error")
	}
}

func TestReadBadVersion(t *testing.T) {
	f := &File{Version: 99}
	var buf bytes.Buffer
	if err := f.Write(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := Read(&buf); err == nil {
		t.Error("expected version error")
	}
}

// TestReadRefusesVersion1Layout: a version-1 file holds conv weights of the
// right shape in channels-first (c, ky, kx) column order. Nothing about its
// shapes is wrong, so only the version can stop it from loading as a
// different network; the error says why.
func TestReadRefusesVersion1Layout(t *testing.T) {
	conv := nn.NewConv2D("conv1", 3, 4, 3, 1, 1, false, rand.New(rand.NewSource(1)))
	v1 := &File{Version: 1, Epoch: 2, Step: 20, Params: []Entry{entryOf(conv.W.Name, conv.W.Value)}}
	var buf bytes.Buffer
	if err := v1.Write(&buf); err != nil {
		t.Fatal(err)
	}
	_, err := Read(&buf)
	if err == nil {
		t.Fatal("a version-1 checkpoint was read; its conv weights would load permuted")
	}
	for _, want := range []string{"version 1", "channels-first", "(ky, kx, c)"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not mention %q", err, want)
		}
	}
	if FormatVersion != 2 {
		t.Errorf("FormatVersion = %d, want 2 (channels-last conv weights)", FormatVersion)
	}
}

func TestReadGarbage(t *testing.T) {
	if _, err := Read(bytes.NewBufferString("not a gob")); err == nil {
		t.Error("expected decode error")
	}
}

func TestSnapshotTrainedStateDiffers(t *testing.T) {
	// Sanity: snapshot captures values, not references.
	rng := rand.New(rand.NewSource(6))
	m := models.BuildMLP("mlp", []int{2, 2}, rng)
	f := Snapshot(m, 0, 0)
	var before float64 = f.Params[0].Data[0]
	m.Params()[0].Value.Data[0] = 999
	if f.Params[0].Data[0] != before {
		t.Error("snapshot aliases live parameters")
	}
	var _ nn.Layer = m
}

// TestSumStableAcrossSaveLoad pins the content-hash contract the
// content-addressed checkpoint store keys on: Sum is deterministic, equals
// the SHA-256 of the saved file's bytes, survives a Save/Load round trip,
// and changes when any stored state changes.
func TestSumStableAcrossSaveLoad(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	m := models.BuildSmallCNN(1, 4, 4, rng)
	f := Snapshot(m, 2, 17)
	f.World = 3

	s1, err := f.Sum()
	if err != nil {
		t.Fatal(err)
	}
	s2, err := f.Sum()
	if err != nil {
		t.Fatal(err)
	}
	if s1 != s2 {
		t.Fatal("Sum is not deterministic for an unchanged File")
	}

	// Sum hashes exactly the bytes Save persists.
	path := filepath.Join(t.TempDir(), "sum.ckpt")
	if err := f.Save(path); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if disk := sha256.Sum256(raw); disk != s1 {
		t.Errorf("Sum %x != sha256 of saved bytes %x", s1, disk)
	}

	// ...and the digest survives the Save/Load round trip.
	g, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	s3, err := g.Sum()
	if err != nil {
		t.Fatal(err)
	}
	if s3 != s1 {
		t.Errorf("Sum changed across Save/Load: %x → %x", s1, s3)
	}

	// Any state change moves the hash — content addressing, not identity.
	g.Params[0].Data[0] += 1
	s4, err := g.Sum()
	if err != nil {
		t.Fatal(err)
	}
	if s4 == s1 {
		t.Error("Sum unchanged after mutating a parameter")
	}
}

// TestReadTruncatedFile: a valid checkpoint truncated at several offsets
// must yield a descriptive error from Read/Load — never a panic, never a
// silently partial File.
func TestReadTruncatedFile(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	m := models.BuildSmallCNN(1, 4, 4, rng)
	f := Snapshot(m, 1, 9)
	var buf bytes.Buffer
	if err := f.Write(&buf); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	dir := t.TempDir()
	for _, cut := range []int{0, 1, 16, len(full) / 4, len(full) / 2, len(full) - 1} {
		trunc := full[:cut]
		if _, err := Read(bytes.NewReader(trunc)); err == nil {
			t.Errorf("Read accepted a checkpoint truncated to %d/%d bytes", cut, len(full))
		}
		path := filepath.Join(dir, "trunc.ckpt")
		if err := os.WriteFile(path, trunc, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := Load(path); err == nil {
			t.Errorf("Load accepted a checkpoint truncated to %d/%d bytes", cut, len(full))
		} else if !strings.Contains(err.Error(), path) {
			t.Errorf("Load error for truncation at %d does not name the file: %v", cut, err)
		}
	}
	// The untruncated bytes still load, proving the loop exercised real
	// corruption rather than an always-failing fixture.
	if _, err := Read(bytes.NewReader(full)); err != nil {
		t.Fatalf("untruncated checkpoint failed to read: %v", err)
	}
}

// wrappingEntry's shape claims 4·(2⁶²+1) = 2⁶⁴+4 elements, a product that
// wraps to exactly its 4 data elements in int arithmetic.
var wrappingEntry = Entry{Name: "w", Shape: []int{4, 1<<62 + 1}, Data: make([]float64, 4)}

// TestReadInconsistentEntry: a decoded entry whose shape does not describe
// its data is rejected at Read time, before any tensor construction could
// panic on it.
func TestReadInconsistentEntry(t *testing.T) {
	cases := []struct {
		name  string
		entry Entry
	}{
		{"shape/data mismatch", Entry{Name: "w", Shape: []int{4, 4}, Data: make([]float64, 3)}},
		{"zero dim", Entry{Name: "w", Shape: []int{0, 4}, Data: nil}},
		{"negative dim", Entry{Name: "w", Shape: []int{-2, 2}, Data: make([]float64, 4)}},
		{"huge dims overflow", Entry{Name: "w", Shape: []int{1 << 31, 1 << 31, 1 << 31}, Data: make([]float64, 1)}},
		{"product wraps onto len(Data)", wrappingEntry},
		{"empty shape", Entry{Name: "w"}},
	}
	for _, tc := range cases {
		f := &File{Version: FormatVersion, Extra: []Entry{tc.entry}}
		var buf bytes.Buffer
		if err := f.Write(&buf); err != nil {
			t.Fatal(err)
		}
		got, err := Read(&buf)
		if err == nil {
			// Reaching ExtraTensor on such a File is exactly the panic path
			// the validation exists to prevent.
			t.Errorf("%s: Read accepted inconsistent entry %v", tc.name, got.Extra[0].Shape)
			continue
		}
		if !strings.Contains(err.Error(), "\"w\"") {
			t.Errorf("%s: error does not name the entry: %v", tc.name, err)
		}
	}
	// Negative progress counters are also data corruption.
	f := &File{Version: FormatVersion, Epoch: -1}
	var buf bytes.Buffer
	if err := f.Write(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := Read(&buf); err == nil {
		t.Error("Read accepted a negative epoch")
	}
}

// TestRestoreAcrossWorldSizes: a checkpoint written at one world size must
// restore at any other — only replica state is stored, never rank- or
// world-derived state. This is the contract the elastic trainer's resized
// recovery relies on.
func TestRestoreAcrossWorldSizes(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	src := models.BuildSmallCNN(1, 6, 4, rng)
	f := Snapshot(src, 3, 40)
	f.World = 8 // written by an 8-rank run

	path := filepath.Join(t.TempDir(), "world.ckpt")
	if err := f.Save(path); err != nil {
		t.Fatal(err)
	}
	g, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if g.World != 8 || g.Epoch != 3 || g.Step != 40 {
		t.Fatalf("metadata %d/%d/%d, want world 8, epoch 3, step 40", g.World, g.Epoch, g.Step)
	}
	// "The 2-rank survivor restores the 8-rank checkpoint": nothing about
	// the restore consults World.
	dst := models.BuildSmallCNN(1, 6, 4, rand.New(rand.NewSource(10)))
	if err := g.Restore(dst); err != nil {
		t.Fatalf("restore at a different world size: %v", err)
	}
	sp, dp := src.Params(), dst.Params()
	for i := range sp {
		if !sp[i].Value.Equal(dp[i].Value, 0) {
			t.Fatalf("parameter %s differs after cross-world restore", sp[i].Name)
		}
	}
}

// FuzzCheckpointRead feeds Read arbitrary bytes, seeded with a valid
// snapshot and with the file carrying wrappingEntry. Read must never panic,
// and every entry it accepts must describe its data exactly — the product
// of its dims, computed without overflow, is len(Data) — so building its
// tensor cannot panic or claim elements it does not hold.
func FuzzCheckpointRead(f *testing.F) {
	snap := Snapshot(models.BuildSmallCNN(1, 4, 4, rand.New(rand.NewSource(23))), 1, 9)
	snap.AddExtra("momentum.fc", tensor.Full(0.5, 2, 3))
	for _, file := range []*File{snap, {Version: FormatVersion, Extra: []Entry{wrappingEntry}}} {
		var buf bytes.Buffer
		if err := file.Write(&buf); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := Read(bytes.NewReader(data))
		if err != nil {
			return
		}
		for _, sec := range [][]Entry{got.Params, got.Buffers, got.Extra} {
			for _, e := range sec {
				n := uint64(1)
				for _, d := range e.Shape {
					hi, lo := bits.Mul64(n, uint64(d))
					if d <= 0 || hi != 0 {
						t.Fatalf("accepted entry %q with shape %v", e.Name, e.Shape)
					}
					n = lo
				}
				if n != uint64(len(e.Data)) {
					t.Fatalf("accepted entry %q: shape %v for %d elements", e.Name, e.Shape, len(e.Data))
				}
				if l := e.tensor().Len(); l != len(e.Data) {
					t.Fatalf("entry %q: tensor has %d elements, data %d", e.Name, l, len(e.Data))
				}
			}
		}
	})
}
