// Package checkpoint serializes training state — model parameters, and
// optionally named auxiliary tensors such as optimizer momentum buffers or
// K-FAC running-average factors — to a stable binary format built on
// encoding/gob. Long ImageNet-scale runs in the paper's setting span many
// hours; checkpoint/restore is part of the production surface a downstream
// user expects.
//
// Format: a single gob stream holding a File struct. Parameter tensors are
// stored by name, so restoring requires a model with the same layer names
// and shapes (the usual state-dict contract).
package checkpoint

import (
	"crypto/sha256"
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"repro/internal/nn"
	"repro/internal/tensor"
)

// FormatVersion identifies the on-disk layout and what the tensors in it
// mean. Version 2 stores a conv weight's columns in the channels-last patch
// order (ky, kx, c); version 1 stored the same shape in channels-first
// (c, ky, kx) order, so a version-1 file would load without a shape error
// and compute a different network. Read refuses it.
const FormatVersion = 2

// Entry is one named tensor.
type Entry struct {
	Name  string
	Shape []int
	Data  []float64
}

// File is the serialized checkpoint.
//
// Checkpoints are world-size agnostic by construction: only replica state
// (parameters, buffers, training progress) is stored — never rank- or
// world-derived state such as data-shard indices or K-FAC factor
// placement. A checkpoint written by an N-rank run therefore restores
// into an M-rank run unchanged; the restoring trainer rebuilds its shard
// sampler and re-runs factor placement for its own world size (the
// elastic recovery path relies on this, see trainer.RunElastic).
type File struct {
	Version int
	// Epoch and Step record training progress for resumption: Epoch is the
	// number of *completed* epochs, Step the optimizer-step count so far.
	Epoch, Step int
	// World optionally records the world size that wrote the checkpoint —
	// informational only (restore never requires it to match).
	World int
	// Params are the model parameters keyed by Param.Name order.
	Params []Entry
	// Buffers are the model's non-trainable state tensors (BatchNorm
	// running statistics), captured and restored alongside parameters.
	Buffers []Entry
	// Extra carries auxiliary tensors (momentum buffers, K-FAC factors)
	// under caller-chosen names.
	Extra []Entry
}

// Snapshot captures a model's parameters and stateful buffers (BatchNorm
// running statistics) into a File.
func Snapshot(model nn.Layer, epoch, step int) *File {
	f := &File{Version: FormatVersion, Epoch: epoch, Step: step}
	for _, p := range model.Params() {
		f.Params = append(f.Params, entryOf(p.Name, p.Value))
	}
	for _, s := range nn.StateTensors(model) {
		f.Buffers = append(f.Buffers, entryOf(s.Name, s.Value))
	}
	return f
}

// AddExtra attaches an auxiliary tensor under the given name.
func (f *File) AddExtra(name string, t *tensor.Tensor) {
	f.Extra = append(f.Extra, entryOf(name, t))
}

// ExtraTensor returns the auxiliary tensor stored under name, or nil.
func (f *File) ExtraTensor(name string) *tensor.Tensor {
	for _, e := range f.Extra {
		if e.Name == name {
			return e.tensor()
		}
	}
	return nil
}

func entryOf(name string, t *tensor.Tensor) Entry {
	return Entry{
		Name:  name,
		Shape: append([]int(nil), t.Shape...),
		Data:  append([]float64(nil), t.Data...),
	}
}

func (e Entry) tensor() *tensor.Tensor {
	return tensor.FromSlice(append([]float64(nil), e.Data...), e.Shape...)
}

// Write encodes the checkpoint to w.
func (f *File) Write(w io.Writer) error {
	return gob.NewEncoder(w).Encode(f)
}

// Sum returns the SHA-256 digest of the checkpoint's canonical serialized
// bytes — exactly the bytes Write emits (and Save persists), so the digest
// of an in-memory File equals the digest of its on-disk form and survives
// a Save/Load round trip. File contains only integers and ordered slices
// (never maps), so gob encoding — and therefore the digest — is
// deterministic for a given value. This is the key the content-addressed
// checkpoint store (internal/ckptstore) files objects under: two
// checkpoints with identical training state share one digest and one
// stored object.
func (f *File) Sum() ([32]byte, error) {
	h := sha256.New()
	if err := f.Write(h); err != nil {
		return [32]byte{}, fmt.Errorf("checkpoint: hashing: %w", err)
	}
	var sum [32]byte
	copy(sum[:], h.Sum(nil))
	return sum, nil
}

// Read decodes a checkpoint from r. Truncated streams, non-checkpoint
// bytes, unknown versions, version-1 files (conv weights in the
// channels-first column order), and internally inconsistent entries (a tensor
// whose shape does not describe its data) are all rejected with a
// descriptive error — a corrupt file can never panic a later Restore or
// ExtraTensor call.
func Read(r io.Reader) (*File, error) {
	var f File
	if err := gob.NewDecoder(r).Decode(&f); err != nil {
		if err == io.ErrUnexpectedEOF || err == io.EOF {
			return nil, fmt.Errorf("checkpoint: decode: truncated or empty stream: %w", err)
		}
		return nil, fmt.Errorf("checkpoint: decode: %w", err)
	}
	if f.Version == 1 {
		return nil, fmt.Errorf("checkpoint: version 1 file: its conv weights are in channels-first (c, ky, kx) column order; "+
			"this build computes channels-last and reads version %d, whose columns are (ky, kx, c) — same shapes, permuted meaning, so it is refused rather than loaded", FormatVersion)
	}
	if f.Version != FormatVersion {
		return nil, fmt.Errorf("checkpoint: unsupported version %d", f.Version)
	}
	if f.Epoch < 0 || f.Step < 0 {
		return nil, fmt.Errorf("checkpoint: negative progress (epoch %d, step %d)", f.Epoch, f.Step)
	}
	for _, sec := range []struct {
		name    string
		entries []Entry
	}{{"param", f.Params}, {"buffer", f.Buffers}, {"extra", f.Extra}} {
		for _, e := range sec.entries {
			if err := e.validate(); err != nil {
				return nil, fmt.Errorf("checkpoint: %s %q: %w", sec.name, e.Name, err)
			}
		}
	}
	return &f, nil
}

// validate checks that the entry's shape describes its data: at least one
// dimension, every dimension positive, and the dimension product equal to
// the element count. Gob decodes whatever ints were in the stream, so a
// corrupted or hand-crafted file can carry any inconsistency; this is the
// gate that keeps it from reaching tensor construction (which would panic,
// or build a tensor whose shape claims more elements than it holds).
func (e Entry) validate() error {
	if len(e.Shape) == 0 {
		return fmt.Errorf("invalid shape %v", e.Shape)
	}
	n := 1
	for _, d := range e.Shape {
		if d <= 0 {
			return fmt.Errorf("invalid shape %v", e.Shape)
		}
		// Compared before multiplying, so the product never exceeds
		// len(Data) and cannot wrap around onto it.
		if d > len(e.Data)/n {
			return fmt.Errorf("shape %v does not describe %d data elements", e.Shape, len(e.Data))
		}
		n *= d
	}
	if n != len(e.Data) {
		return fmt.Errorf("shape %v does not describe %d data elements", e.Shape, len(e.Data))
	}
	return nil
}

// Restore copies the checkpoint's parameters into model. Every checkpoint
// entry must match a model parameter by name and element count; extra model
// parameters are an error (the strict state-dict contract).
func (f *File) Restore(model nn.Layer) error {
	params := model.Params()
	byName := make(map[string]*nn.Param, len(params))
	for _, p := range params {
		byName[p.Name] = p
	}
	if len(f.Params) != len(params) {
		return fmt.Errorf("checkpoint: has %d params, model has %d", len(f.Params), len(params))
	}
	for _, e := range f.Params {
		p, ok := byName[e.Name]
		if !ok {
			return fmt.Errorf("checkpoint: model has no parameter %q", e.Name)
		}
		if len(e.Data) != p.Value.Len() {
			return fmt.Errorf("checkpoint: parameter %q has %d elements, model wants %d",
				e.Name, len(e.Data), p.Value.Len())
		}
		copy(p.Value.Data, e.Data)
	}
	// Restore stateful buffers by name; the model may legitimately have
	// none (no BatchNorm), but a checkpointed buffer with no home is an
	// error.
	states := nn.StateTensors(model)
	stateByName := make(map[string]*tensor.Tensor, len(states))
	for _, s := range states {
		stateByName[s.Name] = s.Value
	}
	for _, e := range f.Buffers {
		buf, ok := stateByName[e.Name]
		if !ok {
			return fmt.Errorf("checkpoint: model has no buffer %q", e.Name)
		}
		if len(e.Data) != buf.Len() {
			return fmt.Errorf("checkpoint: buffer %q has %d elements, model wants %d",
				e.Name, len(e.Data), buf.Len())
		}
		copy(buf.Data, e.Data)
	}
	return nil
}

// Save writes the checkpoint atomically and durably to path: the bytes go
// to a temp file that is synced before it is renamed over path, and the
// directory is synced after the rename. A crash or power loss therefore
// leaves either the previous file or the whole new one under path, never an
// empty or partial one.
func (f *File) Save(path string) error {
	tmp := path + ".tmp"
	w, err := os.Create(tmp)
	if err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	err = errors.Join(f.Write(w), w.Sync(), w.Close())
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		os.Remove(tmp)
		return fmt.Errorf("checkpoint: %w", err)
	}
	dir, err := os.Open(filepath.Dir(path))
	if err == nil {
		err = errors.Join(dir.Sync(), dir.Close())
	}
	if err != nil {
		return fmt.Errorf("checkpoint: syncing directory: %w", err)
	}
	return nil
}

// Load reads a checkpoint from path, naming the file in any decode or
// validation error so a corrupt checkpoint on disk is diagnosable.
func Load(path string) (*File, error) {
	r, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("checkpoint: %w", err)
	}
	defer r.Close()
	f, err := Read(r)
	if err != nil {
		return nil, fmt.Errorf("%w (file %s)", err, path)
	}
	return f, nil
}
