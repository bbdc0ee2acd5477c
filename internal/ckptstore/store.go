// Package ckptstore is a content-addressed checkpoint store: checkpoint
// files are stored once per distinct content (keyed by the SHA-256 of
// their canonical serialized bytes, checkpoint.File.Sum) and referenced
// per job in submission order. Two jobs — or two epochs of one job —
// whose training state is bit-identical share a single stored object.
//
// Layout under the store root:
//
//	objects/<64-hex-sha256>.ckpt   the deduplicated checkpoint bytes
//	jobs/<job>/<seq>_<64-hex>.ref  one empty marker per stored checkpoint,
//	                               seq strictly increasing per job
//
// Objects are immutable once written (their name commits to their
// content); refs carry the ordering and ownership. Retention is applied
// to refs (count and age per job, newest always kept) and garbage
// collection removes objects no surviving ref points to. The kfacd
// control-plane daemon keeps every job's recovery checkpoints here.
package ckptstore

import (
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/checkpoint"
)

// validJobName bounds job identifiers to filesystem-safe names: 1 to 128
// bytes of ASCII letters, digits, '.', '_' and '-', the first a letter or
// digit (the regular expression ^[A-Za-z0-9][A-Za-z0-9._-]{0,127}$).
func validJobName(job string) bool {
	if len(job) == 0 || len(job) > 128 {
		return false
	}
	for i := 0; i < len(job); i++ {
		switch b := job[i]; {
		case 'a' <= b && b <= 'z', 'A' <= b && b <= 'Z', '0' <= b && b <= '9':
		case i > 0 && (b == '.' || b == '_' || b == '-'):
		default:
			return false
		}
	}
	return true
}

// Store is a content-addressed checkpoint store rooted at one directory.
// All methods are safe for concurrent use.
type Store struct {
	root string

	mu  sync.Mutex
	seq map[string]int // per-job last issued ref sequence
}

// Ref identifies one stored checkpoint of one job.
type Ref struct {
	// Job is the owning job identifier.
	Job string
	// Seq is the job-local, strictly increasing checkpoint number.
	Seq int
	// Sum is the content hash the object is filed under.
	Sum [32]byte
	// Time is when the ref was recorded (the ref file's mtime).
	Time time.Time
}

// Hex returns the object key as lowercase hex.
func (r Ref) Hex() string { return hex.EncodeToString(r.Sum[:]) }

// Stats summarizes store occupancy.
type Stats struct {
	// Objects is the number of distinct stored checkpoints.
	Objects int `json:"objects"`
	// Refs is the number of job references over those objects; Refs >
	// Objects means deduplication is saving space.
	Refs int `json:"refs"`
	// Bytes is the total size of the stored objects.
	Bytes int64 `json:"bytes"`
	// Jobs is the number of jobs holding at least one ref.
	Jobs int `json:"jobs"`
}

// Policy is the retention policy Prune applies per job. Zero values
// disable the respective limit; the newest ref of every job is always
// retained regardless, so a paused job can always resume.
type Policy struct {
	// MaxPerJob keeps at most this many newest refs per job (0 = no limit).
	MaxPerJob int
	// MaxAge drops refs older than this (0 = no limit).
	MaxAge time.Duration
}

// PruneReport counts what one Prune pass removed.
type PruneReport struct {
	// RefsRemoved counts dropped job references.
	RefsRemoved int
	// ObjectsRemoved counts garbage-collected objects (no surviving ref).
	ObjectsRemoved int
	// BytesFreed is the size of the removed objects.
	BytesFreed int64
}

// Open creates (if needed) and opens a store rooted at dir.
func Open(dir string) (*Store, error) {
	for _, sub := range []string{"objects", "jobs"} {
		if err := os.MkdirAll(filepath.Join(dir, sub), 0o755); err != nil {
			return nil, fmt.Errorf("ckptstore: %w", err)
		}
	}
	s := &Store{root: dir, seq: make(map[string]int)}
	// Rebuild per-job sequence counters from whatever refs already exist,
	// so a reopened store continues numbering instead of colliding.
	jobs, err := s.Jobs()
	if err != nil {
		return nil, err
	}
	for _, job := range jobs {
		refs, err := s.Refs(job)
		if err != nil {
			return nil, err
		}
		if len(refs) > 0 {
			s.seq[job] = refs[len(refs)-1].Seq
		}
	}
	return s, nil
}

func (s *Store) objectPath(sum [32]byte) string {
	return filepath.Join(s.root, "objects", hex.EncodeToString(sum[:])+".ckpt")
}

func (s *Store) jobDir(job string) string { return filepath.Join(s.root, "jobs", job) }

func refName(seq int, sum [32]byte) string {
	return fmt.Sprintf("%08d_%s.ref", seq, hex.EncodeToString(sum[:]))
}

// parseRefName inverts refName; ok is false for foreign files.
func parseRefName(name string) (seq int, sum [32]byte, ok bool) {
	base, found := strings.CutSuffix(name, ".ref")
	if !found {
		return 0, sum, false
	}
	seqStr, hexStr, found := strings.Cut(base, "_")
	if !found || len(hexStr) != 64 {
		return 0, sum, false
	}
	seq, err := strconv.Atoi(seqStr)
	if err != nil {
		return 0, sum, false
	}
	raw, err := hex.DecodeString(hexStr)
	if err != nil {
		return 0, sum, false
	}
	copy(sum[:], raw)
	return seq, sum, true
}

// Put stores one checkpoint under job, deduplicating by content: the
// object is written only if its hash is not already present, and a new ref
// is recorded either way. Returns the ref and whether a new object was
// created (false = pure dedup hit).
func (s *Store) Put(job string, f *checkpoint.File) (Ref, bool, error) {
	if !validJobName(job) {
		return Ref{}, false, fmt.Errorf("ckptstore: invalid job name %q", job)
	}
	sum, err := f.Sum()
	if err != nil {
		return Ref{}, false, err
	}

	s.mu.Lock()
	defer s.mu.Unlock()

	created := false
	objPath := s.objectPath(sum)
	if _, err := os.Stat(objPath); os.IsNotExist(err) {
		// checkpoint.Save syncs a temp file before renaming it into place,
		// so a crashed Put never leaves a half-written object under a
		// content hash.
		if err := f.Save(objPath); err != nil {
			return Ref{}, false, fmt.Errorf("ckptstore: storing object: %w", err)
		}
		created = true
	} else if err != nil {
		return Ref{}, false, fmt.Errorf("ckptstore: %w", err)
	}

	if err := os.MkdirAll(s.jobDir(job), 0o755); err != nil {
		return Ref{}, false, fmt.Errorf("ckptstore: %w", err)
	}
	seq := s.seq[job] + 1
	s.seq[job] = seq
	refPath := filepath.Join(s.jobDir(job), refName(seq, sum))
	if err := os.WriteFile(refPath, nil, 0o644); err != nil {
		return Ref{}, false, fmt.Errorf("ckptstore: recording ref: %w", err)
	}
	ref := Ref{Job: job, Seq: seq, Sum: sum, Time: time.Now()}
	if fi, err := os.Stat(refPath); err == nil {
		ref.Time = fi.ModTime()
	}
	return ref, created, nil
}

// Get loads the checkpoint stored under the given content hash.
func (s *Store) Get(sum [32]byte) (*checkpoint.File, error) {
	f, err := checkpoint.Load(s.objectPath(sum))
	if err != nil {
		return nil, fmt.Errorf("ckptstore: object %s: %w", hex.EncodeToString(sum[:8]), err)
	}
	got, err := f.Sum()
	if err != nil {
		return nil, err
	}
	if got != sum {
		// Bit rot or tampering: the object no longer matches its address.
		return nil, fmt.Errorf("ckptstore: object %s failed content verification",
			hex.EncodeToString(sum[:8]))
	}
	return f, nil
}

// Refs lists job's checkpoints in ascending sequence order. A job with no
// refs returns an empty slice, not an error.
func (s *Store) Refs(job string) ([]Ref, error) {
	entries, err := os.ReadDir(s.jobDir(job))
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("ckptstore: %w", err)
	}
	refs := make([]Ref, 0, len(entries))
	for _, e := range entries {
		seq, sum, ok := parseRefName(e.Name())
		if !ok {
			continue
		}
		r := Ref{Job: job, Seq: seq, Sum: sum}
		if fi, err := e.Info(); err == nil {
			r.Time = fi.ModTime()
		}
		refs = append(refs, r)
	}
	sort.Slice(refs, func(i, j int) bool { return refs[i].Seq < refs[j].Seq })
	return refs, nil
}

// Latest returns job's newest checkpoint, or (nil, zero Ref, nil) when the
// job has none — absence is a normal state, not an error. A job name Put
// would refuse is an error here too.
func (s *Store) Latest(job string) (*checkpoint.File, Ref, error) {
	if !validJobName(job) {
		return nil, Ref{}, fmt.Errorf("ckptstore: invalid job name %q", job)
	}
	refs, err := s.Refs(job)
	if err != nil || len(refs) == 0 {
		return nil, Ref{}, err
	}
	last := refs[len(refs)-1]
	f, err := s.Get(last.Sum)
	if err != nil {
		return nil, Ref{}, err
	}
	return f, last, nil
}

// Jobs lists every job holding at least one ref, sorted.
func (s *Store) Jobs() ([]string, error) {
	entries, err := os.ReadDir(filepath.Join(s.root, "jobs"))
	if err != nil {
		return nil, fmt.Errorf("ckptstore: %w", err)
	}
	var jobs []string
	for _, e := range entries {
		if e.IsDir() {
			jobs = append(jobs, e.Name())
		}
	}
	sort.Strings(jobs)
	return jobs, nil
}

// Stats scans the store and reports occupancy.
func (s *Store) Stats() (Stats, error) {
	var st Stats
	objs, err := os.ReadDir(filepath.Join(s.root, "objects"))
	if err != nil {
		return st, fmt.Errorf("ckptstore: %w", err)
	}
	for _, o := range objs {
		if !strings.HasSuffix(o.Name(), ".ckpt") {
			continue
		}
		st.Objects++
		if fi, err := o.Info(); err == nil {
			st.Bytes += fi.Size()
		}
	}
	jobs, err := s.Jobs()
	if err != nil {
		return st, err
	}
	for _, job := range jobs {
		refs, err := s.Refs(job)
		if err != nil {
			return st, err
		}
		if len(refs) > 0 {
			st.Jobs++
		}
		st.Refs += len(refs)
	}
	return st, nil
}

// Prune applies the retention policy, then garbage-collects objects no
// surviving ref points to. The newest ref of every job is exempt from both
// limits: whatever else is trimmed, every job keeps a resumable
// checkpoint.
func (s *Store) Prune(pol Policy) (PruneReport, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	var rep PruneReport

	jobs, err := s.Jobs()
	if err != nil {
		return rep, err
	}
	live := make(map[[32]byte]bool)
	cutoff := time.Time{}
	if pol.MaxAge > 0 {
		cutoff = time.Now().Add(-pol.MaxAge)
	}
	for _, job := range jobs {
		refs, err := s.Refs(job)
		if err != nil {
			return rep, err
		}
		for i, r := range refs {
			newest := i == len(refs)-1
			drop := false
			if !newest {
				if pol.MaxPerJob > 0 && len(refs)-i > pol.MaxPerJob {
					drop = true
				}
				if pol.MaxAge > 0 && r.Time.Before(cutoff) {
					drop = true
				}
			}
			if drop {
				if err := os.Remove(filepath.Join(s.jobDir(job), refName(r.Seq, r.Sum))); err != nil {
					return rep, fmt.Errorf("ckptstore: pruning ref: %w", err)
				}
				rep.RefsRemoved++
				continue
			}
			live[r.Sum] = true
		}
	}

	objs, err := os.ReadDir(filepath.Join(s.root, "objects"))
	if err != nil {
		return rep, fmt.Errorf("ckptstore: %w", err)
	}
	for _, o := range objs {
		hexStr, found := strings.CutSuffix(o.Name(), ".ckpt")
		if !found || len(hexStr) != 64 {
			continue
		}
		raw, err := hex.DecodeString(hexStr)
		if err != nil {
			continue
		}
		var sum [32]byte
		copy(sum[:], raw)
		if live[sum] {
			continue
		}
		path := filepath.Join(s.root, "objects", o.Name())
		if fi, err := o.Info(); err == nil {
			rep.BytesFreed += fi.Size()
		}
		if err := os.Remove(path); err != nil {
			return rep, fmt.Errorf("ckptstore: collecting object: %w", err)
		}
		rep.ObjectsRemoved++
	}
	return rep, nil
}
