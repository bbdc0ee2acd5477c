package data

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"testing"
	"testing/quick"

	"repro/internal/tensor"
)

func TestGenerateSyntheticShapes(t *testing.T) {
	cfg := SyntheticConfig{Train: 100, Test: 40, Classes: 5, Channels: 3, Size: 8, Noise: 0.1, Seed: 1}
	train, test := GenerateSynthetic(cfg)
	if train.Len() != 100 || test.Len() != 40 {
		t.Fatalf("split sizes = %d/%d", train.Len(), test.Len())
	}
	if train.X.Shape[1] != 8 || train.X.Shape[2] != 8 || train.X.Shape[3] != 3 {
		t.Fatalf("image shape = %v", train.X.Shape)
	}
	for _, l := range train.Labels {
		if l < 0 || l >= 5 {
			t.Fatalf("label out of range: %d", l)
		}
	}
}

func TestGenerateSyntheticDeterministic(t *testing.T) {
	cfg := SyntheticConfig{Train: 20, Test: 5, Classes: 3, Channels: 1, Size: 6, Noise: 0.2, Seed: 7}
	a, _ := GenerateSynthetic(cfg)
	b, _ := GenerateSynthetic(cfg)
	if !a.X.Equal(b.X, 0) {
		t.Error("same seed must give identical data")
	}
	cfg.Seed = 8
	c, _ := GenerateSynthetic(cfg)
	if a.X.Equal(c.X, 0) {
		t.Error("different seeds should differ")
	}
}

func TestGenerateSyntheticAllClassesPresent(t *testing.T) {
	cfg := SyntheticConfig{Train: 500, Test: 10, Classes: 10, Channels: 1, Size: 4, Seed: 3}
	train, _ := GenerateSynthetic(cfg)
	seen := make(map[int]bool)
	for _, l := range train.Labels {
		seen[l] = true
	}
	if len(seen) != 10 {
		t.Errorf("only %d classes present in 500 samples", len(seen))
	}
}

func TestGenerateSyntheticClassesSeparable(t *testing.T) {
	// With zero noise and no shift, samples equal their class prototype, so
	// a nearest-prototype rule classifies perfectly — the class signal is
	// real, not an artifact.
	cfg := SyntheticConfig{Train: 50, Test: 50, Classes: 4, Channels: 1, Size: 8, Noise: 0, Shift: 0, Seed: 5}
	train, test := GenerateSynthetic(cfg)
	sz := 64
	for i := 0; i < test.Len(); i++ {
		ti := test.X.Data[i*sz : (i+1)*sz]
		// Find any train sample with the same label; must be identical.
		found := false
		for j := 0; j < train.Len(); j++ {
			if train.Labels[j] != test.Labels[i] {
				continue
			}
			tj := train.X.Data[j*sz : (j+1)*sz]
			same := true
			for k := range ti {
				if math.Abs(ti[k]-tj[k]) > 1e-12 {
					same = false
					break
				}
			}
			if same {
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("noiseless sample %d does not match its class prototype", i)
		}
	}
}

func TestShardSamplerDisjointAndComplete(t *testing.T) {
	// Shards must be disjoint and cover all indices when N divides world.
	s := func(rank int) ShardSampler { return ShardSampler{N: 12, Rank: rank, World: 3, Seed: 9} }
	seen := make(map[int]int)
	for r := 0; r < 3; r++ {
		idx := s(r).EpochIndices(0)
		if len(idx) != 4 {
			t.Fatalf("rank %d shard size %d, want 4", r, len(idx))
		}
		for _, i := range idx {
			seen[i]++
		}
	}
	if len(seen) != 12 {
		t.Errorf("shards cover %d of 12 indices", len(seen))
	}
	for i, c := range seen {
		if c != 1 {
			t.Errorf("index %d appears %d times", i, c)
		}
	}
}

func TestShardSamplerPadsUnevenN(t *testing.T) {
	// N=10, world=4: padded to 12 — every rank gets 3 indices.
	for r := 0; r < 4; r++ {
		idx := ShardSampler{N: 10, Rank: r, World: 4, Seed: 1}.EpochIndices(0)
		if len(idx) != 3 {
			t.Fatalf("rank %d shard size %d, want 3", r, len(idx))
		}
		for _, i := range idx {
			if i < 0 || i >= 10 {
				t.Fatalf("index %d out of range", i)
			}
		}
	}
}

func TestShardSamplerReshufflesPerEpoch(t *testing.T) {
	s := ShardSampler{N: 100, Rank: 0, World: 2, Seed: 4}
	a := s.EpochIndices(0)
	b := s.EpochIndices(1)
	same := true
	for i := range a {
		if a[i] != b[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("epochs should reshuffle")
	}
	// Same epoch twice: identical (all ranks agree on the permutation).
	c := s.EpochIndices(0)
	for i := range a {
		if a[i] != c[i] {
			t.Fatal("same epoch must be deterministic")
		}
	}
}

// Property: for any (N, world) the shards partition the padded index
// sequence: equal sizes, all indices valid.
func TestShardSamplerProperty(t *testing.T) {
	f := func(nRaw, worldRaw uint8, seed int64) bool {
		n := int(nRaw%200) + 1
		world := int(worldRaw%8) + 1
		want := (n + world - 1) / world
		for r := 0; r < world; r++ {
			idx := ShardSampler{N: n, Rank: r, World: world, Seed: seed}.EpochIndices(3)
			if len(idx) != want {
				return false
			}
			for _, i := range idx {
				if i < 0 || i >= n {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestBatchesShapesAndDropLast(t *testing.T) {
	cfg := SyntheticConfig{Train: 25, Test: 5, Classes: 3, Channels: 2, Size: 4, Seed: 6}
	train, _ := GenerateSynthetic(cfg)
	idx := ShardSampler{N: 25, Rank: 0, World: 1, Seed: 1}.EpochIndices(0)
	bs := Batches(train, idx, 8)
	if len(bs) != 3 { // 25/8 = 3 full batches, last partial dropped
		t.Fatalf("batches = %d, want 3", len(bs))
	}
	for _, b := range bs {
		if b.X.Shape[0] != 8 || len(b.Labels) != 8 {
			t.Fatalf("batch shape = %v labels = %d", b.X.Shape, len(b.Labels))
		}
	}
}

func TestBatchesContentMatchesDataset(t *testing.T) {
	cfg := SyntheticConfig{Train: 6, Test: 2, Classes: 2, Channels: 1, Size: 2, Seed: 8}
	train, _ := GenerateSynthetic(cfg)
	idx := []int{3, 1, 5, 0}
	bs := Batches(train, idx, 2)
	if len(bs) != 2 {
		t.Fatalf("batches = %d", len(bs))
	}
	if bs[0].Labels[0] != train.Labels[3] || bs[0].Labels[1] != train.Labels[1] {
		t.Error("batch labels out of order")
	}
	sz := 4
	for k := 0; k < sz; k++ {
		if bs[1].X.Data[k] != train.X.Data[5*sz+k] {
			t.Fatal("batch pixels do not match source example")
		}
	}
}

func TestBatchesInvalidSizePanics(t *testing.T) {
	cfg := SyntheticConfig{Train: 4, Test: 1, Classes: 2, Channels: 1, Size: 2, Seed: 1}
	train, _ := GenerateSynthetic(cfg)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Batches(train, []int{0, 1}, 0)
}

func TestGenerateSyntheticTooFewClassesPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	GenerateSynthetic(SyntheticConfig{Train: 1, Test: 1, Classes: 1, Channels: 1, Size: 2})
}

func TestPresetConfigs(t *testing.T) {
	c := CIFARLike(1)
	if c.Classes != 10 || c.Channels != 3 || c.Size < 16 {
		t.Errorf("CIFARLike = %+v", c)
	}
}

// hashChannelsFirst is FNV-1a over the bits of an [N, H, W, C] tensor's
// elements visited in [N, C, H, W] order: the hash a channels-first tensor
// of the same values has when read front to back.
func hashChannelsFirst(x *tensor.Tensor) uint64 {
	n, h, w, c := x.Shape[0], x.Shape[1], x.Shape[2], x.Shape[3]
	hash := fnv.New64a()
	var b [8]byte
	for i := 0; i < n; i++ {
		for ch := 0; ch < c; ch++ {
			for s := 0; s < h*w; s++ {
				binary.LittleEndian.PutUint64(b[:], math.Float64bits(x.Data[(i*h*w+s)*c+ch]))
				hash.Write(b[:])
			}
		}
	}
	return hash.Sum64()
}

// TestLayoutSameDatasetForSameSeed pins the pipeline to the values it
// produced while it was channels-first (recorded at 8c2b58a): the generator
// makes the same draws and stores them transposed, so a seed names the same
// dataset, bit for bit, in either layout.
func TestLayoutSameDatasetForSameSeed(t *testing.T) {
	cfg := SyntheticConfig{Train: 6, Test: 2, Classes: 3, Channels: 3, Size: 5, Noise: 0.7, Shift: 2, Seed: 17}
	train, test := GenerateSynthetic(cfg)
	if got, want := fmt.Sprint(train.Labels, test.Labels), "[1 0 2 0 0 0] [0 2]"; got != want {
		t.Errorf("labels %s, want %s", got, want)
	}
	// Element (4, 1, 3, 2) of the [6, 5, 5, 3] images.
	if got := train.X.Data[((4*5+1)*5+3)*3+2]; got != -0.80421066381641282 {
		t.Errorf("train image 4, channel 2, pixel (1, 3) = %.17g, want -0.80421066381641282", got)
	}
	wantHash := func(what string, x *tensor.Tensor, want uint64) {
		t.Helper()
		if got := hashChannelsFirst(x); got != want {
			t.Errorf("%s: channels-first hash %#x, want %#x", what, got, want)
		}
	}
	wantHash("train split", train.X, 0xfbd6bae6ff8b4d63)
	wantHash("test split", test.X, 0x69f9949e912e4376)
}
