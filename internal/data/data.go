// Package data provides the dataset substrate. The paper trains on CIFAR-10
// and ImageNet-1k; neither is redistributable or downloadable here, so this
// package generates class-structured synthetic image datasets with the same
// tensor shapes: each class has a random smooth prototype image, samples
// are prototypes plus structured noise and random circular shifts. The
// resulting task is learnable but not trivially linearly separable, which
// is what the correctness experiments need — an optimizer that exploits
// curvature converges in fewer iterations.
//
// The package also provides the data-parallel sharding sampler that mirrors
// PyTorch's DistributedSampler: each rank iterates a disjoint shard, and a
// per-epoch seed reshuffles globally.
package data

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/tensor"
)

// Dataset is an in-memory labeled image dataset.
type Dataset struct {
	// X holds images channels-last, as [N, H, W, C] — the layout every layer
	// of internal/nn computes in, so a batch enters the network as it is.
	X *tensor.Tensor
	// Labels holds the class index of each image.
	Labels []int
	// Classes is the number of distinct labels.
	Classes int
}

// Len returns the number of examples.
func (d *Dataset) Len() int { return len(d.Labels) }

// SyntheticConfig parameterizes GenerateSynthetic.
type SyntheticConfig struct {
	Train, Test    int // number of examples in each split
	Classes        int
	Channels, Size int     // image geometry (Size × Size)
	Noise          float64 // additive Gaussian noise std
	Shift          int     // max circular shift in pixels (augmentation-like variation)
	Seed           int64
}

// CIFARLike returns the configuration for the CIFAR-10 stand-in used by the
// correctness experiments: 10 classes of 3-channel images, scaled down in
// pixel count and cardinality to keep pure-Go training tractable, with
// enough noise and shift that several epochs are needed to converge.
func CIFARLike(seed int64) SyntheticConfig {
	return SyntheticConfig{
		Train: 1024, Test: 384, Classes: 10,
		Channels: 3, Size: 24, Noise: 2.4, Shift: 7, Seed: seed,
	}
}

// GenerateSynthetic builds train and test splits from per-class smooth
// prototypes. Both splits draw from the identical distribution, so test
// accuracy measures generalization over noise and shifts rather than
// memorization.
func GenerateSynthetic(cfg SyntheticConfig) (train, test *Dataset) {
	if cfg.Classes < 2 {
		panic(fmt.Sprintf("data: need ≥2 classes, got %d", cfg.Classes))
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	protos := make([]*tensor.Tensor, cfg.Classes)
	for k := range protos {
		protos[k] = smoothPrototype(rng, cfg.Channels, cfg.Size)
	}
	gen := func(n int) *Dataset {
		d := &Dataset{
			X:       tensor.New(n, cfg.Size, cfg.Size, cfg.Channels),
			Labels:  make([]int, n),
			Classes: cfg.Classes,
		}
		sz := cfg.Channels * cfg.Size * cfg.Size
		for i := 0; i < n; i++ {
			k := rng.Intn(cfg.Classes)
			d.Labels[i] = k
			dy, dx := 0, 0
			if cfg.Shift > 0 {
				dy = rng.Intn(2*cfg.Shift+1) - cfg.Shift
				dx = rng.Intn(2*cfg.Shift+1) - cfg.Shift
			}
			writeShifted(d.X.Data[i*sz:(i+1)*sz], protos[k], cfg.Channels, cfg.Size, dy, dx, rng, cfg.Noise)
		}
		return d
	}
	return gen(cfg.Train), gen(cfg.Test)
}

// smoothPrototype returns a low-frequency random image as [C, size, size]
// planes: a sum of a few random 2-D cosine modes per channel, normalized to
// unit std. Low-frequency structure survives shifts and noise, giving each
// class a stable signature. A prototype is generated plane by plane and only
// read by writeShifted, which interleaves it into the dataset's layout.
func smoothPrototype(rng *rand.Rand, channels, size int) *tensor.Tensor {
	p := tensor.New(channels, size, size)
	const modes = 4
	for c := 0; c < channels; c++ {
		for m := 0; m < modes; m++ {
			fy := float64(rng.Intn(3) + 1)
			fx := float64(rng.Intn(3) + 1)
			phy := rng.Float64() * 6.283185307
			phx := rng.Float64() * 6.283185307
			amp := 0.5 + rng.Float64()
			for y := 0; y < size; y++ {
				for x := 0; x < size; x++ {
					v := amp * cosApprox(fy*float64(y)/float64(size)*6.283185307+phy) *
						cosApprox(fx*float64(x)/float64(size)*6.283185307+phx)
					p.Data[(c*size+y)*size+x] += v
				}
			}
		}
	}
	// Normalize to zero mean, unit std.
	mean := p.Mean()
	for i := range p.Data {
		p.Data[i] -= mean
	}
	std := p.Norm2() / sqrtLen(p.Len())
	if std > 0 {
		p.Scale(1 / std)
	}
	return p
}

// writeShifted writes proto, circularly shifted by (dy, dx) and with
// N(0, noise²) noise added, into the [size, size, channels] image dst. The
// noise is drawn plane by plane — (c, y, x) order — so a seed gives the same
// pixel values whichever layout stores them.
func writeShifted(dst []float64, proto *tensor.Tensor, channels, size, dy, dx int, rng *rand.Rand, noise float64) {
	for c := 0; c < channels; c++ {
		for y := 0; y < size; y++ {
			sy := ((y+dy)%size + size) % size
			for x := 0; x < size; x++ {
				sx := ((x+dx)%size + size) % size
				dst[(y*size+x)*channels+c] = proto.Data[(c*size+sy)*size+sx] + rng.NormFloat64()*noise
			}
		}
	}
}

// Batch is one mini-batch of images and labels.
type Batch struct {
	X      *tensor.Tensor // [B, H, W, C]
	Labels []int
}

// ShardSampler yields the indices a rank iterates in one epoch, mirroring
// a distributed sampler: a global permutation seeded by (seed, epoch) is
// computed identically on every rank, padded to a multiple of world size,
// and strided by rank so shards are disjoint and equal-sized.
type ShardSampler struct {
	N     int
	Rank  int
	World int
	Seed  int64
}

// EpochIndices returns this rank's example indices for the given epoch.
func (s ShardSampler) EpochIndices(epoch int) []int {
	perm := rand.New(rand.NewSource(s.Seed + int64(epoch)*1_000_003)).Perm(s.N)
	// Pad to a multiple of the world size by wrapping (the distributed
	// sampler convention) so all ranks step the same number of batches.
	total := ((s.N + s.World - 1) / s.World) * s.World
	out := make([]int, 0, total/s.World)
	for i := s.Rank; i < total; i += s.World {
		out = append(out, perm[i%s.N])
	}
	return out
}

// Batches slices a dataset into mini-batches following idx order. The final
// partial batch is dropped when fewer than batchSize examples remain,
// matching the constant-batch-shape convention of synchronous SGD.
func Batches(d *Dataset, idx []int, batchSize int) []Batch {
	if batchSize < 1 {
		panic("data: batchSize must be ≥ 1")
	}
	h, w, c := d.X.Shape[1], d.X.Shape[2], d.X.Shape[3]
	sz := h * w * c
	var out []Batch
	for start := 0; start+batchSize <= len(idx); start += batchSize {
		b := Batch{
			X:      tensor.New(batchSize, h, w, c),
			Labels: make([]int, batchSize),
		}
		for j := 0; j < batchSize; j++ {
			src := idx[start+j]
			copy(b.X.Data[j*sz:(j+1)*sz], d.X.Data[src*sz:(src+1)*sz])
			b.Labels[j] = d.Labels[src]
		}
		out = append(out, b)
	}
	return out
}

func cosApprox(x float64) float64 { return math.Cos(x) }

func sqrtLen(n int) float64 { return math.Sqrt(float64(n)) }
