package data

import (
	"math"
	"math/rand"

	"repro/internal/tensor"
)

// Standard CIFAR-style training augmentations: random crop with zero
// padding and random horizontal flip. The paper's training recipes use
// these on the real datasets; applying them to the synthetic stand-in
// preserves the pipeline structure (per-batch, training-split only).

// Augmenter applies randomized transforms to a batch in place.
type Augmenter struct {
	// Pad is the zero padding added before a random crop back to the
	// original size (CIFAR standard: 4).
	Pad int
	// FlipProb is the probability of a horizontal flip per image
	// (standard: 0.5).
	FlipProb float64
	rng      *rand.Rand
}

// NewAugmenter builds an augmenter with its own RNG stream.
func NewAugmenter(pad int, flipProb float64, seed int64) *Augmenter {
	return &Augmenter{Pad: pad, FlipProb: flipProb, rng: rand.New(rand.NewSource(seed))}
}

// Apply transforms every image in the batch in place.
func (a *Augmenter) Apply(b Batch) {
	n, h, w, c := b.X.Shape[0], b.X.Shape[1], b.X.Shape[2], b.X.Shape[3]
	sz := h * w * c
	for i := 0; i < n; i++ {
		img := tensor.FromSlice(b.X.Data[i*sz:(i+1)*sz], 1, h, w, c)
		if a.Pad > 0 {
			dy := a.rng.Intn(2*a.Pad+1) - a.Pad
			dx := a.rng.Intn(2*a.Pad+1) - a.Pad
			cropShift(img, dy, dx)
		}
		if a.FlipProb > 0 && a.rng.Float64() < a.FlipProb {
			flipHorizontal(img)
		}
	}
}

// cropShift emulates pad-then-random-crop as a shift with zero fill: the
// [1, H, W, C] image moves by (dy, dx) and exposed borders become zero. Each
// row keeps one contiguous run of pixels.
func cropShift(img *tensor.Tensor, dy, dx int) {
	h, w, c := img.Shape[1], img.Shape[2], img.Shape[3]
	src := append([]float64(nil), img.Data...)
	clear(img.Data)
	lo, hi := max(-dx, 0), min(w-dx, w) // destination columns with a source
	for y := max(-dy, 0); y < min(h-dy, h) && lo < hi; y++ {
		copy(img.Data[(y*w+lo)*c:(y*w+hi)*c], src[((y+dy)*w+lo+dx)*c:])
	}
}

// flipHorizontal mirrors each row of pixels.
func flipHorizontal(img *tensor.Tensor) {
	h, w, c := img.Shape[1], img.Shape[2], img.Shape[3]
	for y := 0; y < h; y++ {
		row := img.Data[y*w*c : (y+1)*w*c]
		for i, j := 0, w-1; i < j; i, j = i+1, j-1 {
			for ch := 0; ch < c; ch++ {
				row[i*c+ch], row[j*c+ch] = row[j*c+ch], row[i*c+ch]
			}
		}
	}
}

// Normalize standardizes a dataset in place to zero mean and unit variance
// per channel, computed over the given (training) split; returns the means
// and stds so the same statistics can normalize the test split — the
// standard train-statistics contract.
func Normalize(d *Dataset) (means, stds []float64) {
	c := d.X.Shape[3]
	pixels := d.X.Len() / c
	means = make([]float64, c)
	stds = make([]float64, c)
	for p := 0; p < pixels; p++ {
		for ch, v := range d.X.Data[p*c : (p+1)*c] {
			means[ch] += v
		}
	}
	for ch := range means {
		means[ch] /= float64(pixels)
	}
	for p := 0; p < pixels; p++ {
		for ch, v := range d.X.Data[p*c : (p+1)*c] {
			stds[ch] += (v - means[ch]) * (v - means[ch])
		}
	}
	for ch := range stds {
		if stds[ch] = sqrt(stds[ch] / float64(pixels)); stds[ch] == 0 {
			stds[ch] = 1
		}
	}
	ApplyNormalization(d, means, stds)
	return means, stds
}

// ApplyNormalization standardizes d with externally computed statistics.
func ApplyNormalization(d *Dataset, means, stds []float64) {
	c := d.X.Shape[3]
	for p := 0; p < d.X.Len()/c; p++ {
		px := d.X.Data[p*c : (p+1)*c]
		for ch, v := range px {
			px[ch] = (v - means[ch]) * (1 / stds[ch])
		}
	}
}

func sqrt(x float64) float64 {
	if x <= 0 {
		return 0
	}
	return math.Sqrt(x)
}
