package experiments

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"sync"

	"repro/internal/comm"
	"repro/internal/data"
	"repro/internal/models"
	"repro/internal/nn"
	"repro/internal/optim"
	"repro/internal/simulate"
)

func init() {
	register(Experiment{
		ID:    "memory",
		Title: "Per-GPU memory footprint of K-FAC state across models",
		Paper: "§VI-C4 limitations: K-FAC replicates all factors and eigenvectors on every worker; for deep models this state rivals the model itself",
		Run:   runMemory,
	})
	register(Experiment{
		ID:    "ablation-compression",
		Title: "Ablation: gradient compression for the exchange step (paper future work)",
		Paper: "§VII: 'design and evaluate solutions to ... reduce communication quantity'",
		Run:   runAblationCompression,
	})
}

func runMemory(ctx context.Context, w io.Writer, cfg Config) error {
	e, _ := ByID("memory")
	header(w, e)
	fmt.Fprintf(w, "%-12s  %10s  %10s  %10s  %10s  %10s  %10s\n",
		"model", "weights", "grads+mom", "factors", "eigvecs", "activ.", "total")
	for _, name := range []string{"resnet32", "resnet50", "resnet101", "resnet152"} {
		cat, err := models.CatalogByName(name)
		if err != nil {
			return err
		}
		mb := simulate.MemoryModel(cat, 32, 4)
		toMB := func(b float64) string { return fmt.Sprintf("%8.0fMB", b/1e6) }
		fmt.Fprintf(w, "%-12s  %s  %s  %s  %s  %s  %s\n",
			name, toMB(mb.Weights), toMB(mb.Gradients+mb.Momentum), toMB(mb.Factors),
			toMB(mb.EigVectors), toMB(mb.Activations), toMB(mb.Total()))
	}
	fmt.Fprintln(w, "shape check: K-FAC state (factors+eigvecs) exceeds model weights; grows with depth")
	return nil
}

// runAblationCompression trains the same model over 2 in-process ranks
// three ways — exact fused allreduce, float16-quantized exchange, and top-10%
// sparsified exchange with error feedback — and reports final loss and
// bytes moved per iteration.
func runAblationCompression(ctx context.Context, w io.Writer, cfg Config) error {
	e, _ := ByID("ablation-compression")
	header(w, e)
	dcfg := data.CIFARLike(cfg.Seed)
	dcfg.Train, dcfg.Test, dcfg.Size, dcfg.Noise = 256, 64, 16, 1.0
	train, _ := data.GenerateSynthetic(dcfg)
	iters := 40
	if cfg.Quick {
		iters = 10
	}

	type variant struct {
		name  string
		codec comm.Codec // nil = exact
	}
	variants := []variant{
		{"exact (fp64)", nil},
		{"float16", comm.Float16Codec{}},
		{"top-10% + error feedback", comm.TopKCodec{FractionK: 0.10}},
	}
	fmt.Fprintf(w, "%-26s  %-12s  %-14s  %-12s\n", "exchange", "final loss", "words/iter", "vs exact")
	var exactWords int
	for _, v := range variants {
		loss, words, err := runCompressedTraining(train, v.codec, iters, cfg.Seed)
		if err != nil {
			return err
		}
		if v.codec == nil {
			exactWords = words
		}
		ratio := float64(words) / float64(exactWords)
		fmt.Fprintf(w, "%-26s  %12.4f  %14d  %11.2fx\n", v.name, loss, words, ratio)
	}
	fmt.Fprintln(w, "shape check: compressed variants train comparably with a fraction of the volume")
	return nil
}

// runCompressedTraining runs a bare 2-rank data-parallel loop whose
// gradient exchange is one fused allreduce (comm.NewFuser), compressed with
// error feedback when codec is non-nil, and returns the final mean loss and
// the per-iteration exchange volume in float64 words per rank.
func runCompressedTraining(train *data.Dataset, codec comm.Codec, iters int, seed int64) (float64, int, error) {
	const world = 2
	fab := comm.NewInprocFabric(world)
	var wg sync.WaitGroup
	errs := make([]error, world)
	losses := make([]float64, world)
	words := make([]int, world)
	for r := 0; r < world; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(77))
			net := models.BuildSmallCNN(3, 10, 4, rng)
			c := comm.NewCommunicator(fab.Endpoint(r))
			params := net.Params()
			opt := optim.SGD(params, optim.WithLR(0.05), optim.WithMomentum(0.9))
			ce := nn.CrossEntropy{}
			sampler := data.ShardSampler{N: train.Len(), Rank: r, World: world, Seed: seed}
			batches := data.Batches(train, sampler.EpochIndices(0), 16)
			// The residuals outlive each step's fuser (one slot per chunk).
			var ef *comm.ErrorFeedback
			if codec != nil {
				ef = comm.NewErrorFeedback(codec)
			}
			var lastLoss float64
			for it := 0; it < iters; it++ {
				b := batches[it%len(batches)]
				out := net.Forward(b.X, true)
				loss, grad := ce.Loss(out, b.Labels)
				lastLoss = loss
				nn.ZeroGrads(net)
				net.Backward(grad)
				fu := comm.NewFuser(c, 0)
				fu.SetErrorFeedback(ef)
				for _, p := range params {
					fu.Add(p.Grad)
				}
				for _, ch := range fu.FlushAsync() {
					if err := ch.Wait(); err != nil {
						errs[r] = err
						return
					}
					if it == 0 {
						words[r] += chunkWords(ch, codec)
					}
				}
				opt.Step()
			}
			losses[r] = lastLoss
		}(r)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return 0, 0, err
		}
	}
	return (losses[0] + losses[1]) / 2, words[0], nil
}

// chunkWords returns the float64 words one rank sends for a fused chunk:
// its packed length, or the codec's payload for that length.
func chunkWords(ch *comm.Chunk, codec comm.Codec) int {
	n := 0
	for _, t := range ch.Tensors() {
		n += t.Len()
	}
	if codec != nil {
		n = codec.CompressedLen(n)
	}
	return n
}
