package kfac

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"repro/internal/comm"
	"repro/internal/nn"
	"repro/internal/tensor"
)

// buildStagesNet returns three Linear layers whose rotation products add up
// to more than the GEMM's fan-out threshold, so the grouped stages run on
// the pooled grid, plus a tiny one that shares it.
func buildStagesNet(seed int64) *nn.Sequential {
	rng := rand.New(rand.NewSource(seed))
	return nn.NewSequential("stages",
		nn.NewLinear("fc0", 96, 64, true, rng),
		nn.NewReLU("relu0"),
		nn.NewLinear("fc1", 64, 48, true, rng),
		nn.NewReLU("relu1"),
		nn.NewLinear("fc2", 48, 10, true, rng),
		nn.NewReLU("relu2"),
		nn.NewLinear("fc3", 10, 4, true, rng),
	)
}

// runStagesStep performs one forward/backward of buildStagesNet on
// deterministic data.
func runStagesStep(net *nn.Sequential, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	const batch = 6
	x := tensor.Randn(rng, 1, batch, 96)
	labels := make([]int, batch)
	for i := range labels {
		labels[i] = rng.Intn(4)
	}
	out := net.Forward(x, true)
	_, grad := nn.CrossEntropy{}.Loss(out, labels)
	nn.ZeroGrads(net)
	net.Backward(grad)
}

// inWorld runs fn on every rank of an in-process world of the given size,
// each rank with its own net (built by build from one seed, so every rank
// holds the same model) and preconditioner.
func inWorld(t *testing.T, world int, opts Options, build func(int64) *nn.Sequential, fn func(r int, net *nn.Sequential, p *Preconditioner)) {
	t.Helper()
	fab := comm.NewInprocFabric(world)
	var wg sync.WaitGroup
	for r := 0; r < world; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			net := build(42)
			p := NewFromOptions(net, comm.NewCommunicator(fab.Endpoint(r)), opts)
			defer p.Close()
			fn(r, net, p)
		}(r)
	}
	wg.Wait()
}

// stagesWorlds are the plans the grouped stages are checked under: one
// rank, and three ranks where each computes only its gradient-worker layers.
var stagesWorlds = []struct {
	name  string
	world int
	mode  DistMode
	frac  float64
}{
	{"world1", 1, CommOpt, 0},
	{"world3-MEM-OPT", 3, MemOpt, 0},
	{"world3-HYBRID", 3, Hybrid, 0.5},
}

// TestGroupedStagesMatchPreconditionOne: the step's grouped stages — every
// product of one step over all of the rank's gradient-worker layers on one
// pooled grid, the element-wise passes pooled over layers — give every
// layer exactly the bits of preconditionOne, the same stages over that layer
// alone. Eigen and inverse, at F64 and F32, on one rank and on
// every rank of a world-3 MEM-OPT and HYBRID plan.
func TestGroupedStagesMatchPreconditionOne(t *testing.T) {
	for _, w := range stagesWorlds {
		for _, mc := range []struct {
			name string
			opts Options
		}{
			{"eigen", Options{Mode: EigenMode}},
			{"inverse", Options{Mode: InverseMode}},
		} {
			for _, pr := range []Precision{F64, F32} {
				opts := mc.opts
				opts.Precision, opts.DistMode, opts.GradWorkerFrac = pr, w.mode, w.frac
				opts.Damping, opts.FactorUpdateFreq, opts.InvUpdateFreq = 1e-2, 1<<30, 1<<30
				label := fmt.Sprintf("%s %s %v", w.name, mc.name, pr)
				inWorld(t, w.world, opts, buildStagesNet, func(r int, net *nn.Sequential, p *Preconditioner) {
					for i := 0; i < 2; i++ { // step 0 decomposes; step 1 is stale
						runStagesStep(net, int64(500+i))
						if err := p.Step(0.1); err != nil {
							t.Errorf("%s rank %d: %v", label, r, err)
							return
						}
					}
					grads := make([]*tensor.Tensor, len(p.states))
					for i, s := range p.states {
						grads[i] = combinedGradOf(s.layer)
					}
					p.pcStages.run(grads, p.opts.Damping)
					computed := 0
					grouped := make([]*tensor.Tensor, len(p.states))
					for i, s := range p.states {
						if p.plan.IsGradWorker(i, r) {
							grouped[i] = s.pcBuf.Clone()
							computed++
						}
					}
					if computed == 0 {
						t.Errorf("%s rank %d: no gradient-worker layer to compare", label, r)
					}
					for i, s := range p.states {
						if grouped[i] == nil {
							continue
						}
						one := preconditionOne(s, grads[i])
						for e := range one.Data {
							if math.Float64bits(one.Data[e]) != math.Float64bits(grouped[i].Data[e]) {
								t.Errorf("%s rank %d layer %d element %d: grouped %v, alone %v",
									label, r, i, e, grouped[i].Data[e], one.Data[e])
								break
							}
						}
					}
				})
			}
		}
	}
}

// TestStepNonFiniteGradientFails: a NaN or +Inf in one layer's gradient
// makes every rank's Step fail with an error naming that layer, before
// anything is written back — every Param.Grad keeps its raw gradient — on
// one rank and on every rank of a world-3 MEM-OPT plan, where the layer's
// non-finite result reaches most ranks through the result broadcast.
func TestStepNonFiniteGradientFails(t *testing.T) {
	const badLayer = 2 // fc2 of buildStagesNet
	for _, w := range stagesWorlds[:2] {
		for _, bad := range []float64{math.NaN(), math.Inf(1)} {
			label := fmt.Sprintf("%s %v", w.name, bad)
			opts := Options{DistMode: w.mode, FactorUpdateFreq: 1 << 30, InvUpdateFreq: 1 << 30}
			inWorld(t, w.world, opts, buildStagesNet, func(r int, net *nn.Sequential, p *Preconditioner) {
				runStagesStep(net, 600)
				if err := p.Step(0.1); err != nil { // the update step, finite
					t.Errorf("%s rank %d: %v", label, r, err)
					return
				}
				runStagesStep(net, 601)
				layer := nn.CapturableLayers(net)[badLayer]
				layer.Params()[0].Grad.Data[3] = bad
				var raw []*tensor.Tensor
				for _, prm := range net.Params() {
					raw = append(raw, prm.Grad.Clone())
				}
				err := p.Step(0.1)
				if err == nil {
					t.Errorf("%s rank %d: Step accepted a non-finite gradient", label, r)
					return
				}
				if want := fmt.Sprintf("layer %d (%s)", badLayer, layer.Name()); !strings.Contains(err.Error(), want) {
					t.Errorf("%s rank %d: error %q does not name %s", label, r, err, want)
				}
				for k, prm := range net.Params() {
					for e, v := range prm.Grad.Data {
						if math.Float64bits(v) != math.Float64bits(raw[k].Data[e]) {
							t.Errorf("%s rank %d: %s.Grad[%d] = %v, want the raw %v", label, r, prm.Name, e, v, raw[k].Data[e])
							return
						}
					}
				}
			})
		}
	}
}
