package kfac

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"repro/internal/nn"
	"repro/internal/sched"
	"repro/internal/tensor"
)

// buildEarlyNet is a small convolutional net with the layer kinds of the
// benchmark's ResNets: bias-free convolutions, one of them strided, and a
// biased classifier.
func buildEarlyNet(seed int64) *nn.Sequential {
	rng := rand.New(rand.NewSource(seed))
	stem := nn.NewConv2D("conv0", 3, 8, 3, 1, 1, false, rng)
	stem.SkipInputGrad = true
	return nn.NewSequential("early",
		stem,
		nn.NewReLU("relu0"),
		nn.NewConv2D("conv1", 8, 12, 3, 2, 1, false, rng),
		nn.NewReLU("relu1"),
		nn.NewGlobalAvgPool("gap"),
		nn.NewLinear("fc", 12, 5, true, rng),
	)
}

// earlyBatch is step i's deterministic input and labels for buildEarlyNet.
func earlyBatch(i int) (*tensor.Tensor, []int) {
	rng := rand.New(rand.NewSource(int64(700 + i)))
	x := tensor.Randn(rng, 1, 6, 8, 8, 3)
	labels := make([]int, 6)
	for j := range labels {
		labels[j] = rng.Intn(5)
	}
	return x, labels
}

// waitEarly returns once p's runner has no task in flight, so every layer
// the hooks handed over has been preconditioned early. It sleeps between
// polls, which at GOMAXPROCS 1 is what lets the pool worker run.
func waitEarly(p *Preconditioner) {
	for {
		p.early.mu.Lock()
		active := p.early.active
		p.early.mu.Unlock()
		if !active {
			return
		}
		time.Sleep(20 * time.Microsecond)
	}
}

// handedOver counts p's layers the hooks have handed to the runner since
// the last Step.
func handedOver(p *Preconditioner) int {
	p.early.mu.Lock()
	defer p.early.mu.Unlock()
	n := 0
	for _, st := range p.early.state {
		if st != earlyIdle {
			n++
		}
	}
	return n
}

// unhook removes the gradient hooks, so Step starts every layer itself.
func unhook(net *nn.Sequential) {
	for _, l := range nn.CapturableLayers(net) {
		l.SetGradHook(nil)
	}
}

// earlyStep is one step of an early-start run and its reference: what the
// caller does between Backward and Step.
type earlyStep struct {
	wait       bool // let the runner finish before Step (else Step takes over at once)
	accumulate bool // a second forward and backward before Step, onto the same gradients
	scale      bool // the caller scales the classifier's gradient after Backward
	damping    bool // SetDamping between Backward and Step
	decompose  bool // SetInvUpdateFreq between Backward and Step makes the step decompose
}

// TestEarlyPreconditionMatchesStep: with the gradient hooks installed, N
// world-1 steps give the parameters and every pcBuf of the same steps with
// the hooks removed, bit for bit — whether Step adopts every layer, takes
// some back, or redoes one because its gradient or γ changed after the
// Backward, when a Backward runs twice before its Step, and when the step
// turns into a decomposition after its Backward. The hooks hand
// over nothing at step 0 or on a decomposition step, and every layer on the
// others. Eigen and inverse mode, float64 and float32, sync and pipelined
// engines.
func TestEarlyPreconditionMatchesStep(t *testing.T) {
	const steps = 14
	plan := func(i int) earlyStep {
		return earlyStep{wait: i%3 != 2, accumulate: i == 5 || i == 10, scale: i == 7, damping: i == 11,
			decompose: i == steps-1}
	}
	for _, c := range []struct {
		name string
		opts Options
	}{
		{"eigen", Options{}},
		{"inverse", Options{Mode: InverseMode}},
		{"f32", Options{Precision: F32}},
		{"pipelined", Options{Engine: EnginePipelined}},
		{"f32-pipelined", Options{Precision: F32, Engine: EnginePipelined}},
	} {
		t.Run(c.name, func(t *testing.T) {
			opts := c.opts
			opts.FactorUpdateFreq, opts.InvUpdateFreq, opts.Damping = 2, 4, 1e-2
			type run struct {
				net  *nn.Sequential
				prec *Preconditioner
			}
			mk := func(hooked bool) run {
				net := buildEarlyNet(90)
				nn.SetBufferReuse(net, true)
				nn.SetComputeF32(net, opts.Precision == F32)
				p := NewFromOptions(net, nil, opts)
				if !hooked {
					unhook(net)
				}
				return run{net, p}
			}
			runs := [2]run{mk(true), mk(false)}
			for _, r := range runs {
				defer r.prec.Close()
			}
			for i := 0; i < steps; i++ {
				sp := plan(i)
				for k, r := range runs {
					backward := func(batch int) {
						x, labels := earlyBatch(batch)
						_, grad := nn.CrossEntropy{}.Loss(r.net.Forward(x, true), labels)
						r.net.Backward(grad)
					}
					nn.ZeroGrads(r.net)
					backward(i)
					if sp.accumulate {
						if sp.wait && k == 0 {
							waitEarly(r.prec)
						}
						backward(i + 100)
					}
					if k == 0 {
						want := len(r.prec.states)
						if i%opts.InvUpdateFreq == 0 {
							want = 0
						}
						if got := handedOver(r.prec); got != want {
							t.Fatalf("step %d: the hooks handed over %d layers, want %d", i, got, want)
						}
						if sp.wait {
							waitEarly(r.prec)
						}
					}
					if sp.scale {
						fc := nn.CapturableLayers(r.net)[2]
						fc.Params()[0].Grad.Scale(3)
					}
					if sp.damping {
						r.prec.SetDamping(2e-2)
					}
					if sp.decompose {
						r.prec.SetInvUpdateFreq(i)
					}
					before := r.prec.early.adopted
					if err := r.prec.Step(0.1); err != nil {
						t.Fatalf("step %d: %v", i, err)
					}
					if k == 0 && sp.wait && i%opts.InvUpdateFreq != 0 {
						// Every layer finished early; Step adopts all but the
						// one whose gradient changed, none once γ changed.
						want := len(r.prec.states)
						if sp.scale {
							want--
						}
						if sp.damping || sp.decompose {
							want = 0
						}
						if got := r.prec.early.adopted - before; got != want {
							t.Fatalf("step %d: Step adopted %d early results, want %d", i, got, want)
						}
					}
				}
				for li, s := range runs[0].prec.states {
					if diff := firstBitDiff(s.pcBuf, runs[1].prec.states[li].pcBuf); diff != "" {
						t.Fatalf("step %d layer %d pcBuf: %s", i, li, diff)
					}
				}
				for pi, prm := range runs[0].net.Params() {
					if diff := firstBitDiff(prm.Grad, runs[1].net.Params()[pi].Grad); diff != "" {
						t.Fatalf("step %d %s: %s", i, prm.Name, diff)
					}
				}
			}
			if st := runs[1].prec.Stats().Snapshot(); st.PreconditionEarly != 0 {
				t.Errorf("unhooked run: PreconditionEarly = %v, want 0", st.PreconditionEarly)
			}
		})
	}
}

// firstBitDiff describes the first element where a and b differ in bits,
// or returns "" when they are identical.
func firstBitDiff(a, b *tensor.Tensor) string {
	if len(a.Data) != len(b.Data) {
		return fmt.Sprintf("lengths %d and %d", len(a.Data), len(b.Data))
	}
	for e := range a.Data {
		if math.Float64bits(a.Data[e]) != math.Float64bits(b.Data[e]) {
			return fmt.Sprintf("element %d: %v, want %v", e, a.Data[e], b.Data[e])
		}
	}
	return ""
}

// TestEarlyPreconditionDeclinesAtWorld2: at world > 1 the gradient exchange
// follows the backward, so no hook hands a layer over and nothing is
// preconditioned early, on stale steps included.
func TestEarlyPreconditionDeclinesAtWorld2(t *testing.T) {
	opts := Options{FactorUpdateFreq: 1 << 30, InvUpdateFreq: 1 << 30}
	inWorld(t, 2, opts, buildStagesNet, func(r int, net *nn.Sequential, p *Preconditioner) {
		for i := 0; i < 4; i++ {
			runStagesStep(net, int64(800+i))
			if n := handedOver(p); n != 0 {
				t.Errorf("rank %d step %d: the hooks handed over %d layers", r, i, n)
			}
			if err := p.Step(0.1); err != nil {
				t.Errorf("rank %d step %d: %v", r, i, err)
				return
			}
		}
		if st := p.Stats().Snapshot(); st.PreconditionEarly != 0 || p.early.adopted != 0 {
			t.Errorf("rank %d: %d layers preconditioned early in %v", r, p.early.adopted, st.PreconditionEarly)
		}
	})
}

// TestEarlyStaleStepZeroAllocs: a whole world-1 stale step — zeroing, the
// backward with its hooks handing every layer to the runner, the runner's
// batches, and Step adopting them — allocates nothing once the workspaces
// have settled.
func TestEarlyStaleStepZeroAllocs(t *testing.T) {
	for _, pr := range []Precision{F64, F32} {
		net := buildEarlyNet(91)
		nn.SetBufferReuse(net, true)
		nn.SetComputeF32(net, pr == F32)
		prec := NewFromOptions(net, nil, Options{Precision: pr, FactorUpdateFreq: 1 << 30, InvUpdateFreq: 1 << 30})
		x, labels := earlyBatch(0)
		_, grad := nn.CrossEntropy{}.Loss(net.Forward(x, true), labels)
		params := net.Params()
		step := func() {
			for _, p := range params {
				p.ZeroGrad()
			}
			net.Backward(grad)
			waitEarly(prec)
			if err := prec.Step(0.1); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < 3; i++ {
			step()
		}
		before := prec.early.adopted
		if a := testing.AllocsPerRun(50, step); a != 0 {
			t.Errorf("%v: a stale step with early preconditioning allocated %.1f times per run, want 0", pr, a)
		}
		if want := 51 * len(prec.states); prec.early.adopted-before != want {
			t.Errorf("%v: Step adopted %d early results, want %d", pr, prec.early.adopted-before, want)
		}
		prec.Close()
	}
}

// TestEarlyCloseLeavesNoGoroutine: the runner holds no goroutine of its
// own, so once Close returns the goroutine count is back where it was
// before the preconditioner existed, under both engines; and Close removes
// the hooks, so a later backward hands nothing over.
func TestEarlyCloseLeavesNoGoroutine(t *testing.T) {
	sched.Shared() // its workers are the process's, not a preconditioner's
	for _, e := range []Engine{EngineSync, EnginePipelined} {
		base := runtime.NumGoroutine()
		net := buildEarlyNet(92)
		prec := NewFromOptions(net, nil, Options{Engine: e, FactorUpdateFreq: 2, InvUpdateFreq: 1 << 30})
		x, labels := earlyBatch(1)
		backward := func() {
			_, grad := nn.CrossEntropy{}.Loss(net.Forward(x, true), labels)
			nn.ZeroGrads(net)
			net.Backward(grad)
		}
		for i := 0; i < 4; i++ {
			backward()
			if err := prec.Step(0.1); err != nil {
				t.Fatal(err)
			}
		}
		backward() // Close with layers handed over
		prec.Close()
		if n := handedOver(prec); n != 0 {
			t.Errorf("%v: %d layers still handed over after Close", e, n)
		}
		backward()
		if n := handedOver(prec); n != 0 {
			t.Errorf("%v: a backward after Close handed over %d layers", e, n)
		}
		deadline := time.Now().Add(5 * time.Second)
		for runtime.NumGoroutine() > base && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
		if n := runtime.NumGoroutine(); n > base {
			t.Errorf("%v: %d goroutines after Close, %d before the preconditioner", e, n, base)
		}
		if err := prec.Step(0.1); err != nil { // still usable, every layer inside Step
			t.Errorf("%v: Step after Close: %v", e, err)
		}
		prec.Close()
	}
}
