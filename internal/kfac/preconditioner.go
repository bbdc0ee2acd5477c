package kfac

import (
	"fmt"
	"math"
	"runtime"
	"time"

	"repro/internal/comm"
	"repro/internal/linalg"
	"repro/internal/nn"
	"repro/internal/sched"
	"repro/internal/tensor"
)

// Mode selects how the damping γ enters the preconditioner. Both modes
// precondition from the same eigendecompositions of A and G (Equations
// 13–15) and differ only in Equation 14's denominator.
type Mode int

const (
	// EigenMode damps the Kronecker product, (G⊗A + γI)⁻¹: the denominator
	// is υ_G υ_Aᵀ + γ. The paper's default, chosen in §IV-A because it
	// preserves convergence at large batch sizes.
	EigenMode Mode = iota
	// InverseMode damps each factor, (G+γI)⁻¹∇L(A+γI)⁻¹ (Equation 11, the
	// factored Tikhonov damping of Martens & Grosse, 2015): the denominator
	// is (υ_G + γ)(υ_A + γ)ᵀ. Since (A+γI)⁻¹ = Q_A diag(1/(υ_A+γ)) Q_Aᵀ,
	// this is the explicit damped inverses' preconditioner computed from
	// the eigenbases — kept for the Table I ablation.
	InverseMode
)

// String names the mode as in Table I.
func (m Mode) String() string {
	if m == InverseMode {
		return "K-FAC w/ Inverse"
	}
	return "K-FAC w/ Eigen-decomp."
}

// layerState carries the per-layer K-FAC quantities.
type layerState struct {
	layer nn.KFACCapturable
	// Running-average Kronecker factors (Equations 16–17).
	A, G *tensor.Tensor
	// Eigen decompositions, refreshed in place: the solver writes one only
	// on success, so a failed solve leaves the last good decomposition for
	// the stale path to keep preconditioning with.
	eigA, eigG *linalg.Eigen
	// Owner ranks for the A and G factors, mirrored from the active Plan
	// (equal under LayerWise).
	aWorker, gWorker int
	// Plan-scoped sub-communicators, built by replan; nil when the run is
	// single-process. They carry a factor's decomposition from its owner to
	// its recipients: the layer's gradient workers (everyone under a fully
	// replicated plan) plus the owner.
	aRecvGroup, gRecvGroup *comm.Group
	// Reused workspaces. Together with those of k they make the
	// steady-state Step path — combined gradient, preconditioning products,
	// KL clip — allocation-free; see TestKFACStepSteadyStateZeroAllocs.
	// gradBuf is the combined gradient [dg, da] of a layer with a bias; a
	// bias-free layer's is its weight gradient itself (combinedGrad), and
	// gradBuf stays nil.
	gradBuf *tensor.Tensor
	// pcBuf is the preconditioned gradient [dg, da]. Under a partial plan it
	// is a view into its broadcast bucket's backing (see pcBucket).
	pcBuf *tensor.Tensor
	// dot is pcBuf·grad, the layer's term of the KL clip (applyKLClip), set
	// by the stages beside the precondition or, for a layer whose result
	// arrives by broadcast, once it lands.
	dot float64

	// k holds the layer's state and stage bodies at the compute element
	// type (kernels.go).
	k layerKernels
}

// factorSide addresses one factor's slots of a layerState, so every stage
// body is written once for A and G. The slots are pointers: a side may be
// taken before the layer's factor exists, and a layer's two sides are
// worked on by concurrent goroutines that must each touch only their own.
type factorSide struct {
	factor **tensor.Tensor // running average
	eig    **linalg.Eigen
	owner  int
	recv   *comm.Group
}

// side selects the layer's A (isG false) or G factor.
func (s *layerState) side(isG bool) factorSide {
	if isG {
		return factorSide{&s.G, &s.eigG, s.gWorker, s.gRecvGroup}
	}
	return factorSide{&s.A, &s.eigA, s.aWorker, s.aRecvGroup}
}

// pcBucket is one per-iteration preconditioned-gradient broadcast of a
// partial plan: the layers that share a designated root (and with it the
// broadcast member set), whose pcBufs are consecutive views of one
// contiguous backing, so the root's results for all of them travel as a
// single message with no pack or unpack copy.
type pcBucket struct {
	root    int
	group   *comm.Group
	layers  []int     // ascending
	backing []float64 // Σ dg·da over layers, in layer order
}

// Preconditioner is the distributed K-FAC gradient preconditioner
// (Algorithm 1). Create it once over a model; call Step after the backward
// pass and gradient allreduce of each iteration, before the optimizer step,
// exactly as in the paper's Listing 1.
type Preconditioner struct {
	comm   *comm.Communicator // nil means single-process
	opts   Options
	states []*layerState
	plan   *Plan // resolved distribution plan (built by replan)
	step   int
	stats  StageStats
	pool   *sched.Pool // lazily created by the pipelined engine
	// covSlots is the free list of covariance slots, one per executor lane
	// (executorWidth), each of the largest factor's n² floats, allocated at
	// construction: a factor update forms each Gram product in a slot it
	// checks out and folds it into the running average, so no layer holds
	// covariance scratch between updates. The buffer holds every slot, so a
	// return never blocks; covSlotElems is their total length.
	covSlots     chan *tensor.Tensor
	covSlotElems int64
	// eigSlots is the latest decomposition update's slot semaphore, kept so
	// tests can replay its grant history.
	eigSlots *eigSlots
	// power is the tier of the latest decomposition update (see
	// maxBasisAge), fullAt the step of the latest full-solve update, and
	// exact forces every update onto the full solve (ExactRefresh).
	power  bool
	fullAt int
	exact  bool

	// dec is the configuration in force (see Decision), stored only by
	// replan and autotune; factorEF persists factor-path compression
	// residuals across steps; tuner is the autotune controller state (nil
	// when disabled).
	dec      Decision
	factorEF *comm.ErrorFeedback
	tuner    *tuner

	// pcBuckets lists the per-iteration result broadcasts in issue order
	// (first-layer order), built by replan; empty when the plan is fully
	// replicated or the run is single-process. pcBacking is the storage the
	// buckets partition: Σ dg·da elements, allocated once.
	pcBuckets []pcBucket
	pcBacking []float64

	// pcStages preconditions the layers this rank is a gradient worker of
	// (all of them under a fully replicated plan), built by replan;
	// gradsBuf and pcHandles are reused per-step slices; remote lists the
	// layers whose results arrive by broadcast.
	pcStages  precondStages
	gradsBuf  []*tensor.Tensor
	pcHandles []*comm.Handle
	remote    []int

	// early starts the precondition stage beside the backward (early.go);
	// its stages exist only at world 1.
	early earlyRun
}

// NewFromOptions builds a preconditioner over every K-FAC-capturable layer
// of model (Linear and Conv2D; all other layers are left to the wrapped
// optimizer). Zero-valued fields of opts select the paper defaults; callers
// that take opts from text check them with Options.Validate first. c may be
// nil for single-process training.
func NewFromOptions(model nn.Layer, c *comm.Communicator, opts Options) *Preconditioner {
	opts.fillDefaults()
	p := &Preconditioner{comm: c, opts: opts, factorEF: comm.NewErrorFeedback(nil)}
	if opts.Autotune != nil {
		p.tuner = newTuner(*opts.Autotune)
	}
	nn.SetCapture(model, true)
	for _, l := range nn.CapturableLayers(model) {
		s := &layerState{layer: l}
		s.k = newKernels(opts.Precision, p, s)
		p.states = append(p.states, s)
	}
	maxDim := 0
	for _, s := range p.states {
		da, dg := FactorDims(s.layer)
		maxDim = max(maxDim, da, dg)
	}
	lanes := executorWidth(opts.Engine)
	p.covSlots = make(chan *tensor.Tensor, lanes)
	for range lanes {
		p.covSlots <- tensor.New(maxDim, maxDim)
	}
	p.covSlotElems = int64(lanes) * int64(maxDim) * int64(maxDim)
	p.replan()
	p.hookGrads()
	return p
}

// size returns the world size (1 when running without a communicator).
func (p *Preconditioner) size() int {
	if p.comm == nil {
		return 1
	}
	return p.comm.Size()
}

// rank returns the local rank (0 when running without a communicator).
func (p *Preconditioner) rank() int {
	if p.comm == nil {
		return 0
	}
	return p.comm.Rank()
}

// replan resolves the static Decision — it runs once, at construction,
// before any autotune level is in force — builds the distribution Plan for
// it at the current world, and mirrors the plan into the per-layer state:
// owner ranks plus the plan-scoped sub-communicator groups partial plans
// need. Every rank computes the identical plan from shared state, so no
// communication is needed (Algorithm 1, line 9).
func (p *Preconditioner) replan() {
	p.dec = resolve(p.opts, nil)
	p.plan = BuildPlan(p.opts.Strategy, p.dec.Mode, p.dec.GradWorkerFrac,
		p.FactorRefs(), p.size())
	distributed := p.comm != nil && p.comm.Size() > 1
	for i, s := range p.states {
		lp := &p.plan.Layers[i]
		s.aWorker, s.gWorker = lp.AOwner, lp.GOwner
		if distributed {
			s.aRecvGroup = p.comm.Group(p.plan.Recipients(i, false))
			s.gRecvGroup = p.comm.Group(p.plan.Recipients(i, true))
		}
	}
	if distributed && !p.plan.FullyReplicated() {
		p.buildBuckets()
	}
	var mine []int
	for i := range p.states {
		if p.plan.IsGradWorker(i, p.rank()) {
			mine = append(mine, i)
		} else {
			p.remote = append(p.remote, i)
		}
	}
	p.pcStages = newPrecondStages(p, mine, false)
	var early precondStages
	if p.size() == 1 {
		early = newPrecondStages(p, mine, true)
	}
	p.early.init(p, len(p.states), early)
	p.stats.noteFactorMem(p.factorMemBytes())
}

// buildBuckets turns the plan's result buckets (Plan.ResultBuckets) into
// the per-iteration broadcasts and carves every layer's pcBuf as a view of
// its bucket's stretch of pcBacking. The views are capacity-limited, so
// tensor.Ensure keeps reusing them; they are the same Σ dg·da elements the
// per-layer buffers would occupy, so buckets cost no resident memory. A pure
// function of the shared plan: every rank builds the identical list.
func (p *Preconditioner) buildBuckets() {
	total := 0
	for _, s := range p.states {
		da, dg := FactorDims(s.layer)
		total += dg * da
	}
	p.pcBacking = make([]float64, total)
	rest := p.pcBacking
	for _, layers := range p.plan.ResultBuckets() {
		n := 0
		for _, i := range layers {
			da, dg := FactorDims(p.states[i].layer)
			p.states[i].pcBuf = tensor.FromSlice(rest[n:n+dg*da:n+dg*da], dg, da)
			n += dg * da
		}
		lp := &p.plan.Layers[layers[0]]
		p.pcBuckets = append(p.pcBuckets, pcBucket{root: lp.GOwner,
			group: p.comm.Group(lp.BcastMembers), layers: layers, backing: rest[:n:n]})
		rest = rest[n:]
	}
}

// factorMemBytes measures this rank's currently resident K-FAC factor
// state in bytes: every buffer the preconditioner holds — running
// averages, the covariance slots at their full length, preconditioning
// workspaces, and whatever decompositions the plan placed here. Its
// decompositions are exactly Plan.DecompElemsPerRank's; it feeds the
// StageStats.PeakFactorBytes high-water mark.
func (p *Preconditioner) factorMemBytes() int64 {
	elems := p.covSlotElems
	tlen := func(t *tensor.Tensor) int64 {
		if t == nil {
			return 0
		}
		return int64(t.Len())
	}
	eglen := func(e *linalg.Eigen) int64 {
		if e == nil {
			return 0
		}
		return tlen(e.Q) + int64(len(e.Values))
	}
	var atE int64
	for _, s := range p.states {
		elems += tlen(s.A) + tlen(s.G)
		elems += tlen(s.gradBuf) + tlen(s.pcBuf)
		elems += eglen(s.eigA) + eglen(s.eigG)
		atE += s.k.memBytes()
	}
	return 8*elems + atE
}

// FactorRefs lists the factors in placement order: (A₀, G₁, A₁, G₂, ...) —
// layer-major with A before G.
func (p *Preconditioner) FactorRefs() []FactorRef {
	refs := make([]FactorRef, 0, 2*len(p.states))
	for i, s := range p.states {
		da, dg := FactorDims(s.layer)
		refs = append(refs, FactorRef{Layer: i, IsG: false, Dim: da})
		refs = append(refs, FactorRef{Layer: i, IsG: true, Dim: dg})
	}
	return refs
}

// NumLayers returns the number of preconditioned layers.
func (p *Preconditioner) NumLayers() int { return len(p.states) }

// SetDamping updates γ; used by the damping-decay schedule (§V-C).
func (p *Preconditioner) SetDamping(g float64) { p.opts.Damping = g }

// SetInvUpdateFreq updates kfac-update-freq between steps.
func (p *Preconditioner) SetInvUpdateFreq(k int) {
	if k < 1 {
		k = 1
	}
	p.opts.InvUpdateFreq = k
}

// SetFactorUpdateFreq updates the factor update interval.
func (p *Preconditioner) SetFactorUpdateFreq(k int) {
	if k < 1 {
		k = 1
	}
	p.opts.FactorUpdateFreq = k
}

// Step preconditions every registered layer's gradient in place. Call after
// gradients have been computed (and averaged across ranks) and before the
// optimizer update. lr is the current learning rate, used by the κ gradient
// scaling (Equation 18). Step reads the gradients as they stand when it is
// called; at world 1, on a step that keeps its eigenbases, it adopts the
// layers the backward already preconditioned (early.go) and runs the rest.
//
// All ranks must call Step the same number of times with identical options
// and an identically ordered layer list (guaranteed when every rank builds
// the same model): the collective issue order is a deterministic function
// of that state.
func (p *Preconditioner) Step(lr float64) error {
	iter := p.step
	p.step++

	doFactors := iter%p.opts.FactorUpdateFreq == 0
	doDecomp := iter%p.opts.InvUpdateFreq == 0
	if doDecomp {
		// The tier is a pure function of the step counter, so every rank
		// takes the same one without communicating.
		p.power = !p.exact && iter > 0 && iter-p.fullAt < maxBasisAge
		if !p.power {
			p.fullAt = iter
		}
	}
	// Autotune consensus runs at factor-update boundaries (after the first
	// update has produced a measurement), before the update issues its
	// collectives — the same schedule point on every rank, so the tiny
	// consensus allreduce never interleaves differently with update traffic.
	if p.tuner != nil && doFactors && iter > 0 && p.comm != nil && p.comm.Size() > 1 {
		if err := p.autotune(iter); err != nil {
			return err
		}
	}
	if doDecomp {
		// The update rewrites the eigenbases an early start reads. The hooks
		// declined this step unless the interval changed since the backward.
		p.early.cancel()
	}
	if doFactors || doDecomp {
		if err := p.update(doFactors, doDecomp); err != nil {
			p.early.cancel()
			return err
		}
	}
	return p.precondition(lr)
}

// maxBasisAge is the age, in steps, at which an eigenbasis is replaced.
// A decomposition update is a full solve when it is the first (step 0) or
// the latest full-solve update was at least maxBasisAge steps ago, and a
// power refresh otherwise (linalg.SymEigPowerInto): the factor's basis takes
// one step of orthogonal iteration, Q₁R = qr(A·Q₀), and its eigenvalues
// become diag(Q₁ᵀAQ₁). Keeping Q₀ and re-reading only the eigenvalues
// (the Kronecker-factored half of eigenvalue-corrected K-FAC, George et
// al., 2018) is cheaper, but it failed the convergence gate
// (docs/PERFORMANCE.md, "Power refresh"). The age counts steps, not
// updates, so a run that refreshes every maxBasisAge steps or less often
// takes only full solves, and no basis is older than the staleness the
// paper's update intervals already accept (§V-C).
const maxBasisAge = 20

// ExactRefresh puts every later decomposition update of p on the full
// solve: the exact arm the convergence gate holds the power tier to.
// Step 0's update is a full solve in either case, so switching after it
// still gives the exact run.
func ExactRefresh(p *Preconditioner) { p.exact = true }

// decompose eigendecomposes one factor of a layer into its slot and
// refreshes the kernels' mirror of it (in either Mode). On a power update (see
// maxBasisAge) a factor with a decomposition refreshes it with one step of
// orthogonal iteration; a factor without one, or whose refreshed values are
// not finite, takes the full solve.
func (p *Preconditioner) decompose(s *layerState, isG bool) error {
	f := s.side(isG)
	// In place: both solvers leave eg untouched on failure, so the previous
	// decomposition survives. A first one is installed only once it exists.
	eg := *f.eig
	if eg != nil && p.power && linalg.SymEigPowerInto(*f.factor, eg) == nil {
		p.stats.count(&p.stats.PowerRefreshes)
	} else {
		if eg == nil {
			eg = &linalg.Eigen{}
		}
		if err := p.symEig(*f.factor, eg); err != nil {
			return err
		}
		*f.eig = eg
		p.stats.count(&p.stats.FullSolves)
	}
	clampEigen(eg)
	s.k.refresh(isG)
	return nil
}

// symEig decomposes a into eg with the blocked solver
// (linalg.SymEigBlockedInto) under the one eig-parallelism rule
// (EigTeamMinDim), reporting per-kernel wall time into StageStats. The
// result is bitwise independent of the team, so a step's bits do not depend
// on GOMAXPROCS (TestStepBitsIndependentOfGOMAXPROCS); linalg.SymEigInto,
// the serial tred2/tql2 pair, is its test oracle
// (TestEigSolverBlockedMatchesSerialOracle).
func (p *Preconditioner) symEig(a *tensor.Tensor, eg *linalg.Eigen) error {
	team := 1
	if a.Shape[0] >= EigTeamMinDim {
		team = runtime.GOMAXPROCS(0)
	}
	var tm linalg.EigKernelTimes
	if err := linalg.SymEigBlockedTimedInto(a, eg, team, &tm); err != nil {
		return err
	}
	p.stats.addEigKernels(&tm)
	return nil
}

// clampEigen zeroes the tiny negative eigenvalues round-off can produce on
// PSD covariance factors; damping then keeps the denominator positive.
func clampEigen(eg *linalg.Eigen) {
	for i, v := range eg.Values {
		if v < 0 {
			eg.Values[i] = 0
		}
	}
}

// precondition rewrites every layer's gradient with its preconditioned
// version (Algorithm 1, step 3) and applies the κ scaling of Equation 18.
func (p *Preconditioner) precondition(lr float64) error {
	start := time.Now()
	defer func() {
		p.stats.add(&p.stats.Precondition, time.Since(start))
		p.stats.mu.Lock()
		p.stats.Steps++
		p.stats.mu.Unlock()
	}()
	if cap(p.gradsBuf) < len(p.states) {
		p.gradsBuf = make([]*tensor.Tensor, len(p.states))
	}
	grads := p.gradsBuf[:len(p.states)]

	// Every rank preconditions the layers it is a gradient worker of — all
	// of them under a fully replicated plan (COMM-OPT), which therefore
	// needs no per-iteration communication — as grouped stages at pool
	// width (kernels.go), taking over at world 1 what the backward started
	// (early.go). Under a partial plan the results land in the bucket
	// views; a layer this rank does not compute keeps its view as the
	// receive buffer the bucket broadcast fully overwrites.
	p.preconditionLocal(grads)

	// Partial plan (MEM-OPT / HYBRID, and the LayerWise default): a layer's
	// gradient workers preconditioned redundantly from their shared
	// eigenbases — bit-identical results, since the arithmetic is a pure
	// function of the (identical) decompositions and gradient — and each
	// designated root broadcasts all of its layers as one message to the
	// ranks that hold no eigenbases. Every rank, member or not, issues every
	// bucket's broadcast in bucket order (ordered collectives reserve their
	// tags at call time) before waiting on any, so the trees run side by
	// side; non-root gradient workers are outside the group and keep their
	// locally computed (equal) bits.
	if len(p.pcBuckets) > 0 {
		hs := p.pcHandles[:0]
		for b := range p.pcBuckets {
			bk := &p.pcBuckets[b]
			hs = append(hs, bk.group.BroadcastAsync(bk.backing, bk.root))
		}
		p.pcHandles = hs
		if err := comm.WaitAll(hs...); err != nil {
			return err
		}
	}
	// Only a partial plan has remote layers, and nothing starts early under
	// one, so grads holds their gradients.
	for _, i := range p.remote {
		s := p.states[i]
		s.dot = s.pcBuf.Dot(grads[i])
	}
	return p.applyKLClip(lr)
}

// combinedGrad returns the layer's combined gradient: a bias-free layer's
// weight gradient itself, asked for afresh every step so a reallocated
// gradient is never read stale, else a copy in the reused workspace.
func (p *Preconditioner) combinedGrad(s *layerState) *tensor.Tensor {
	if g := s.layer.CombinedGradView(); g != nil {
		return g
	}
	da, dg := FactorDims(s.layer)
	g := tensor.Ensure(&s.gradBuf, dg, da)
	s.layer.CombinedGradInto(g)
	return g
}

// applyKLClip applies the κ gradient scaling (Equation 18) and writes the
// preconditioned gradients back: ν = min(1, sqrt(κ / (lr²·Σ|v·g|))). Each
// layer's term vᵀg is its layerState.dot, formed beside its precondition;
// the reduction adds them in layer order whatever width and start point
// preconditioning ran at, so every schedule produces bit-identical results.
//
// The reduction runs whether or not clipping is on, and doubles as the
// step's non-finite guard: if Σ vᵀg is NaN or ±Inf, nothing is written back
// — every Param.Grad keeps its raw gradient — and the error names the first
// layer whose term made the sum non-finite. Its inputs are bit-identical on
// every rank after the gradient exchange and the result broadcast, so every
// rank fails at the same step with the same error and none is left inside
// a collective.
func (p *Preconditioner) applyKLClip(lr float64) error {
	var vg float64
	for i, s := range p.states {
		vg += s.dot * lr * lr
		if math.IsNaN(vg) || math.IsInf(vg, 0) {
			return fmt.Errorf("kfac: step %d: layer %d (%s): preconditioned gradient is not finite (Σ vᵀg·lr² = %v)",
				p.step-1, i, s.layer.Name(), vg)
		}
	}
	nu := 1.0
	if p.opts.KLClip > 0 {
		if vg = math.Abs(vg); vg > 0 {
			nu = math.Min(1, math.Sqrt(p.opts.KLClip/vg))
		}
	}
	for _, s := range p.states {
		if nu != 1 {
			s.pcBuf.Scale(nu)
		}
		s.layer.SetCombinedGrad(s.pcBuf)
	}
	return nil
}

// ParamSchedule is the paper's "decay by a fixed scalar at fixed epochs"
// schedule (§V-C); the trainer decays the damping with it.
type ParamSchedule struct {
	Initial     float64
	DecayEpochs []int
	Factor      float64 // multiplier applied at each listed epoch
}

// At returns the scheduled value for the given zero-based epoch.
func (s ParamSchedule) At(epoch int) float64 {
	v := s.Initial
	f := s.Factor
	if f == 0 {
		f = 0.5
	}
	for _, e := range s.DecayEpochs {
		if epoch >= e {
			v *= f
		}
	}
	return v
}
