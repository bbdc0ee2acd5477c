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

// Mode selects how (F̂+γI)⁻¹ is applied to the gradient.
type Mode int

const (
	// EigenMode preconditions via the eigendecomposition expansion
	// (Equations 13–15) — the paper's default, chosen in §IV-A because it
	// preserves convergence at large batch sizes.
	EigenMode Mode = iota
	// InverseMode preconditions via explicit damped inverses
	// (Equation 11) — kept for the Table I ablation.
	InverseMode
)

// String names the mode as in Table I.
func (m Mode) String() string {
	if m == InverseMode {
		return "K-FAC w/ Inverse"
	}
	return "K-FAC w/ Eigen-decomp."
}

// Options configures the preconditioner. Zero values select the paper's
// defaults where one exists.
type Options struct {
	Mode     Mode
	Strategy Strategy
	// DistMode selects the memory/communication tradeoff of the resolved
	// distribution plan (default DistAuto: LayerWise implies MemOpt, every
	// other strategy CommOpt — the pre-plan behavior).
	DistMode DistMode
	// GradWorkerFrac sizes each layer's gradient-worker set under
	// DistMode == Hybrid as a fraction of the world (clamped to at least
	// one worker). Ignored by the other modes.
	GradWorkerFrac float64
	// GroupSize, when ≥ 2, routes the factor allreduce (and the trainer's
	// gradient exchange) through the two-level hierarchical allreduce with
	// this many consecutive ranks per group — modeling fast intra-node
	// links. 0 keeps the flat ring.
	GroupSize int
	// Damping is the Tikhonov regularizer γ (paper: 0.001 for ImageNet).
	Damping float64
	// FactorDecay is the running-average coefficient ξ in Equations 16–17
	// (typical range [0.9, 1); default 0.95).
	FactorDecay float64
	// KLClip is the κ constant of the gradient-scaling Equation 18
	// (default 0.001). Negative disables clipping.
	KLClip float64
	// FactorUpdateFreq is the interval in iterations between factor
	// recomputation + allreduce (default 10). The paper observes factors
	// can be updated 10× more frequently than the decompositions.
	FactorUpdateFreq int
	// InvUpdateFreq is the paper's kfac-update-freq: the interval between
	// eigendecomposition (or inverse) updates (default 100).
	InvUpdateFreq int
	// FusionBytes bounds the fusion buffer of the factor allreduce and the
	// trainer's gradient exchange (default comm.DefaultFusionBytes).
	FusionBytes int
	// PiDamping enables the π-corrected factored damping split of
	// Martens & Grosse (§6.3): (A+π√γI)⊗(G+√γ/π·I) instead of the
	// uniform γ on the combined eigenvalue product. Off by default,
	// matching the paper.
	PiDamping bool
	// SkipLayers lists layer names to leave to the first-order optimizer
	// (the reference implementation's skip_layers option).
	SkipLayers []string
	// MaxFactorDim excludes layers whose A or G factor would exceed this
	// dimension (0 = no limit) — a memory/time guard for very wide layers.
	MaxFactorDim int
	// Engine selects the schedule of the update stage graph: EngineSync
	// (default) puts a barrier after every stage; EnginePipelined overlaps
	// per-layer factor computation, fused async allreduce,
	// eigendecomposition, and the per-layer decomposition exchange. Both
	// run the same stage code and are bit-identical.
	Engine Engine
	// Precision selects the element type of the covariance and
	// preconditioning kernels (default F64). F32 keeps their operands and
	// products in float32; running averages, decompositions, communication,
	// and checkpoints stay float64 regardless (see kernels.go).
	Precision Precision
	// Compression applies a lossy codec to the factor allreduce and the
	// trainer's gradient exchange (nil = exact), wrapped in error-feedback
	// residual accumulation unless NoErrorFeedback is set. Must be
	// identical on every rank. The eigensolver symmetrizes its input, so
	// sparsified factor averages stay safe to decompose.
	Compression comm.Codec
	// NoErrorFeedback strips the residual accumulator from Compression —
	// the biased estimator, kept so the convergence-safety suite can
	// demonstrate why error feedback is not optional for sparsifiers.
	NoErrorFeedback bool
	// Autotune, when non-nil, enables the bandwidth-adaptive controller:
	// codec/FusionBytes/GroupSize are re-selected from the policy table at
	// factor-update boundaries via a consensus collective, overriding the
	// static Compression/FusionBytes/GroupSize fields from the first
	// decision on. See autotune.go.
	Autotune *AutotuneConfig
}

func (o *Options) fillDefaults() {
	if o.Damping == 0 {
		o.Damping = 0.001
	}
	if o.FactorDecay == 0 {
		o.FactorDecay = 0.95
	}
	if o.KLClip == 0 {
		o.KLClip = 0.001
	}
	if o.FactorUpdateFreq == 0 {
		o.FactorUpdateFreq = 10
	}
	if o.InvUpdateFreq == 0 {
		o.InvUpdateFreq = 100
	}
}

// layerState carries the per-layer K-FAC quantities.
type layerState struct {
	layer nn.KFACCapturable
	// Running-average Kronecker factors (Equations 16–17).
	A, G *tensor.Tensor
	// Eigen decompositions (EigenMode).
	eigA, eigG *linalg.Eigen
	// Damped inverses (InverseMode).
	invA, invG *tensor.Tensor
	// Owner ranks for the A and G factors, mirrored from the active Plan
	// (equal under LayerWise).
	aWorker, gWorker int
	// Intra-factor eigensolver team sizes, assigned by computeEigTeams
	// from the plan's per-rank decomposition loads (1 = serial-in-parallel;
	// purely a performance knob, results are team-independent).
	aTeam, gTeam int
	// Plan-scoped sub-communicators, rebuilt by replan; nil when the run is
	// single-process. They carry a factor's decomposition from its owner to
	// its recipients: the layer's gradient workers (everyone under a fully
	// replicated plan) plus the owner.
	aRecvGroup, gRecvGroup *comm.Group
	// π correction for factored damping (1 when disabled); recomputed at
	// every decomposition update from the averaged factors, so it is
	// identical on every rank without communication.
	pi float64

	// Reused workspaces. Together with those of k and the Eigen in-place
	// refresh (linalg.SymEigBlockedInto) they make the steady-state Step
	// path — combined gradient, preconditioning products, KL clip —
	// allocation-free; see TestKFACStepSteadyStateZeroAllocs.
	covA, covG *tensor.Tensor // covariance scratch for one factor update
	gradBuf    *tensor.Tensor // combined gradient [dg, da]
	// pcBuf is the preconditioned gradient [dg, da]. Under a partial plan it
	// is a view into its broadcast bucket's backing (see pcBucket).
	pcBuf *tensor.Tensor
	// Decomposition spares: symEig refreshes into the spare, which is
	// swapped with eigA/eigG only on success, so a convergence failure
	// never clobbers the last good decomposition (the stale path keeps
	// preconditioning with it). Storage still recycles: the pair
	// ping-pongs between the two buffers.
	eigSpareA, eigSpareG *linalg.Eigen

	// k holds the layer's state and stage bodies at the compute element
	// type (kernels.go).
	k layerKernels
}

// factorSide addresses one factor's slots of a layerState, so every stage
// body is written once for A and G. The slots are pointers: a side may be
// taken before the layer's factor exists, and a layer's two sides are
// worked on by concurrent goroutines that must each touch only their own.
type factorSide struct {
	factor      **tensor.Tensor // running average
	eig, spare  **linalg.Eigen
	inv         **tensor.Tensor
	owner, team int
	recv        *comm.Group
}

// side selects the layer's A (isG false) or G factor.
func (s *layerState) side(isG bool) factorSide {
	if isG {
		return factorSide{&s.G, &s.eigG, &s.eigSpareG, &s.invG, s.gWorker, s.gTeam, s.gRecvGroup}
	}
	return factorSide{&s.A, &s.eigA, &s.eigSpareA, &s.invA, s.aWorker, s.aTeam, s.aRecvGroup}
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
	plan   *Plan // resolved distribution plan (rebuilt by replan)
	step   int
	stats  StageStats
	pool   *sched.Pool // lazily created by the pipelined engine
	// eigSem is the latest decomposition update's team-weight semaphore,
	// kept so tests can read its high-water mark.
	eigSem *weightedSem

	// dec is the configuration in force (see Decision), stored only by
	// replan and autotune; factorEF persists factor-path compression
	// residuals across steps; tuner is the autotune controller state (nil
	// when disabled).
	dec      Decision
	factorEF *comm.ErrorFeedback
	tuner    *tuner

	// pcBuckets lists the per-iteration result broadcasts in issue order
	// (first-layer order), rebuilt by replan; empty when the plan is fully
	// replicated or the run is single-process. pcBacking is the storage the
	// buckets partition: Σ dg·da elements, allocated once.
	pcBuckets []pcBucket
	pcBacking []float64

	// pcStages preconditions the layers this rank is a gradient worker of
	// (all of them under a fully replicated plan), rebuilt by replan;
	// gradsBuf and pcHandles are reused per-step slices.
	pcStages  precondStages
	gradsBuf  []*tensor.Tensor
	pcHandles []*comm.Handle
}

// New builds a preconditioner over every K-FAC-capturable layer of model
// (Linear and Conv2D; all other layers are left to the wrapped optimizer),
// configured by functional options over the paper defaults. c may be nil
// for single-process training.
func New(model nn.Layer, c *comm.Communicator, opts ...Option) *Preconditioner {
	return NewFromOptions(model, c, Build(opts...))
}

// NewFromOptions builds a preconditioner from a resolved Options struct —
// the form trainer.WithKFACOptions takes. Zero-valued fields select the
// paper defaults.
func NewFromOptions(model nn.Layer, c *comm.Communicator, opts Options) *Preconditioner {
	opts.fillDefaults()
	skip := make(map[string]bool, len(opts.SkipLayers))
	for _, n := range opts.SkipLayers {
		skip[n] = true
	}
	layers := nn.CapturableLayers(model)
	p := &Preconditioner{comm: c, opts: opts, factorEF: comm.NewErrorFeedback(nil)}
	if opts.Autotune != nil {
		p.tuner = newTuner(*opts.Autotune)
	}
	for _, l := range layers {
		if skip[l.Name()] {
			continue
		}
		if opts.MaxFactorDim > 0 {
			da, dg := FactorDims(l)
			if da > opts.MaxFactorDim || dg > opts.MaxFactorDim {
				continue
			}
		}
		l.SetCapture(true)
		s := &layerState{layer: l}
		s.k = newKernels(opts.Precision, p, s)
		p.states = append(p.states, s)
	}
	p.replan()
	return p
}

// Rebind attaches the preconditioner to a new communicator — the elastic
// recovery path after a rank loss rebuilds a resized world — and re-plans
// the whole distribution (Algorithm 1, line 9) for the new world size: a
// fresh Plan with new owners, gradient-worker sets, and sub-communicator
// groups. Replica state survives the resize when the outgoing plan was
// fully replicated: the running-average factors and decompositions are
// identical on every rank (products of collective averaging), so they
// remain valid under the new placement and only *ownership* changes. c may
// be nil to shrink to a single-process preconditioner.
//
// Rebind must not be called while a Step is in flight, and all surviving
// ranks must call it with communicators of equal size (the usual SPMD
// contract). Under a partially replicated plan (MemOpt/Hybrid — including
// the implied MemOpt of LayerWise) the decompositions live only on their
// recipient sets; Rebind clears them so the next decomposition update
// rebuilds ownership consistently instead of broadcasting from stale
// roots.
func (p *Preconditioner) Rebind(c *comm.Communicator) {
	// Mode-based rather than plan-based: a world-1 MemOpt plan is trivially
	// fully replicated, but clearing stays the conservative contract for
	// every partial mode so ownership is always rebuilt fresh.
	partial := p.dec.Mode != CommOpt
	p.comm = c
	// Autotune baselines and compression residuals are tied to the old
	// world's timing and chunk schedule; restart both so every surviving
	// rank re-enters the static configuration at the same boundary.
	if p.tuner != nil {
		p.tuner = newTuner(AutotuneConfig{Policy: p.tuner.policy, Interval: p.tuner.interval})
	}
	p.factorEF.Reset()
	if partial {
		for _, s := range p.states {
			s.eigA, s.eigG, s.invA, s.invG = nil, nil, nil, nil
		}
		// Force the next Step to recompute factors and decompositions at
		// the new ownership before any layer preconditions.
		p.step = 0
	}
	p.replan()
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

// replan resolves the static Decision — it runs at construction and after
// Rebind has reset the tuner, so no autotune level is in force — rebuilds
// the distribution Plan for it at the current world, and mirrors the plan
// into the per-layer state: owner ranks plus the plan-scoped
// sub-communicator groups partial plans need. Every rank computes the
// identical plan from shared state, so no communication is needed
// (Algorithm 1, line 9).
func (p *Preconditioner) replan() {
	p.dec = resolve(p.opts, nil)
	p.plan = BuildPlan(p.opts.Strategy, p.dec.Mode, p.dec.GradWorkerFrac,
		p.FactorRefs(), p.size())
	distributed := p.comm != nil && p.comm.Size() > 1
	for i, s := range p.states {
		lp := &p.plan.Layers[i]
		s.aWorker, s.gWorker = lp.AOwner, lp.GOwner
		s.aRecvGroup, s.gRecvGroup = nil, nil
		if distributed {
			s.aRecvGroup = p.comm.Group(p.plan.Recipients(i, false))
			s.gRecvGroup = p.comm.Group(p.plan.Recipients(i, true))
		}
	}
	p.pcBuckets = nil
	if distributed && !p.plan.FullyReplicated() {
		p.buildBuckets()
	}
	var mine []int
	for i := range p.states {
		if p.plan.IsGradWorker(i, p.rank()) {
			mine = append(mine, i)
		}
	}
	p.pcStages = newPrecondStages(p, mine)
	p.computeEigTeams(runtime.GOMAXPROCS(0))
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
	if len(p.pcBacking) != total {
		p.pcBacking = make([]float64, total)
	}
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

// Plan returns the active resolved distribution plan.
func (p *Preconditioner) Plan() *Plan { return p.plan }

// factorMemBytes measures this rank's currently resident K-FAC factor
// state in bytes: running averages, covariance/preconditioning workspaces,
// and whatever decompositions the plan placed here. It is the live
// counterpart of Plan.DecompElemsPerRank and feeds the
// StageStats.PeakFactorBytes high-water mark.
func (p *Preconditioner) factorMemBytes() int64 {
	var elems int64
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
		elems += tlen(s.A) + tlen(s.G) + tlen(s.covA) + tlen(s.covG)
		elems += tlen(s.gradBuf) + tlen(s.pcBuf)
		elems += tlen(s.invA) + tlen(s.invG)
		elems += eglen(s.eigA) + eglen(s.eigG) + eglen(s.eigSpareA) + eglen(s.eigSpareG)
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

// Damping returns the current Tikhonov damping γ.
func (p *Preconditioner) Damping() float64 { return p.opts.Damping }

// SetDamping updates γ; used by the damping-decay schedule (§V-C).
func (p *Preconditioner) SetDamping(g float64) { p.opts.Damping = g }

// InvUpdateFreq returns the current kfac-update-freq.
func (p *Preconditioner) InvUpdateFreq() int { return p.opts.InvUpdateFreq }

// SetInvUpdateFreq updates kfac-update-freq; used by the update-frequency
// decay schedule (§V-C).
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

// StepCount returns the number of completed Step calls.
func (p *Preconditioner) StepCount() int { return p.step }

// Step preconditions every registered layer's gradient in place. Call after
// gradients have been computed (and averaged across ranks) and before the
// optimizer update. lr is the current learning rate, used by the κ gradient
// scaling (Equation 18).
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
	// Autotune consensus runs at factor-update boundaries (after the first
	// update has produced a measurement), before the update issues its
	// collectives — the same schedule point on every rank, so the tiny
	// consensus allreduce never interleaves differently with update traffic.
	if p.tuner != nil && doFactors && iter > 0 && p.comm != nil && p.comm.Size() > 1 {
		if err := p.autotune(iter); err != nil {
			return err
		}
	}
	if doFactors || doDecomp {
		if err := p.update(doFactors, doDecomp); err != nil {
			return err
		}
	}
	return p.precondition(lr)
}

// decompose eigendecomposes (or inverts) one factor of a layer into its
// slots and refreshes the kernels' mirror of it.
func (p *Preconditioner) decompose(s *layerState, isG bool) error {
	f := s.side(isG)
	if p.opts.Mode == InverseMode {
		gamma := p.opts.Damping
		if p.opts.PiDamping {
			ga, gg := p.dampingSplit(s)
			gamma = ga
			if isG {
				gamma = gg
			}
		}
		inv, err := linalg.InverseDamped(*f.factor, gamma)
		if err != nil {
			return err
		}
		*f.inv = inv
	} else {
		if *f.spare == nil {
			*f.spare = &linalg.Eigen{}
		}
		// Refresh into the spare; swap in only on success so the previous
		// decomposition survives a convergence failure.
		if err := p.symEig(*f.factor, *f.spare, f.team); err != nil {
			return err
		}
		clampEigen(*f.spare)
		*f.eig, *f.spare = *f.spare, *f.eig
	}
	s.k.refresh(isG)
	return nil
}

// symEig decomposes a into eg with the blocked solver
// (linalg.SymEigBlockedInto) on this factor's worker team, reporting
// per-kernel wall time into StageStats. Its result is bitwise independent
// of the team size; linalg.SymEigInto, the serial tred2/tql2 pair, is its
// test oracle (TestEigSolverBlockedMatchesSerialOracle).
func (p *Preconditioner) symEig(a *tensor.Tensor, eg *linalg.Eigen, team int) error {
	if team < 1 {
		team = 1
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
	for i, s := range p.states {
		grads[i] = p.combinedGrad(s)
	}

	// Every rank preconditions the layers it is a gradient worker of — all
	// of them under a fully replicated plan (COMM-OPT), which therefore
	// needs no per-iteration communication — as grouped stages at pool
	// width (kernels.go). Under a partial plan the results land in the
	// bucket views; a layer this rank does not compute keeps its view as the
	// receive buffer the bucket broadcast fully overwrites.
	p.pcStages.run(grads)

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

	return p.applyKLClip(lr, grads)
}

// combinedGrad writes the layer's combined gradient into its reused
// workspace and returns it.
func (p *Preconditioner) combinedGrad(s *layerState) *tensor.Tensor {
	da, dg := FactorDims(s.layer)
	g := tensor.Ensure(&s.gradBuf, dg, da)
	s.layer.CombinedGradInto(g)
	return g
}

// applyKLClip applies the κ gradient scaling (Equation 18) and writes the
// preconditioned gradients back: ν = min(1, sqrt(κ / (lr²·Σ|v·g|))). The
// dot-product reduction runs in layer order whatever width preconditioning
// fanned out at, so every schedule produces bit-identical results.
//
// The reduction runs whether or not clipping is on, and doubles as the
// step's non-finite guard: if Σ vᵀg is NaN or ±Inf, nothing is written back
// — every Param.Grad keeps its raw gradient — and the error names the first
// layer whose term made the sum non-finite. Its inputs are bit-identical on
// every rank after the gradient exchange and the result broadcast, so every
// rank fails at the same step with the same error and none is left inside
// a collective.
func (p *Preconditioner) applyKLClip(lr float64, grads []*tensor.Tensor) error {
	var vg float64
	for i, s := range p.states {
		vg += s.pcBuf.Dot(grads[i]) * lr * lr
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
// schedule used for both damping (§V-C) and kfac-update-freq decay.
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
