// Command kfac-sim queries the calibrated cluster performance model
// directly: time-to-solution, per-stage costs, worker eigendecomposition
// loads and scaling efficiency for any (model, GPUs, strategy, update
// frequency) combination — the interactive counterpart of the fixed
// experiment runners in kfac-bench.
//
// Examples:
//
//	kfac-sim -model resnet50 -gpus 64
//	kfac-sim -model resnet152 -gpus 256 -freq 125 -strategy layerwise
//	kfac-sim -model resnet101 -gpus 64 -workers
package main

import (
	"flag"
	"fmt"
	"os"
	"slices"

	"repro/internal/kfac"
	"repro/internal/models"
	"repro/internal/simulate"
)

// usage prints the flag reference grouped by family, with worked examples.
func usage() {
	fmt.Fprintf(flag.CommandLine.Output(), `kfac-sim — query the calibrated cluster performance model

Scenario:
  -model NAME       resnet32|resnet34|resnet50|resnet101|resnet152 (default resnet50)
  -gpus N           worker count, ≥ 1 (default 64)
  -strategy NAME    roundrobin|layerwise|greedy factor placement

Distribution plan (memory/communication tradeoff; see docs/ARCHITECTURE.md):
  -dist-mode NAME   auto|commopt|memopt|hybrid — where eigenbases live and who
                    preconditions; auto derives from -strategy
  -grad-worker-frac F  hybrid gradient-worker fraction, 0 < F < 1

K-FAC schedule:
  -freq N           kfac-update-freq, ≥ 1; 0 selects the paper's scale-proportional value
  -sgd-epochs N     SGD epoch budget for the time-to-solution comparison, ≥ 1 (default 90)
  -kfac-epochs N    K-FAC epoch budget, ≥ 1 (default 55)

Topology and scale planning (docs/ARCHITECTURE.md "Scale planning"):
  -ranks-per-node N override the modeled node size (default 4)
  -nodes-per-rack N override the modeled rack size (default 16)
  -mem-budget MB    per-worker decomposition memory budget for the planner
                    (0 = unlimited); with -dist-mode auto the cost-model
                    planner picks the cheapest fitting configuration
  -plan-sweep       print the planner's full candidate grid — predicted step
                    time, per-rank memory min/median/max, over-budget and
                    chosen markers — at the requested world size

Output:
  -workers          also print per-worker eigendecomposition load (min/median/max)
  -precision W      modeled wire width only: f32 (the paper's wire format,
                    default) or f64 (this repo's exact float64 wire format);
                    resident eigenbasis memory is priced at float64 either way

Examples:
  kfac-sim -model resnet50 -gpus 64
  kfac-sim -model resnet152 -gpus 256 -freq 125 -strategy layerwise
  kfac-sim -model resnet101 -gpus 64 -workers
  kfac-sim -model resnet50 -gpus 64 -dist-mode memopt
  kfac-sim -model resnet50 -gpus 128 -dist-mode hybrid -grad-worker-frac 0.25
  kfac-sim -model resnet50 -gpus 256 -plan-sweep
  kfac-sim -model resnet152 -gpus 1024 -mem-budget 400 -plan-sweep
`)
}

// fail reports a usage error and exits 2.
func fail(format string, a ...any) {
	fmt.Fprintf(os.Stderr, format+"\n", a...)
	os.Exit(2)
}

func main() {
	// The K-FAC flags decode straight into the options the model prices;
	// Validate applies the same rules kfac-train and ctl do.
	var opts kfac.Options
	flag.TextVar(&opts.Strategy, "strategy", kfac.RoundRobin, "roundrobin|layerwise|greedy")
	flag.TextVar(&opts.DistMode, "dist-mode", kfac.DistAuto, "auto|commopt|memopt|hybrid distribution plan")
	flag.Float64Var(&opts.GradWorkerFrac, "grad-worker-frac", 0, "hybrid gradient-worker fraction (0 < F < 1)")
	flag.TextVar(&opts.Precision, "precision", kfac.F32, "modeled wire width only: f32 (the paper's wire format) or f64")
	var (
		model      = flag.String("model", "resnet50", "resnet32|resnet34|resnet50|resnet101|resnet152")
		gpus       = flag.Int("gpus", 64, "worker count (≥ 1)")
		freq       = flag.Int("freq", 0, "kfac-update-freq (0 = paper's scale-proportional value)")
		sgdEpochs  = flag.Int("sgd-epochs", 90, "SGD epoch budget (≥ 1)")
		kfacEpochs = flag.Int("kfac-epochs", 55, "K-FAC epoch budget (≥ 1)")
		workers    = flag.Bool("workers", false, "print per-worker eigendecomposition times")
		ranksNode  = flag.Int("ranks-per-node", 0, "modeled ranks per node (0 = topology default)")
		nodesRack  = flag.Int("nodes-per-rack", 0, "modeled nodes per rack (0 = topology default)")
		memBudget  = flag.Float64("mem-budget", 0, "per-worker decomposition memory budget in MB (0 = unlimited)")
		planSweep  = flag.Bool("plan-sweep", false, "print the planner's candidate grid with predictions")
	)
	flag.Usage = usage
	flag.Parse()

	cat, err := models.CatalogByName(*model)
	if err != nil {
		fail("%v", err)
	}
	switch {
	case *gpus < 1:
		fail("-gpus must be ≥ 1, got %d", *gpus)
	case *freq < 0:
		fail("-freq must be 0 (the paper's scale-proportional value) or ≥ 1, got %d", *freq)
	case *sgdEpochs < 1:
		fail("-sgd-epochs must be ≥ 1, got %d", *sgdEpochs)
	case *kfacEpochs < 1:
		fail("-kfac-epochs must be ≥ 1, got %d", *kfacEpochs)
	case *ranksNode < 0:
		fail("-ranks-per-node must be 0 (the topology default) or ≥ 1, got %d", *ranksNode)
	case *nodesRack < 0:
		fail("-nodes-per-rack must be 0 (the topology default) or ≥ 1, got %d", *nodesRack)
	case *memBudget < 0:
		fail("-mem-budget must be 0 (unlimited) or a positive MB count, got %v", *memBudget)
	}
	if err := opts.Validate(*gpus); err != nil {
		fail("%v", err)
	}
	strat := opts.Strategy

	cluster := simulate.DefaultV100Cluster()
	if opts.Precision == kfac.F64 {
		// Model double-width payloads: twice the bytes through the same
		// interconnect model.
		cluster.BytesPerElem = 8
	}

	m := simulate.NewModel(cluster, simulate.ImageNetWorkload(cat))
	f := *freq
	if f == 0 {
		f = simulate.PaperInvFreq(*gpus)
	}

	// Topology-aware plan model: the planner's pricing surface. The
	// amortization frequencies follow the simulated schedule, and the
	// candidate-independent base cost is the modeled forward+backward so
	// predicted step times are absolute, not just comparable.
	topo := simulate.DefaultTopology()
	if *ranksNode > 0 {
		topo.RanksPerNode = *ranksNode
	}
	if *nodesRack > 0 {
		topo.NodesPerRack = *nodesRack
	}
	if err := topo.Validate(); err != nil {
		fail("%v", err)
	}
	pm := simulate.NewPlanModel(topo, cluster)
	pm.InvUpdateFreq = f
	pm.BaseStepSec = m.FwdBwdTime()
	budgetBytes := int64(*memBudget * 1e6)
	refs := cat.FactorRefs()
	dec := kfac.ResolveAutoPlan(kfac.AutoPlannerConfig{Model: pm, MemoryBudgetBytes: budgetBytes}, strat, refs, *gpus)

	fmt.Printf("model %s: %.1fM params, %d K-FAC layers, %d iterations/epoch at %d GPUs\n",
		cat.Name, float64(cat.TotalParams())/1e6, len(cat.Layers), m.IterationsPerEpoch(*gpus), *gpus)

	cand := kfac.PlanCandidate{Mode: opts.DistMode, GradWorkerFrac: opts.GradWorkerFrac}
	if opts.DistMode == kfac.DistAuto {
		// Cost-model-driven DistAuto, over the catalog's exact factor
		// geometry: the planner is an offline/admission tool (here and in
		// ctl.PlacementHint); a training job runs the mode, fraction and
		// group size it picks only when launched with them explicitly.
		cand = dec.PlanCandidate
		fmt.Printf("auto planner (%d ranks/node × %d nodes/rack): chose %s", topo.RanksPerNode, topo.NodesPerRack, dec.Mode)
		if dec.Mode == kfac.Hybrid {
			fmt.Printf(" f=%g", dec.GradWorkerFrac)
		}
		fmt.Printf(" group=%d — predicted %.1f ms/iter, %.1f MB/rank worst (grid %d, rejected %d",
			dec.GroupSize, dec.PredictedStepSec*1e3, float64(dec.PredictedMemBytes)/1e6,
			dec.Candidates, dec.Rejected)
		if dec.OverBudget {
			fmt.Printf("; NO candidate fit %.0f MB — minimum-memory fallback", *memBudget)
		}
		fmt.Println(")")
	}
	// Every line below prices this plan: the paper model's time lines and
	// the plan model's resident eigenbasis footprint alike.
	m.DistMode, m.GradWorkerFrac = cand.Mode, cand.GradWorkerFrac
	ev := pm.Evaluate(strat, refs, *gpus, cand)
	mn, md, mx := ev.MemStats()
	replicated := pm.Evaluate(strat, refs, *gpus, kfac.PlanCandidate{Mode: kfac.CommOpt}).MaxMemBytes
	fmt.Printf("plan %s (%s wire)\n", kfac.BuildPlan(strat, cand.Mode, cand.GradWorkerFrac, refs, *gpus), opts.Precision)
	fmt.Printf("eigenbasis memory/rank: min %.1f MB, median %.1f MB, max %.1f MB (COMM-OPT would hold %.1f MB everywhere)\n",
		float64(mn)/1e6, float64(md)/1e6, float64(mx)/1e6, float64(replicated)/1e6)
	fmt.Printf("per-iteration: fwd+bwd %.1f ms, SGD iter %.1f ms, %s iter %.1f ms (freq %d)\n",
		m.FwdBwdTime()*1e3, m.SGDIterTime(*gpus)*1e3,
		strat, m.KFACIterAvgTime(*gpus, f, strat)*1e3, f)

	fc, fm := m.FactorStage(*gpus)
	ec, em := m.EigStage(*gpus, strat)
	fmt.Printf("stages: factor %.1f ms comp + %.1f ms comm | eig %.1f ms comp + %.1f ms comm\n",
		fc*1e3, fm*1e3, ec*1e3, em*1e3)

	if *planSweep {
		fmt.Printf("\nplan sweep at %d GPUs, %d ranks/node × %d nodes/rack", *gpus, topo.RanksPerNode, topo.NodesPerRack)
		if budgetBytes > 0 {
			fmt.Printf(", budget %.0f MB/worker", *memBudget)
		}
		fmt.Println(":")
		fmt.Printf("  %-8s %-6s %-5s  %9s  %26s  %s\n",
			"mode", "frac", "group", "step ms", "mem/rank MB min/med/max", "status")
		for _, c := range kfac.PlanCandidates() {
			ev := pm.Evaluate(strat, refs, *gpus, c)
			mn, md, mx := ev.MemStats()
			status := ""
			if budgetBytes > 0 && ev.MaxMemBytes > budgetBytes {
				status = "over-budget"
			}
			if c == dec.PlanCandidate {
				status += " <- chosen"
			}
			fmt.Printf("  %-8s %-6g %-5d  %9.2f  %8.1f %8.1f %8.1f  %s\n",
				c.Mode, c.GradWorkerFrac, c.GroupSize, ev.StepSec*1e3,
				float64(mn)/1e6, float64(md)/1e6, float64(mx)/1e6, status)
		}
	}

	sgd := m.TimeToSolutionMin(simulate.RunSpec{GPUs: *gpus, Epochs: *sgdEpochs})
	kf := m.TimeToSolutionMin(simulate.RunSpec{
		GPUs: *gpus, Epochs: *kfacEpochs, KFAC: true, Strategy: strat, InvFreq: f})
	fmt.Printf("time-to-solution: SGD (%d epochs) %.0f min | %s (%d epochs) %.0f min | improvement %+.1f%%\n",
		*sgdEpochs, sgd, strat, *kfacEpochs, kf, 100*(sgd-kf)/sgd)

	eff := m.ScalingEfficiency(simulate.RunSpec{
		GPUs: *gpus, Epochs: *kfacEpochs, KFAC: true, Strategy: strat, InvFreq: f}, 16)
	fmt.Printf("scaling efficiency vs 16 GPUs: %.1f%%\n", eff*100)

	if *workers {
		times := m.WorkerEigTimes(*gpus, strat)
		sorted := slices.Sorted(slices.Values(times))
		fmt.Printf("\nper-worker eig times (s), sorted: min %.3f  median %.3f  max %.3f\n",
			sorted[0], sorted[len(sorted)/2], sorted[len(sorted)-1])
		busy := 0
		for _, t := range times {
			if t > 0 {
				busy++
			}
		}
		fmt.Printf("busy workers: %d of %d (idle workers are the §IV scaling concern)\n", busy, *gpus)
	}
}
