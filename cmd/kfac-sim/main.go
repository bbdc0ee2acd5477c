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
	"sort"

	"repro/internal/kfac"
	"repro/internal/models"
	"repro/internal/simulate"
)

// usage prints the flag reference grouped by family, with worked examples.
func usage() {
	fmt.Fprintf(flag.CommandLine.Output(), `kfac-sim — query the calibrated cluster performance model

Scenario:
  -model NAME       resnet32|resnet34|resnet50|resnet101|resnet152 (default resnet50)
  -gpus N           worker count (default 64)
  -strategy NAME    roundrobin|layerwise|greedy factor placement

Distribution plan (memory/communication tradeoff; see docs/ARCHITECTURE.md):
  -dist-mode NAME   auto|commopt|memopt|hybrid — where eigenbases live and who
                    preconditions; auto derives from -strategy
  -grad-worker-frac F  hybrid gradient-worker fraction, 0 < F < 1

K-FAC schedule:
  -freq N           kfac-update-freq; 0 selects the paper's scale-proportional value
  -sgd-epochs N     SGD epoch budget for the time-to-solution comparison (default 90)
  -kfac-epochs N    K-FAC epoch budget (default 55)

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
  -precision W      modeled element width for payloads and memory: f32 (the
                    paper's wire format, default) or f64 (this repo's exact
                    float64 wire format)

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

func main() {
	var (
		model      = flag.String("model", "resnet50", "resnet32|resnet34|resnet50|resnet101|resnet152")
		gpus       = flag.Int("gpus", 64, "worker count")
		freq       = flag.Int("freq", 0, "kfac-update-freq (0 = paper's scale-proportional value)")
		strategy   = flag.String("strategy", "roundrobin", "roundrobin|layerwise|greedy")
		distMode   = flag.String("dist-mode", "auto", "auto|commopt|memopt|hybrid distribution plan")
		gradFrac   = flag.Float64("grad-worker-frac", 0, "hybrid gradient-worker fraction (0 < F < 1)")
		sgdEpochs  = flag.Int("sgd-epochs", 90, "SGD epoch budget")
		kfacEpochs = flag.Int("kfac-epochs", 55, "K-FAC epoch budget")
		workers    = flag.Bool("workers", false, "print per-worker eigendecomposition times")
		precision  = flag.String("precision", "f32", "modeled element width: f32 (the paper's wire format) or f64")
		ranksNode  = flag.Int("ranks-per-node", 0, "modeled ranks per node (0 = topology default)")
		nodesRack  = flag.Int("nodes-per-rack", 0, "modeled nodes per rack (0 = topology default)")
		memBudget  = flag.Float64("mem-budget", 0, "per-worker decomposition memory budget in MB (0 = unlimited)")
		planSweep  = flag.Bool("plan-sweep", false, "print the planner's candidate grid with predictions")
	)
	flag.Usage = usage
	flag.Parse()

	cat, err := models.CatalogByName(*model)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	var strat kfac.Strategy
	switch *strategy {
	case "layerwise":
		strat = kfac.LayerWise
	case "greedy":
		strat = kfac.SizeGreedy
	case "roundrobin":
		strat = kfac.RoundRobin
	default:
		fmt.Fprintf(os.Stderr, "unknown strategy %q\n", *strategy)
		os.Exit(2)
	}
	var dmode kfac.DistMode
	switch *distMode {
	case "auto":
		dmode = kfac.DistAuto
	case "commopt":
		dmode = kfac.CommOpt
	case "memopt":
		dmode = kfac.MemOpt
	case "hybrid":
		dmode = kfac.Hybrid
	default:
		fmt.Fprintf(os.Stderr, "unknown -dist-mode %q (want auto, commopt, memopt, or hybrid)\n", *distMode)
		os.Exit(2)
	}
	if dmode == kfac.Hybrid && (*gradFrac <= 0 || *gradFrac >= 1) {
		fmt.Fprintf(os.Stderr, "-dist-mode hybrid needs -grad-worker-frac strictly between 0 and 1 (got %v)\n", *gradFrac)
		os.Exit(2)
	}
	if dmode != kfac.Hybrid && *gradFrac != 0 {
		fmt.Fprintf(os.Stderr, "-grad-worker-frac requires -dist-mode hybrid\n")
		os.Exit(2)
	}

	pr, err := kfac.ParsePrecision(*precision)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	cluster := simulate.DefaultV100Cluster()
	bytesPerElem := 4.0
	if pr == kfac.F64 {
		// Model double-width payloads: twice the bytes through the same
		// interconnect model.
		bytesPerElem = 8.0
	}
	cluster.BytesPerElem = bytesPerElem

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
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	pm := simulate.NewPlanModel(topo, cluster)
	pm.InvUpdateFreq = f
	pm.BaseStepSec = m.FwdBwdTime()
	budgetBytes := int64(*memBudget * 1e6)
	plannerCfg := kfac.AutoPlannerConfig{Model: pm, MemoryBudgetBytes: budgetBytes}
	dec := kfac.ResolveAutoPlan(plannerCfg, strat, cat.FactorRefs(), *gpus)

	fmt.Printf("model %s: %.1fM params, %d K-FAC layers, %d iterations/epoch at %d GPUs\n",
		cat.Name, float64(cat.TotalParams())/1e6, len(cat.Layers), m.IterationsPerEpoch(*gpus), *gpus)

	if dmode == kfac.DistAuto {
		// Cost-model-driven DistAuto, over the catalog's exact factor
		// geometry: the planner is an offline/admission tool (here and in
		// ctl.PlacementHint); a training job runs the mode, fraction and
		// group size it picks only when launched with them explicitly.
		dmode, *gradFrac = dec.Mode, dec.GradWorkerFrac
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

	// Resolve the real distribution plan over the catalog's exact factor
	// dimensions and report the per-rank eigenbasis footprint — the memory
	// side of the MEM-OPT/COMM-OPT tradeoff (FP32 on the modeled cluster).
	plan := kfac.BuildPlan(strat, dmode, *gradFrac, cat.FactorRefs(), *gpus)
	elems := plan.DecompElemsPerRank(cat.FactorRefs())
	sortedElems := append([]int64(nil), elems...)
	sort.Slice(sortedElems, func(a, b int) bool { return sortedElems[a] < sortedElems[b] })
	elemMB := bytesPerElem / 1e6 // bytes per element → MB at the modeled width
	fmt.Printf("plan %s (%s elements)\n", plan, pr)
	fmt.Printf("eigenbasis memory/rank: min %.1f MB, median %.1f MB, max %.1f MB (COMM-OPT would hold %.1f MB everywhere)\n",
		float64(sortedElems[0])*elemMB, float64(sortedElems[len(sortedElems)/2])*elemMB,
		float64(sortedElems[len(sortedElems)-1])*elemMB,
		float64(maxElems(kfac.BuildPlan(strat, kfac.CommOpt, 0, cat.FactorRefs(), *gpus).DecompElemsPerRank(cat.FactorRefs())))*elemMB)
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
		for _, cand := range kfac.PlanCandidates(plannerCfg) {
			ev := pm.Evaluate(strat, cat.FactorRefs(), *gpus, cand)
			mn, md, mx := ev.MemStats()
			status := ""
			if budgetBytes > 0 && ev.MaxMemBytes > budgetBytes {
				status = "over-budget"
			}
			if cand == dec.PlanCandidate {
				status += " <- chosen"
			}
			fmt.Printf("  %-8s %-6g %-5d  %9.2f  %8.1f %8.1f %8.1f  %s\n",
				cand.Mode, cand.GradWorkerFrac, cand.GroupSize, ev.StepSec*1e3,
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
		sorted := append([]float64(nil), times...)
		sort.Float64s(sorted)
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

// maxElems returns the largest per-rank element count.
func maxElems(elems []int64) int64 {
	var m int64
	for _, v := range elems {
		if v > m {
			m = v
		}
	}
	return m
}
