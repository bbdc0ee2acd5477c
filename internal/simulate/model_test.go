package simulate

import (
	"math"
	"testing"

	"repro/internal/kfac"
	"repro/internal/models"
)

// relClose reports |got−want| ≤ tol·|want| (exact equality for want = 0).
func relClose(got, want, tol float64) bool {
	return math.Abs(got-want) <= tol*math.Abs(want)
}

func TestPaperModelPricesThePlan(t *testing.T) {
	// Model is the paper's constants layered on one PlanModel.Evaluate on
	// ClusterConfig.Topology(p): every K-FAC stage it reports is a PlanEval
	// field of the plan it runs, composed only with the paper terms (factor
	// compute, SGD iteration, contention on the two bulk collectives,
	// bookkeeping overhead).
	const tol = 1e-12
	c := DefaultV100Cluster()
	refs := models.ResNet50Catalog().FactorRefs()
	dists := []struct {
		mode kfac.DistMode
		frac float64
	}{{kfac.DistAuto, 0}, {kfac.MemOpt, 0}, {kfac.Hybrid, 0.25}}
	for _, d := range dists {
		m := r50Model()
		m.DistMode, m.GradWorkerFrac = d.mode, d.frac
		for _, strategy := range []kfac.Strategy{kfac.RoundRobin, kfac.LayerWise, kfac.SizeGreedy} {
			cand := kfac.PlanCandidate{Mode: kfac.ResolveDistMode(d.mode, strategy), GradWorkerFrac: d.frac}
			for _, p := range []int{16, 64, 256} {
				name := func(what string) string {
					return what + " " + strategy.String() + "/" + cand.Mode.String()
				}
				pm := NewPlanModel(c.Topology(p), c)
				pm.FactorUpdateFreq, pm.InvUpdateFreq = 1, 1
				stage := pm.Evaluate(strategy, refs, p, cand)

				fComp, fComm := m.FactorStage(p)
				if !relClose(fComm, stage.FactorCommSec, tol) {
					t.Errorf("%s p=%d: %v, plan %v", name("factor comm"), p, fComm, stage.FactorCommSec)
				}
				eComp, eComm := m.EigStage(p, strategy)
				if !relClose(eComp, stage.EigComputeSec, tol) || !relClose(eComm, stage.EigCommSec, tol) {
					t.Errorf("%s p=%d: (%v, %v), plan (%v, %v)", name("eig stage"), p,
						eComp, eComm, stage.EigComputeSec, stage.EigCommSec)
				}
				workers := m.WorkerEigTimes(p, strategy)
				if len(workers) != p {
					t.Fatalf("%s p=%d: %d workers", name("worker eig times"), p, len(workers))
				}
				for r, w := range workers {
					if !relClose(w, stage.EigSecPerRank[r], tol) {
						t.Errorf("%s p=%d rank %d: %v, plan %v", name("worker eig time"), p, r, w, stage.EigSecPerRank[r])
					}
				}

				inv := PaperInvFreq(p)
				fac := max(inv/10, 1)
				pm.FactorUpdateFreq, pm.InvUpdateFreq = fac, inv
				ev := pm.Evaluate(strategy, refs, p, cand)
				cont := c.stageContention(p)
				overhead := m.perIterOverhead()
				if strategy == kfac.LayerWise {
					overhead *= 0.5
				}
				want := m.SGDIterTime(p) + fComp/float64(fac) +
					ev.FactorCommSec*cont + ev.EigComputeSec + ev.EigCommSec*cont +
					ev.PrecondSec + ev.ResultBcastSec + overhead
				if got := m.KFACIterAvgTime(p, inv, strategy); !relClose(got, want, tol) {
					t.Errorf("%s p=%d: %v, plan-composed %v", name("iteration"), p, got, want)
				}
			}
		}
	}
}

func TestTable5StageShape(t *testing.T) {
	// Table V's ordering: eig Tcomp is the largest stage for every model at
	// 16, 32 and 64 GPUs and shrinks as p grows; factor Tcomp is constant
	// in p.
	for _, cat := range []*models.Catalog{
		models.ResNet50Catalog(), models.ResNet101Catalog(), models.ResNet152Catalog(),
	} {
		m := NewModel(DefaultV100Cluster(), ImageNetWorkload(cat))
		prevEig := math.Inf(1)
		fComp16, _ := m.FactorStage(16)
		for _, p := range []int{16, 32, 64} {
			fComp, fComm := m.FactorStage(p)
			eComp, eComm := m.EigStage(p, kfac.RoundRobin)
			if eComp <= fComp || eComp <= fComm || eComp <= eComm {
				t.Errorf("%s p=%d: eig Tcomp %.1f ms is not the largest stage (factor %.1f + %.1f, eig comm %.1f)",
					cat.Name, p, eComp*1e3, fComp*1e3, fComm*1e3, eComm*1e3)
			}
			if eComp >= prevEig {
				t.Errorf("%s p=%d: eig Tcomp %.1f ms did not shrink from %.1f ms", cat.Name, p, eComp*1e3, prevEig*1e3)
			}
			prevEig = eComp
			if fComp != fComp16 {
				t.Errorf("%s p=%d: factor Tcomp %v differs from p=16's %v", cat.Name, p, fComp, fComp16)
			}
		}
	}
}
