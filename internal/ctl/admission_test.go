package ctl

import (
	"bytes"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/kfac"
	"repro/internal/simulate"
)

// tinySpec returns a valid 2-worker MLP job; tests mutate it.
func tinySpec() *JobSpec {
	return &JobSpec{
		Name:  "tiny",
		User:  "alice",
		Model: ModelSpec{Kind: "mlp", Dims: []int{16, 8, 4}, Classes: 4},
		Data: DataSpec{
			Train: 32, Test: 8, Classes: 4, Channels: 1, Size: 4, Seed: 7,
		},
		World: 2, Epochs: 2, BatchPerRank: 4, LR: 0.05,
	}
}

func TestValidateCatchesInconsistentSpecs(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*JobSpec)
	}{
		{"unknown model kind", func(s *JobSpec) { s.Model.Kind = "transformer" }},
		{"class mismatch", func(s *JobSpec) { s.Model.Classes = 10 }},
		{"mlp input dim mismatch", func(s *JobSpec) { s.Model.Dims = []int{12, 8, 4} }},
		{"zero world", func(s *JobSpec) { s.World = 0 }},
		{"min_world above world", func(s *JobSpec) { s.MinWorld = 5 }},
		{"no epochs", func(s *JobSpec) { s.Epochs = 0 }},
		{"negative lr", func(s *JobSpec) { s.LR = -1 }},
		{"hybrid without frac", func(s *JobSpec) { s.KFAC = &KFACSpec{DistMode: kfac.Hybrid} }},
		{"frac without hybrid", func(s *JobSpec) {
			s.KFAC = &KFACSpec{DistMode: kfac.MemOpt, GradWorkerFrac: 0.5}
		}},
		{"bad precision", func(s *JobSpec) { s.KFAC = &KFACSpec{Precision: 7} }},
		{"negative damping", func(s *JobSpec) { s.KFAC = &KFACSpec{Damping: -1} }},
		{"negative inv_update_freq", func(s *JobSpec) { s.KFAC = &KFACSpec{InvUpdateFreq: -5} }},
		{"negative factor_update_freq", func(s *JobSpec) { s.KFAC = &KFACSpec{FactorUpdateFreq: -2} }},
		{"negative autotune_interval", func(s *JobSpec) {
			s.KFAC = &KFACSpec{Autotune: true, AutotuneInterval: -1}
		}},
		{"unknown compression", func(s *JobSpec) { s.KFAC = &KFACSpec{Compression: "qsgd"} }},
		{"topk without fraction", func(s *JobSpec) { s.KFAC = &KFACSpec{Compression: "topk"} }},
		{"topk fraction above 1", func(s *JobSpec) {
			s.KFAC = &KFACSpec{Compression: "topk", TopKFraction: 1.5}
		}},
		{"fraction without topk", func(s *JobSpec) {
			s.KFAC = &KFACSpec{Compression: "float16", TopKFraction: 0.1}
		}},
		{"no_error_feedback without codec", func(s *JobSpec) {
			s.KFAC = &KFACSpec{NoErrorFeedback: true}
		}},
		{"autotune_interval without autotune", func(s *JobSpec) {
			s.KFAC = &KFACSpec{AutotuneInterval: 2}
		}},
		{"chaos rank outside world", func(s *JobSpec) {
			s.Chaos = &ChaosSpec{KillRank: 2, KillAtEpoch: 0}
		}},
		{"chaos on 1-rank world", func(s *JobSpec) {
			s.World, s.MinWorld = 1, 1
			s.Chaos = &ChaosSpec{KillRank: 0, KillAtEpoch: 0}
		}},
	}
	for _, c := range cases {
		s := tinySpec()
		c.mut(s)
		if err := s.Validate(); err == nil {
			t.Errorf("%s: Validate accepted the spec", c.name)
		}
	}
	if err := tinySpec().Validate(); err != nil {
		t.Fatalf("baseline spec rejected: %v", err)
	}
}

// TestKFACSpecCompressionResolves pins the wire-name → Options mapping of
// the compression, autotune and enum knobs.
func TestKFACSpecCompressionResolves(t *testing.T) {
	o, err := KFACSpec{Compression: "topk", TopKFraction: 0.1, Autotune: true, AutotuneInterval: 3}.options(2)
	if err != nil {
		t.Fatal(err)
	}
	if o.Compression == nil || o.Compression.Name() != "topk" {
		t.Errorf("topk spec resolved to codec %v", o.Compression)
	}
	if o.Autotune == nil || o.Autotune.Interval != 3 {
		t.Errorf("autotune spec resolved to %+v", o.Autotune)
	}
	o, err = KFACSpec{Compression: "float16", NoErrorFeedback: true}.options(2)
	if err != nil {
		t.Fatal(err)
	}
	if o.Compression == nil || o.Compression.Name() != "float16" || !o.NoErrorFeedback {
		t.Errorf("float16 bare spec resolved to %v / NoEF=%v", o.Compression, o.NoErrorFeedback)
	}
	o, err = KFACSpec{}.options(2)
	if err != nil || o.Compression != nil || o.Autotune != nil {
		t.Errorf("empty spec resolved to %v %+v (err %v)", o.Compression, o.Autotune, err)
	}
	// The enum fields decode the kfac tokens in any case, and encode them
	// back canonically.
	var k KFACSpec
	if err := json.Unmarshal([]byte(`{"dist_mode": "MEMOPT", "precision": "F32"}`), &k); err != nil {
		t.Fatal(err)
	}
	if k.DistMode != kfac.MemOpt || k.Precision != kfac.F32 {
		t.Errorf("decoded %+v, want MEM-OPT f32", k)
	}
	if b, _ := json.Marshal(k); string(b) != `{"dist_mode":"memopt","precision":"f32"}` {
		t.Errorf("encoded %s", b)
	}
	if err := json.Unmarshal([]byte(`{"precision": "fp16"}`), &k); err == nil {
		t.Error(`"precision": "fp16" decoded`)
	}
}

func TestAdmitWorkerQuota(t *testing.T) {
	s := tinySpec()
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	if err := Admit(s, Fleet{Workers: 2}); err != nil {
		t.Errorf("2-worker job rejected by 2-worker fleet: %v", err)
	}
	err := Admit(s, Fleet{Workers: 1})
	if err == nil {
		t.Fatal("2-worker job admitted to 1-worker fleet")
	}
	var adm *AdmissionError
	if !errors.As(err, &adm) {
		t.Errorf("rejection is %T, want *AdmissionError", err)
	}
	if !strings.Contains(err.Error(), "wants 2 workers") {
		t.Errorf("rejection %q does not name the quota", err)
	}
}

// The memory check models the actual distribution plan: a COMM-OPT job
// whose decompositions exceed the per-worker budget is rejected with the
// numbers named, while the same model under MEM-OPT (1/world of the
// resident footprint) fits.
func TestAdmitMemoryFootprintFollowsPlan(t *testing.T) {
	s := tinySpec()
	s.Model = ModelSpec{Kind: "mlp", Dims: []int{64, 64, 4}, Classes: 4}
	s.Data.Size = 8 // 1×8×8 = 64, matching the MLP input
	s.World = 4
	s.KFAC = &KFACSpec{DistMode: kfac.CommOpt}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	refs, err := s.Model.FactorRefs()
	if err != nil {
		t.Fatal(err)
	}
	// Derive a budget between the two modes' worst ranks: MEM-OPT (owner-
	// only residency) fits, COMM-OPT (every factor on every rank) does not.
	worstOf := func(mode kfac.DistMode) int64 {
		plan := kfac.BuildPlan(kfac.RoundRobin, mode, 0, refs, s.World)
		var worst int64
		for _, elems := range plan.DecompElemsPerRank(refs) {
			if b := elems * decompBytesPerElem; b > worst {
				worst = b
			}
		}
		return worst
	}
	memNeed, commNeed := worstOf(kfac.MemOpt), worstOf(kfac.CommOpt)
	if memNeed >= commNeed {
		t.Fatalf("test premise broken: MEM-OPT worst rank %d ≥ COMM-OPT %d", memNeed, commNeed)
	}
	budget := (memNeed + commNeed) / 2

	fleet := Fleet{Workers: 8, MemoryPerWorker: budget}
	err = Admit(s, fleet)
	if err == nil {
		t.Fatal("COMM-OPT job admitted past the memory budget")
	}
	if !strings.Contains(err.Error(), "bytes of decomposition memory") ||
		!strings.Contains(err.Error(), "planner hint: dist_mode=") {
		t.Errorf("rejection %q should name the footprint and carry a planner hint", err)
	}

	// The hint contract: a FitsBudget placement, applied to the spec,
	// passes the same admission check that rejected the original.
	hint, hintErr := PlacementHint(s, fleet, simulate.DefaultTopology())
	if hintErr != nil {
		t.Fatalf("PlacementHint: %v", hintErr)
	}
	if !hint.FitsBudget {
		t.Fatalf("planner found no fitting candidate under budget %d: %+v", budget, hint)
	}
	hinted := *s
	hinted.KFAC = &KFACSpec{DistMode: hint.DistMode, GradWorkerFrac: hint.GradWorkerFrac}
	if err := Admit(&hinted, fleet); err != nil {
		t.Errorf("hinted configuration %+v rejected under the same budget: %v", hint, err)
	}

	memopt := *s
	memopt.KFAC = &KFACSpec{DistMode: kfac.MemOpt}
	if err := Admit(&memopt, fleet); err != nil {
		t.Errorf("MEM-OPT variant rejected under the same budget: %v", err)
	}

	// No K-FAC → no decomposition state → no memory check.
	plain := *s
	plain.KFAC = nil
	if err := Admit(&plain, Fleet{Workers: 8, MemoryPerWorker: 1}); err != nil {
		t.Errorf("non-K-FAC job rejected on K-FAC memory: %v", err)
	}
}

// TestAdmitRefusesOversizedModelUnbuilt: one POSTed K-FAC spec with a huge
// width used to reach FactorRefs inside Admit, which builds the model — a
// 309 GB allocation and a fatal out-of-memory, not a recoverable panic. On
// a fleet that declares per-worker memory, Admit now refuses such a model
// from its closed-form parameter count before building anything. (Over the
// API the long MLP below never gets this far: see
// TestSubmitRejectsOversizedBody.)
func TestAdmitRefusesOversizedModelUnbuilt(t *testing.T) {
	body := `{"name": "huge", "model": {"kind": "cifar-resnet", "blocks": 1, "width": 65536},
		"data": {"train": 8, "test": 8, "classes": 10, "channels": 3, "size": 8},
		"world": 1, "epochs": 1, "batch_per_rank": 4, "lr": 0.1, "kfac": {}}`
	huge, err := decodeJobSpec(strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	// The long unit-width MLP: about 8.4M parameters in 4M layers.
	deep := tinySpec()
	deep.Model.Dims = make([]int, 1<<22)
	for i := range deep.Model.Dims {
		deep.Model.Dims[i] = 1
	}
	deep.Model.Dims[0], deep.Model.Dims[len(deep.Model.Dims)-1] = 16, 4
	deep.KFAC = &KFACSpec{DistMode: kfac.MemOpt}
	wide := tinySpec()
	wide.Model = ModelSpec{Kind: "smallcnn", Width: 1 << 40, Channels: 1, Classes: 4}
	tall := tinySpec()
	tall.Model = ModelSpec{Kind: "cifar-resnet", Blocks: 1 << 40, Width: 1, Channels: 1, Classes: 4}
	for _, s := range []*JobSpec{&huge, deep, wide, tall} {
		s.KFAC = &KFACSpec{DistMode: kfac.MemOpt}
		if err := s.Validate(); err != nil {
			t.Fatalf("%s: %v", s.Model.Kind, err)
		}
		start := time.Now()
		err := Admit(s, Fleet{Workers: 4, MemoryPerWorker: 1 << 20})
		var adm *AdmissionError
		if !errors.As(err, &adm) || !strings.Contains(err.Error(), "parameters") {
			t.Errorf("%s: Admit = %v, want a parameter-count rejection", s.Model.Kind, err)
		}
		if d := time.Since(start); d > time.Second {
			t.Errorf("%s: refusing the oversized model took %v", s.Model.Kind, d)
		}
	}
	if err := (ModelSpec{Kind: "mlp", Dims: []int{4, 4}, Classes: -1}).validate(); err == nil {
		t.Error("validate accepted a negative class count")
	}
}

// TestAdmitParamBoundIsNecessary holds the premise Admit's closed-form
// refusal rests on: under every distribution mode and world size, the
// ranks' decomposition footprints sum to at least one element per model
// parameter, so a model refused for its parameter count would fail the
// plan check too. Width 1 and one input channel are the tightest cases
// (batch-norm parameters weigh most against the factors).
func TestAdmitParamBoundIsNecessary(t *testing.T) {
	for _, m := range []ModelSpec{
		{Kind: "smallcnn", Width: 1, Channels: 1, Classes: 2},
		{Kind: "smallcnn", Width: 6},
		{Kind: "cifar-resnet", Blocks: 1, Width: 1, Channels: 1, Classes: 2},
		{Kind: "cifar-resnet", Blocks: 2, Width: 3},
		{Kind: "mlp", Dims: []int{1, 1, 1, 2}},
		{Kind: "mlp", Dims: []int{16, 64, 4}},
	} {
		refs, err := m.FactorRefs()
		if err != nil {
			t.Fatal(err)
		}
		for _, mode := range []kfac.DistMode{kfac.CommOpt, kfac.MemOpt, kfac.Hybrid} {
			for world := 1; world <= 5; world++ {
				plan := kfac.BuildPlan(kfac.RoundRobin, mode, 0.5, refs, world)
				var sum int64
				for _, elems := range plan.DecompElemsPerRank(refs) {
					sum += elems
				}
				if float64(sum) < m.params() {
					t.Errorf("%+v %v world %d: decompositions hold %d elements, the model has %v parameters",
						m, mode, world, sum, m.params())
				}
			}
		}
	}
}

// TestSubmitRejectsOversizedBody: the body cap is what bounds an mlp's
// layer count over the API. The long unit-width spec — 4M layers, an 8 MB
// body — is refused with 413 before it is decoded, and no job is recorded.
func TestSubmitRejectsOversizedBody(t *testing.T) {
	d, err := NewDaemon(Config{
		Fleet:     Fleet{Workers: 4, MemoryPerWorker: 64 << 20},
		StoreDir:  t.TempDir(),
		Heartbeat: fastHeartbeat,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	srv := httptest.NewServer(NewHandler(d))
	defer srv.Close()

	var body strings.Builder
	body.WriteString(`{"name": "deep", "model": {"kind": "mlp", "classes": 4, "dims": [16`)
	for i := 0; i < 1<<22; i++ {
		body.WriteString(",1")
	}
	body.WriteString(`,4]}, "data": {"train": 32, "test": 8, "classes": 4, "channels": 1, "size": 4},
		"world": 2, "epochs": 1, "batch_per_rank": 4, "lr": 0.05, "kfac": {"dist_mode": "memopt"}}`)
	resp, err := srv.Client().Post(srv.URL+"/api/v1/jobs", "application/json", strings.NewReader(body.String()))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Errorf("status %d, want %d", resp.StatusCode, http.StatusRequestEntityTooLarge)
	}
	if jobs := d.Jobs(); len(jobs) != 0 {
		t.Errorf("oversized body recorded %d job(s)", len(jobs))
	}
}

// FuzzJobSpecDecode feeds arbitrary request bodies through the submit
// handler's decoder, Validate and Admit on a small fleet that declares
// per-worker memory, so an accepted K-FAC spec reaches FactorRefs. Any
// input must end in an error or an admission decision: never a panic, and
// never an admitted model whose parameters exceed the workers' budgets.
func FuzzJobSpecDecode(f *testing.F) {
	f.Add([]byte(`{"name": "tiny", "model": {"kind": "mlp", "dims": [16, 8, 4], "classes": 4},
		"data": {"train": 32, "test": 8, "classes": 4, "channels": 1, "size": 4},
		"world": 2, "epochs": 2, "batch_per_rank": 4, "lr": 0.05, "kfac": {"dist_mode": "memopt"}}`))
	f.Add([]byte(`{"name": "cnn", "model": {"kind": "smallcnn", "width": 4},
		"data": {"train": 8, "test": 8, "classes": 10, "channels": 3, "size": 8},
		"world": 1, "epochs": 1, "batch_per_rank": 2, "lr": 0.1, "kfac": {}}`))
	f.Add([]byte(`{"name": "res", "model": {"kind": "cifar-resnet", "blocks": 1, "width": 4},
		"data": {"train": 8, "test": 8, "classes": 10, "channels": 3, "size": 8},
		"world": 2, "epochs": 3, "batch_per_rank": 2, "lr": 0.1,
		"kfac": {"dist_mode": "hybrid", "grad_worker_frac": 0.5},
		"chaos": {"kill_rank": 1, "kill_at_epoch": 1}}`))
	f.Add([]byte(`{"name": "huge", "model": {"kind": "cifar-resnet", "blocks": 1, "width": 65536},
		"data": {"train": 8, "test": 8, "classes": 10, "channels": 3, "size": 8},
		"world": 1, "epochs": 1, "batch_per_rank": 4, "lr": 0.1, "kfac": {}}`))
	f.Add([]byte(`{"model": {"kind": "mlp", "dims": [3, -1]}, "bogus": 1}`))
	f.Add([]byte(`[]`))
	fleet := Fleet{Workers: 4, MemoryPerWorker: 1 << 20}
	f.Fuzz(func(t *testing.T, body []byte) {
		spec, err := decodeJobSpec(bytes.NewReader(body))
		if err != nil {
			return
		}
		if err := spec.Validate(); err != nil {
			return
		}
		err = Admit(&spec, fleet)
		if err == nil && spec.KFAC != nil &&
			decompBytesPerElem*spec.Model.params() > float64(spec.World)*float64(fleet.MemoryPerWorker) {
			t.Fatalf("Admit accepted a model of %g parameters", spec.Model.params())
		}
		var adm *AdmissionError
		if err != nil && !errors.As(err, &adm) {
			t.Fatalf("Admit returned %T, want *AdmissionError", err)
		}
	})
}

func TestAdmitEmptyFleet(t *testing.T) {
	s := tinySpec()
	if err := Admit(s, Fleet{}); err == nil {
		t.Error("job admitted to an empty fleet")
	}
}
