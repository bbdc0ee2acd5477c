package kfac

import (
	"testing"
	"time"
)

func TestStageStatsAccumulate(t *testing.T) {
	net := buildTinyNet(35)
	p := NewFromOptions(net, nil, Options{FactorUpdateFreq: 1, InvUpdateFreq: 2})
	for i := 0; i < 4; i++ {
		runStep(net, int64(400+i), 4)
		if err := p.Step(0.1); err != nil {
			t.Fatal(err)
		}
	}
	st := p.Stats().Snapshot()
	if st.Steps != 4 {
		t.Errorf("Steps = %d, want 4", st.Steps)
	}
	if st.FactorUpdates != 4 {
		t.Errorf("FactorUpdates = %d, want 4", st.FactorUpdates)
	}
	if st.EigUpdates != 2 { // iters 0 and 2
		t.Errorf("EigUpdates = %d, want 2", st.EigUpdates)
	}
	if st.FactorCompute <= 0 || st.EigCompute <= 0 || st.Precondition <= 0 {
		t.Error("stage durations not recorded")
	}
	// Single process: no communication time.
	if st.FactorComm != 0 || st.EigComm != 0 {
		t.Error("unexpected comm time in single-process run")
	}
	if p.Stats().String() == "" {
		t.Error("empty stats string")
	}
	fc, fm := p.Stats().PerFactorUpdate()
	if fc <= 0 || fm != 0 {
		t.Errorf("PerFactorUpdate = %v, %v", fc, fm)
	}
	ec, em := p.Stats().PerEigUpdate()
	if ec <= 0 || em != 0 {
		t.Errorf("PerEigUpdate = %v, %v", ec, em)
	}
}

func TestStageStatsEmpty(t *testing.T) {
	var s StageStats
	if c, m := s.PerFactorUpdate(); c != 0 || m != 0 {
		t.Error("empty PerFactorUpdate should be zero")
	}
	if c, m := s.PerEigUpdate(); c != 0 || m != 0 {
		t.Error("empty PerEigUpdate should be zero")
	}
	s.add(&s.Precondition, time.Millisecond)
	if s.Snapshot().Precondition != time.Millisecond {
		t.Error("add/Snapshot mismatch")
	}
}
