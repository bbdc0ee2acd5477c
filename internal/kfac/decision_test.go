package kfac

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/comm"
	"repro/internal/tensor"
)

// TestDecisionResolve pins the one precedence rule: static Options, DistAuto
// mapped through ResolveDistMode, overridden by the in-force autotune level
// in codec, fusion bound and group size — and in nothing else.
func TestDecisionResolve(t *testing.T) {
	f16, topk := comm.Float16Codec{}, comm.TopKCodec{FractionK: 0.1}
	type tc struct {
		name  string
		opts  Options
		level *TuneLevel
		want  Decision
	}
	cases := []tc{
		{name: "static defaults", opts: Options{},
			want: Decision{Mode: CommOpt, FusionBytes: comm.DefaultFusionBytes}},
		{name: "static layerwise implies memopt", opts: Options{Strategy: LayerWise},
			want: Decision{Mode: MemOpt, FusionBytes: comm.DefaultFusionBytes}},
		{name: "static explicit", opts: Options{DistMode: Hybrid, GradWorkerFrac: 0.5, GroupSize: 2,
			Compression: topk, NoErrorFeedback: true},
			want: Decision{Mode: Hybrid, GradWorkerFrac: 0.5, GroupSize: 2, Codec: topk,
				FusionBytes: comm.DefaultFusionBytes, NoErrorFeedback: true}},
		{name: "no error feedback survives a tuned codec",
			opts:  Options{Compression: topk, NoErrorFeedback: true},
			level: &TuneLevel{Name: "f16", Codec: f16, FusionBytes: 4 << 20},
			want:  Decision{Mode: CommOpt, Codec: f16, FusionBytes: 4 << 20, NoErrorFeedback: true}},
		{name: "tuned exact level drops the static codec",
			opts:  Options{Compression: f16, GroupSize: 4},
			level: &TuneLevel{Name: "exact", FusionBytes: 2 << 20},
			want:  Decision{Mode: CommOpt, FusionBytes: 2 << 20}},
	}
	// Each default level over the same static options: the level's codec,
	// fusion bound and group size win — an explicit GroupSize included —
	// while the plan fields and error-feedback mode stay static.
	static := Options{Strategy: LayerWise, GroupSize: 4, NoErrorFeedback: true}
	for _, lv := range tuneLevels {
		cases = append(cases, tc{name: "static+" + lv.Name, opts: static, level: &lv,
			want: Decision{Mode: MemOpt, GroupSize: lv.GroupSize, Codec: lv.Codec,
				FusionBytes: lv.FusionBytes, NoErrorFeedback: true}})
	}
	for _, c := range cases {
		if got := resolve(c.opts, c.level); !reflect.DeepEqual(got, c.want) {
			t.Errorf("%s: resolve = %+v, want %+v", c.name, got, c.want)
		}
	}
}

// TestDecisionNewFuserFollowsDecision: every route a Decision can select —
// exact flat, hierarchical, compressed with and without error feedback —
// averages a small-integer payload exactly (float16 is exact there) on every
// rank, and only the error-feedback route installs its codec in the
// caller's accumulator.
func TestDecisionNewFuserFollowsDecision(t *testing.T) {
	const p, n = 4, 64
	f16 := comm.Float16Codec{}
	for _, d := range []Decision{
		{FusionBytes: comm.DefaultFusionBytes},
		{FusionBytes: comm.DefaultFusionBytes, GroupSize: 2},
		{FusionBytes: comm.DefaultFusionBytes, Codec: f16},
		{FusionBytes: comm.DefaultFusionBytes, Codec: f16, NoErrorFeedback: true},
	} {
		name := fmt.Sprintf("group%d_codec%v_bare%v", d.GroupSize, d.Codec != nil, d.NoErrorFeedback)
		fab := comm.NewInprocFabric(p)
		efs := make([]*comm.ErrorFeedback, p)
		outs := make([]*tensor.Tensor, p)
		errs := make(chan error, p)
		for r := 0; r < p; r++ {
			efs[r] = comm.NewErrorFeedback(nil)
			outs[r] = tensor.New(n)
			for i := range outs[r].Data {
				outs[r].Data[i] = float64(r + i)
			}
			go func(r int) {
				fu := d.NewFuser(comm.NewCommunicator(fab.Endpoint(r)), efs[r])
				fu.Add(outs[r])
				errs <- fu.Flush()
			}(r)
		}
		for r := 0; r < p; r++ {
			if err := <-errs; err != nil {
				t.Fatalf("%s: %v", name, err)
			}
		}
		wantEF := d.Codec != nil && !d.NoErrorFeedback
		for r := 0; r < p; r++ {
			for i, v := range outs[r].Data {
				if want := float64(i) + 1.5; v != want {
					t.Fatalf("%s rank %d elem %d = %v, want %v", name, r, i, v, want)
				}
			}
			if got := efs[r].Codec() != nil; got != wantEF {
				t.Errorf("%s rank %d: accumulator codec set = %v, want %v", name, r, got, wantEF)
			}
		}
	}
}
