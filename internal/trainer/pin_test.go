package trainer

import (
	"hash/fnv"
	"math"
	"runtime"
	"sync"
	"testing"

	"repro/internal/kfac"
)

// defaultTrajectoryHash is the FNV-1a hash of the final parameter bits of the
// run in TestDefaultTrajectoryBitsPinned. A change that moves the trajectory
// on purpose updates it and says so. exactTrajectoryHash is the same run's
// under the exact arm (every refresh a full eigensolve), the value
// defaultTrajectoryHash held before the power refresh tier.
const (
	defaultTrajectoryHash = 0x61d2bfa268731a70
	exactTrajectoryHash   = 0x79858811bb35829e
)

// TestDefaultTrajectoryBitsPinned pins the bits of a 2-rank K-FAC session at
// the default options: 24 steps (3 epochs of 8) over sharded data, the fused
// gradient exchange, factor averaging and decomposition, preconditioning and
// momentum SGD. Any change to the arithmetic of that path moves the hash.
// Only the update intervals are shortened: at the paper's 10 and 100 a
// 24-step run decomposes once, before the running average ever folds in a
// second factor. At interval 4 the refreshes of steps 4–16 take the power
// tier and step 20's the full solve; the exact arm, which runs the full
// solve at every refresh, must still hash to the bits from before the tier
// existed. The hashes hold on amd64 only: math.Exp and friends have
// per-architecture assembly.
func TestDefaultTrajectoryBitsPinned(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("trajectory bits are pinned on amd64, not %s", runtime.GOARCH)
	}
	for _, arm := range []struct {
		name  string
		exact bool
		want  uint64
	}{{"default", false, defaultTrajectoryHash}, {"exact", true, exactTrajectoryHash}} {
		if got := defaultTrajectoryBits(t, arm.exact); got != arm.want {
			t.Errorf("%s arm: final parameter hash %#x, want %#x: the trajectory's bits moved", arm.name, got, arm.want)
		}
	}
}

// defaultTrajectoryBits runs TestDefaultTrajectoryBitsPinned's session, under
// the exact arm when exact is set, and returns the hash both ranks agree on.
func defaultTrajectoryBits(t *testing.T, exact bool) uint64 {
	t.Helper()
	train, test := tinyDataset(t)
	const world = 2
	var mu sync.Mutex
	hashes := make(map[int]uint64, world)
	opts := []SessionOption{WithKFACOptions(kfac.Options{FactorUpdateFreq: 2, InvUpdateFreq: 4}),
		OnCheckpoint(func(s *Session, info CheckpointInfo) error {
			h := fnv.New64a()
			var b [8]byte
			for _, p := range s.Net().Params() {
				for _, v := range p.Value.Data {
					bits := math.Float64bits(v)
					for i := range b {
						b[i] = byte(bits >> (8 * i))
					}
					h.Write(b[:])
				}
			}
			mu.Lock()
			hashes[s.Rank()] = h.Sum64()
			mu.Unlock()
			return nil
		})}
	if exact {
		opts = append(opts, exactArm())
	}
	trainWorld(t, world, train, test, opts...)
	if len(hashes) != world || hashes[0] != hashes[1] {
		t.Fatalf("ranks disagree on the final parameters: %#x", hashes)
	}
	return hashes[0]
}
