package kfac

import (
	"encoding/binary"
	"math"
	"testing"
)

// floatsToBytes and bytesToFloats carry a record block through the fuzzer's
// []byte corpus (little-endian float64 bits; a trailing partial word is
// dropped).
func floatsToBytes(fs []float64) []byte {
	b := make([]byte, 8*len(fs))
	for i, f := range fs {
		binary.LittleEndian.PutUint64(b[8*i:], math.Float64bits(f))
	}
	return b
}

func bytesToFloats(b []byte) []float64 {
	fs := make([]float64, len(b)/8)
	for i := range fs {
		fs[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[8*i:]))
	}
	return fs
}

// FuzzConsumeRecords feeds arbitrary blocks to the decomposition-record
// decoder as the record of an arbitrary factor — the bytes a peer's
// broadcast delivers — under either Mode, which share one record shape.
// Whatever arrives, the decoder must return an error or leave every slot
// fully shaped for its factor; it must never panic, and a later Step must
// never meet a slot of the wrong dimension.
func FuzzConsumeRecords(f *testing.F) {
	_, eigenRec := recordFixture(EigenMode)
	_, inverseRec := recordFixture(InverseMode)
	f.Add(floatsToBytes(eigenRec), false, uint8(1), true)
	f.Add(floatsToBytes(inverseRec), true, uint8(1), true)
	f.Add(floatsToBytes(eigenRec), false, uint8(0), true)     // another factor's record
	f.Add([]byte(nil), false, uint8(0), false)                // empty block
	f.Add(floatsToBytes(eigenRec[1:]), false, uint8(1), true) // one value short
	f.Fuzz(func(t *testing.T, data []byte, inverse bool, layer uint8, isG bool) {
		mode := EigenMode
		if inverse {
			mode = InverseMode
		}
		p, _ := recordFixture(mode)
		// The layer and side come from the schedule, never the wire.
		_ = p.consumeRecord(int(layer)%len(p.states), isG, bytesToFloats(data)) // error or success: both fine
		checkRecordState(t, p)
	})
}
