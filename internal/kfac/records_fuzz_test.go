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
// decoder — the bytes a peer's allgather or broadcast delivers — under
// either Mode, which share one record shape. Whatever arrives, the decoder
// must return an error or leave every slot fully shaped for its factor; it
// must never panic, and a later Step must never meet a slot of the wrong
// dimension.
func FuzzConsumeRecords(f *testing.F) {
	_, eigenRec := recordFixture(EigenMode)
	_, inverseRec := recordFixture(InverseMode)
	f.Add(floatsToBytes(eigenRec), false)
	f.Add(floatsToBytes(inverseRec), true)
	f.Add(floatsToBytes([]float64{0, 0, -1}), false)                                  // negative n passes a naive length check
	f.Add(floatsToBytes([]float64{math.NaN(), 0.5, 4, 1, 2, 3}), false)               // NaN / fractional header fields
	f.Add(floatsToBytes(append([]float64{0, 1, 10}, make([]float64, 110)...)), false) // n is the other side's dimension
	f.Fuzz(func(t *testing.T, data []byte, inverse bool) {
		mode := EigenMode
		if inverse {
			mode = InverseMode
		}
		p, _ := recordFixture(mode)
		_ = p.consumeRecords(bytesToFloats(data)) // error or success: both fine
		checkRecordState(t, p)
	})
}
