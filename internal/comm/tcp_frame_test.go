package comm

import (
	"bytes"
	"context"
	"encoding/binary"
	"math"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"
)

// frameBytes encodes a frame whose header announces count values and whose
// payload holds the given ones (fewer than count = a truncated payload).
func frameBytes(tag uint64, count uint32, payload ...float64) []byte {
	b := make([]byte, tcpHeaderLen+8*len(payload))
	binary.LittleEndian.PutUint64(b[0:8], tag)
	binary.LittleEndian.PutUint32(b[8:12], count)
	for i, v := range payload {
		binary.LittleEndian.PutUint64(b[tcpHeaderLen+8*i:], math.Float64bits(v))
	}
	return b
}

// FuzzTCPFrameHeader feeds arbitrary bytes to the TCP frame decoder as one
// connection's stream. The header is untrusted: the decoder must return an
// error or a payload of exactly the announced count — never panic, and
// never size anything by a count over the bound (here 1<<12 values, so the
// fuzzer reaches both sides of it cheaply).
func FuzzTCPFrameHeader(f *testing.F) {
	const bound = 1 << 12
	f.Add(frameBytes(7, 3, 1, 2, 3))           // valid small frame
	f.Add(frameBytes(8, 0))                    // count = 0
	f.Add(frameBytes(9, math.MaxUint32))       // count = 1<<32 − 1
	f.Add(frameBytes(10, 3)[:7])               // truncated header
	f.Add(frameBytes(11, 3, 1, 2))             // truncated payload
	f.Add(frameBytes(12, bound+1, 1, 2, 3, 4)) // one over the bound
	f.Add(frameBytes(13, 2, 1, 2, 3)[:12+8+3]) // payload cut inside a value
	f.Add(append(frameBytes(14, 1, 5), 1, 2))  // trailing bytes after a valid frame
	f.Fuzz(func(t *testing.T, stream []byte) {
		hdr := make([]byte, tcpHeaderLen)
		piece := make([]byte, 64) // 8 values per piece: payloads span pieces
		tag, data, err := readFrame(bytes.NewReader(stream), hdr, piece, bound)
		if len(stream) < tcpHeaderLen {
			if err == nil {
				t.Fatalf("decoded a frame from a %d-byte stream", len(stream))
			}
			return
		}
		wantTag := binary.LittleEndian.Uint64(stream[0:8])
		count := binary.LittleEndian.Uint32(stream[8:12])
		switch {
		case count > bound:
			if err == nil || !strings.Contains(err.Error(), "over the bound") {
				t.Fatalf("count %d over the bound %d: err = %v", count, bound, err)
			}
			if data != nil {
				t.Fatalf("count %d over the bound: decoder returned %d values", count, len(data))
			}
		case len(stream)-tcpHeaderLen < 8*int(count):
			if err == nil {
				t.Fatalf("count %d with %d payload bytes decoded without error", count, len(stream)-tcpHeaderLen)
			}
		default:
			if err != nil {
				t.Fatalf("valid frame (count %d): %v", count, err)
			}
			if tag != wantTag || len(data) != int(count) || cap(data) > bound {
				t.Fatalf("tag %d len %d cap %d, want tag %d and exactly %d values", tag, len(data), cap(data), wantTag, count)
			}
			for i, v := range data {
				if want := binary.LittleEndian.Uint64(stream[tcpHeaderLen+8*i:]); math.Float64bits(v) != want {
					t.Fatalf("value %d: bits %x, want %x", i, math.Float64bits(v), want)
				}
			}
		}
	})
}

// TestTCPReadFrameCommitsMemoryAsBytesArrive: a header inside the bound
// that lies about its payload must not cost its announced size. A frame
// announcing the full 2 GiB and delivering three values may allocate the
// eager limit (8 MiB) and little else.
func TestTCPReadFrameCommitsMemoryAsBytesArrive(t *testing.T) {
	stream := frameBytes(5, MaxTCPFrameValues, 1, 2, 3)
	hdr, piece := make([]byte, tcpHeaderLen), make([]byte, tcpPieceBytes)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, data, err := readFrame(bytes.NewReader(stream), hdr, piece, MaxTCPFrameValues)
	runtime.ReadMemStats(&after)
	if err == nil || data != nil {
		t.Fatalf("truncated 2 GiB frame: %d values, err = %v", len(data), err)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got > 8*tcpEagerValues+1<<20 {
		t.Errorf("truncated frame allocated %d bytes, want at most the eager limit of %d", got, 8*tcpEagerValues)
	}
}

// TestTCPReadFrameGrowsPastEagerLimit: a payload longer than the eager
// limit is delivered whole — the slice grows as the pieces arrive.
func TestTCPReadFrameGrowsPastEagerLimit(t *testing.T) {
	payload := make([]float64, tcpEagerValues+3)
	for i := range payload {
		payload[i] = float64(i)
	}
	stream := frameBytes(6, uint32(len(payload)), payload...)
	hdr, piece := make([]byte, tcpHeaderLen), make([]byte, tcpPieceBytes)
	tag, data, err := readFrame(bytes.NewReader(stream), hdr, piece, MaxTCPFrameValues)
	if err != nil || tag != 6 || len(data) != len(payload) {
		t.Fatalf("tag %d, %d values, err %v; want tag 6 and %d values", tag, len(data), err, len(payload))
	}
	for i, v := range data {
		if v != payload[i] {
			t.Fatalf("value %d = %v, want %v", i, v, payload[i])
		}
	}
}

// TestTCPFabricRejectsOversizedFrames drives the bound over a real loopback
// connection: the header encoder Send uses refuses a payload over
// MaxTCPFrameValues instead of truncating its length to 32 bits, and a
// hostile header written straight onto the connection fails the reader's
// mailbox with an error naming the peer, the tag and the announced count.
func TestTCPFabricRejectsOversizedFrames(t *testing.T) {
	addrs := freePorts(t, 2)
	fabs := make([]*TCPFabric, 2)
	var wg sync.WaitGroup
	for r := range fabs {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			var err error
			if fabs[r], err = NewTCPFabric(r, addrs, 5*time.Second); err != nil {
				t.Errorf("rank %d: %v", r, err)
			}
		}(r)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	defer fabs[0].Close()
	defer fabs[1].Close()

	// Send writes its header through putFrameHeader before it sizes
	// anything; an oversized payload stops there (checked on the length
	// alone — a real one would need 2 GiB).
	if err := putFrameHeader(make([]byte, tcpHeaderLen), 40, MaxTCPFrameValues+1); err == nil || !strings.Contains(err.Error(), "exceed the frame bound") {
		t.Errorf("oversized frame header: err = %v", err)
	}

	// A valid frame still goes through.
	if err := fabs[1].Send(0, 41, []float64{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if got, err := fabs[0].Recv(ctx, 1, 41); err != nil || len(got) != 3 || got[2] != 3 {
		t.Fatalf("valid frame: %v %v", got, err)
	}

	// Rank 1 writes a 12-byte header announcing 2^32−1 values.
	fabs[1].writeMu[0].Lock()
	_, err := fabs[1].conns[0].Write(frameBytes(42, math.MaxUint32))
	fabs[1].writeMu[0].Unlock()
	if err != nil {
		t.Fatal(err)
	}
	_, err = fabs[0].Recv(ctx, 1, 42)
	if err == nil {
		t.Fatal("Recv succeeded after a hostile header")
	}
	for _, want := range []string{"from rank 1", "tag 42", "4294967295"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not name %q", err, want)
		}
	}
}
