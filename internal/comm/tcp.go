package comm

import (
	"bufio"
	"context"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"net"
	"sync"
	"time"
)

// TCPFabric is a full-mesh TCP transport: every pair of ranks shares one
// connection, established deterministically (lower rank listens, higher rank
// dials) so the mesh forms without a coordinator. Wire format per message:
//
//	uint64 tag | uint32 count | count × float64 (little endian)
//
// with count ≤ MaxTCPFrameValues. A reader goroutine per peer
// demultiplexes frames into per-peer mailboxes.
type TCPFabric struct {
	rank, size int
	conns      []net.Conn
	writeMu    []sync.Mutex
	boxes      []*mailbox
	listener   net.Listener
	closeOnce  sync.Once
}

// MaxTCPFrameValues bounds the payload of one TCP frame, in float64 values
// (2 GiB of payload — an order of magnitude above the largest message the
// collectives send, a decomposition record of a 4608-dim factor). Send
// refuses a larger payload; a received header announcing one is treated as
// corruption and fails that peer's mailbox before anything is allocated.
const MaxTCPFrameValues = 1 << 28

const (
	// tcpHeaderLen is the encoded size of the (tag, count) frame header.
	tcpHeaderLen = 12
	// tcpPieceBytes is the size of the byte buffer a payload is decoded
	// through, piece by piece.
	tcpPieceBytes = 1 << 16
	// tcpEagerValues is the largest payload allocated on the header's word
	// alone (8 MiB); a longer one grows as its bytes actually arrive.
	tcpEagerValues = 1 << 20
)

// parseFrameHeader decodes a tcpHeaderLen-byte frame header and validates
// its count against maxValues. The header comes off the wire: nothing may be sized by count
// before this check.
func parseFrameHeader(hdr []byte, maxValues int) (tag uint64, count int, err error) {
	tag = binary.LittleEndian.Uint64(hdr[0:8])
	n := binary.LittleEndian.Uint32(hdr[8:12])
	if uint64(n) > uint64(maxValues) {
		return tag, 0, fmt.Errorf("frame tag %d announces %d values, over the bound of %d", tag, n, maxValues)
	}
	return tag, int(n), nil
}

// putFrameHeader encodes a frame header announcing count values into hdr,
// refusing a count the receiver would reject (and, beyond 2³²−1, one the
// 32-bit field would silently truncate).
func putFrameHeader(hdr []byte, tag uint64, count int) error {
	if count > MaxTCPFrameValues {
		return fmt.Errorf("frame tag %d: %d values exceed the frame bound of %d", tag, count, MaxTCPFrameValues)
	}
	binary.LittleEndian.PutUint64(hdr[0:8], tag)
	binary.LittleEndian.PutUint32(hdr[8:12], uint32(count))
	return nil
}

// readFrame reads one frame from r: the header into hdr, then the payload
// decoded through piece (len ≥ 8) straight into the returned slice. Memory
// is committed as bytes arrive — at most tcpEagerValues up front, doubling
// from there — so a header that lies about its payload costs no more than
// the bytes its sender actually delivers.
func readFrame(r io.Reader, hdr, piece []byte, maxValues int) (tag uint64, data []float64, err error) {
	if _, err := io.ReadFull(r, hdr[:tcpHeaderLen]); err != nil {
		return 0, nil, err
	}
	tag, count, err := parseFrameHeader(hdr, maxValues)
	if err != nil {
		return tag, nil, err
	}
	per := len(piece) / 8
	data = make([]float64, 0, min(count, tcpEagerValues))
	for len(data) < count {
		k := min(count-len(data), per)
		if _, err := io.ReadFull(r, piece[:8*k]); err != nil {
			return tag, nil, fmt.Errorf("frame tag %d truncated at %d of %d values: %w", tag, len(data), count, err)
		}
		if len(data)+k > cap(data) {
			grown := make([]float64, len(data), min(count, 2*cap(data)))
			copy(grown, data)
			data = grown
		}
		base := len(data)
		data = data[:base+k]
		for i := range data[base:] {
			data[base+i] = math.Float64frombits(binary.LittleEndian.Uint64(piece[8*i:]))
		}
	}
	return tag, data, nil
}

// handshake frame: the dialing rank announces itself.
type hello struct {
	Rank uint32
}

// NewTCPFabric joins a TCP world. addrs lists every rank's listen address
// (host:port), indexed by rank; addrs[rank] is this process's listen
// address. The call blocks until connections to all peers are established
// or the timeout elapses.
func NewTCPFabric(rank int, addrs []string, timeout time.Duration) (*TCPFabric, error) {
	size := len(addrs)
	if rank < 0 || rank >= size {
		return nil, fmt.Errorf("comm: rank %d out of range for %d addrs", rank, size)
	}
	f := &TCPFabric{
		rank: rank, size: size,
		conns:   make([]net.Conn, size),
		writeMu: make([]sync.Mutex, size),
		boxes:   make([]*mailbox, size),
	}
	for i := range f.boxes {
		f.boxes[i] = newMailbox()
	}
	ln, err := net.Listen("tcp", addrs[rank])
	if err != nil {
		return nil, fmt.Errorf("comm: rank %d listen %s: %w", rank, addrs[rank], err)
	}
	f.listener = ln

	deadline := time.Now().Add(timeout)
	// Bound the accept loop by the same deadline the dialers use. Without
	// it a peer that never connects left Accept — and therefore this whole
	// constructor — blocked forever, leaking the listener and every
	// goroutine of the partially formed mesh (the tcpcluster early-error
	// leak). With it, every construction goroutine provably terminates by
	// the deadline and the error path can tear the mesh down.
	if tl, ok := ln.(*net.TCPListener); ok {
		_ = tl.SetDeadline(deadline)
	}
	var wg sync.WaitGroup
	errCh := make(chan error, size)

	// Accept connections from all higher ranks.
	nAccept := size - rank - 1
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < nAccept; i++ {
			conn, err := ln.Accept()
			if err != nil {
				errCh <- fmt.Errorf("comm: rank %d accept: %w", rank, err)
				return
			}
			// The handshake read is deadline-bounded too: an accepted peer
			// that never says hello (crash between dial and write, or a
			// stray prober) must not wedge construction past its timeout.
			_ = conn.SetReadDeadline(deadline)
			var h hello
			if err := binary.Read(conn, binary.LittleEndian, &h.Rank); err != nil {
				conn.Close()
				errCh <- fmt.Errorf("comm: rank %d handshake read: %w", rank, err)
				return
			}
			_ = conn.SetReadDeadline(time.Time{}) // back to blocking for readLoop
			peer := int(h.Rank)
			if peer <= rank || peer >= size {
				conn.Close()
				errCh <- fmt.Errorf("comm: rank %d got bad hello from %d", rank, peer)
				return
			}
			f.conns[peer] = conn
			go f.readLoop(peer, conn)
		}
	}()

	// Dial all lower ranks.
	for peer := 0; peer < rank; peer++ {
		wg.Add(1)
		go func(peer int) {
			defer wg.Done()
			var conn net.Conn
			var err error
			for {
				d := net.Dialer{Deadline: deadline}
				conn, err = d.Dial("tcp", addrs[peer])
				if err == nil {
					break
				}
				if time.Now().After(deadline) {
					errCh <- fmt.Errorf("comm: rank %d dial rank %d (%s): %w", rank, peer, addrs[peer], err)
					return
				}
				time.Sleep(20 * time.Millisecond)
			}
			if err := binary.Write(conn, binary.LittleEndian, uint32(rank)); err != nil {
				conn.Close()
				errCh <- fmt.Errorf("comm: rank %d handshake write: %w", rank, err)
				return
			}
			f.conns[peer] = conn
			go f.readLoop(peer, conn)
		}(peer)
	}

	wg.Wait()
	select {
	case err := <-errCh:
		f.Close()
		return nil, err
	default:
	}
	return f, nil
}

// readLoop demultiplexes incoming frames from one peer into its mailbox. A
// read error or an invalid frame ends the loop and fails the mailbox, so
// receivers blocked on that peer wake with the cause.
func (f *TCPFabric) readLoop(peer int, conn net.Conn) {
	br := bufio.NewReaderSize(conn, 1<<16)
	hdr := make([]byte, tcpHeaderLen)
	piece := make([]byte, tcpPieceBytes)
	for {
		tag, data, err := readFrame(br, hdr, piece, MaxTCPFrameValues)
		if err != nil {
			f.boxes[peer].fail(fmt.Errorf("comm: rank %d reading from rank %d: %w", f.rank, peer, err))
			return
		}
		f.boxes[peer].put(tag, data)
	}
}

// Rank implements Transport.
func (f *TCPFabric) Rank() int { return f.rank }

// Size implements Transport.
func (f *TCPFabric) Size() int { return f.size }

// Send implements Transport.
func (f *TCPFabric) Send(to int, tag uint64, data []float64) error {
	if to == f.rank {
		cp := make([]float64, len(data))
		copy(cp, data)
		f.boxes[f.rank].put(tag, cp)
		return nil
	}
	if to < 0 || to >= f.size || f.conns[to] == nil {
		return fmt.Errorf("comm: send to invalid/unconnected rank %d", to)
	}
	var hdr [tcpHeaderLen]byte
	if err := putFrameHeader(hdr[:], tag, len(data)); err != nil {
		return fmt.Errorf("comm: send to rank %d: %w", to, err)
	}
	buf := make([]byte, tcpHeaderLen+8*len(data))
	copy(buf, hdr[:])
	for i, v := range data {
		binary.LittleEndian.PutUint64(buf[tcpHeaderLen+8*i:], math.Float64bits(v))
	}
	f.writeMu[to].Lock()
	defer f.writeMu[to].Unlock()
	_, err := f.conns[to].Write(buf)
	return err
}

// Recv implements Transport.
func (f *TCPFabric) Recv(ctx context.Context, from int, tag uint64) ([]float64, error) {
	if from < 0 || from >= f.size {
		return nil, fmt.Errorf("comm: recv from invalid rank %d", from)
	}
	return f.boxes[from].take(ctx, tag)
}

// Close implements Transport.
func (f *TCPFabric) Close() error {
	f.closeOnce.Do(func() {
		if f.listener != nil {
			f.listener.Close()
		}
		for _, c := range f.conns {
			if c != nil {
				c.Close()
			}
		}
		for _, b := range f.boxes {
			b.close()
		}
	})
	return nil
}

var _ Transport = (*TCPFabric)(nil)
