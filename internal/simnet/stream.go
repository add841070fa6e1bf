package simnet

import (
	"fmt"
	"io"
	"sync"

	"repro/internal/transport"
)

// The simulated reliable stream models what a kernel TCP actually does per
// segment, so the RC iWARP path pays realistic protocol costs relative to
// the datagram path (whose UDP checksum the paper's stack disables as
// redundant with DDP's CRC32C — TCP's checksum cannot be disabled):
//
//   - writes are segmented to the MSS, and every segment's Internet
//     checksum (RFC 1071) is computed at the sender over a pseudo header
//     plus payload;
//   - the receiver verifies each segment's checksum, updates cumulative
//     sequence/ack state, and copies the payload out — exactly one extra
//     pass over every byte in each direction compared to a bare pipe;
//   - in-flight data is bounded by a window (Config.StreamBufSize),
//     blocking the sender like a peer's receive window.
//
// Segments are delivered reliably and in order: TCP's retransmission
// machinery is abstracted away (the paper's loss experiments are UD-only;
// on the RC side loss appears only as the throughput its reliability
// already paid for).

// DefaultStreamBufSize is each direction's in-flight byte budget, standing
// in for the TCP send/receive window on a LAN. Configurable per network via
// Config.StreamBufSize (the SO_SNDBUF/SO_RCVBUF knob): the SIP
// memory-scalability benchmark shrinks it to a realistic per-connection
// window so ten thousand connections fit in memory, just as a loaded server
// would tune its socket buffers.
const DefaultStreamBufSize = 256 << 10

// MSS is the simulated TCP maximum segment size (Ethernet MTU minus IP and
// TCP headers).
const MSS = 1448

// segHdrLen prefixes each simulated segment: 2-byte checksum, 6-byte
// sequence number (the rest of a real TCP header is modelled by the
// bookkeeping, not stored).
const segHdrLen = 8

// inetChecksum is the RFC 1071 Internet checksum over p — the per-segment
// work a non-offloaded TCP performs on every byte it moves.
func inetChecksum(p []byte) uint16 {
	var sum uint32
	for len(p) >= 2 {
		sum += uint32(p[0])<<8 | uint32(p[1])
		p = p[2:]
	}
	if len(p) == 1 {
		sum += uint32(p[0]) << 8
	}
	for sum>>16 != 0 {
		sum = sum&0xffff + sum>>16
	}
	return ^uint16(sum)
}

// streamHalf is one direction of a simulated TCP connection.
type streamHalf struct {
	q    *queue // segments in flight; capacity models the window
	acks *queue // reverse ACK traffic for this direction's sender

	wmu     sync.Mutex
	wseq    uint64 // next byte sequence to send
	lastAck uint64 // highest cumulative ack processed

	rmu     sync.Mutex
	rseq    uint64 // next byte sequence expected
	rem     []byte // unconsumed tail of the current segment
	raw     []byte // segment buffer awaiting recycle
	unacked int    // segments consumed since the last ack (delayed ack)
}

func newStreamHalf(window int) *streamHalf {
	segs := window / MSS
	if segs < 2 {
		segs = 2
	}
	return &streamHalf{q: newQueue(segs), acks: newQueue(64)}
}

// sendAck emits a cumulative ACK "packet" back toward this half's sender —
// an 8-byte checksummed segment, built and verified like real ack traffic.
// Caller holds rmu.
func (h *streamHalf) sendAck() {
	ack := getPktBuf(8)
	seq := h.rseq
	ack[2] = byte(seq >> 40)
	ack[3] = byte(seq >> 32)
	ack[4] = byte(seq >> 24)
	ack[5] = byte(seq >> 16)
	ack[6] = byte(seq >> 8)
	ack[7] = byte(seq)
	cs := inetChecksum(ack[2:])
	ack[0], ack[1] = byte(cs>>8), byte(cs)
	h.acks.putDrop(packet{payload: ack})
}

// drainAcks processes pending cumulative ACKs on the send side (window
// update, RTT bookkeeping in a real stack). Caller holds wmu.
func (h *streamHalf) drainAcks() {
	for {
		a, _, err := h.acks.getOne(noWait)
		if err != nil {
			return
		}
		if len(a) == 8 {
			want := uint16(a[0])<<8 | uint16(a[1])
			if inetChecksum(a[2:]) == want {
				seq := uint64(a[2])<<40 | uint64(a[3])<<32 | uint64(a[4])<<24 |
					uint64(a[5])<<16 | uint64(a[6])<<8 | uint64(a[7])
				if seq > h.lastAck {
					h.lastAck = seq
				}
			}
		}
		putPktBuf(a)
	}
}

// Write segments p to the MSS, checksums each segment, and queues it,
// blocking on window backpressure.
func (h *streamHalf) Write(p []byte) (int, error) {
	h.wmu.Lock()
	defer h.wmu.Unlock()
	h.drainAcks()
	total := 0
	for len(p) > 0 {
		n := min(MSS, len(p))
		seg := getPktBuf(segHdrLen + n)
		seg[0], seg[1] = 0, 0
		seq := h.wseq
		seg[2] = byte(seq >> 40)
		seg[3] = byte(seq >> 32)
		seg[4] = byte(seq >> 24)
		seg[5] = byte(seq >> 16)
		seg[6] = byte(seq >> 8)
		seg[7] = byte(seq)
		copy(seg[segHdrLen:], p[:n])
		cs := inetChecksum(seg[2:])
		seg[0], seg[1] = byte(cs>>8), byte(cs)
		if _, err := h.q.put([]packet{{payload: seg}}); err != nil {
			return total, err // ErrClosed; put recycled seg
		}
		h.wseq += uint64(n)
		p = p[n:]
		total += n
	}
	return total, nil
}

// Read verifies and consumes segments, filling p with as many contiguous
// bytes as available (at least one, blocking if necessary).
func (h *streamHalf) Read(p []byte) (int, error) {
	if len(p) == 0 {
		return 0, nil
	}
	h.rmu.Lock()
	defer h.rmu.Unlock()
	total := 0
	for total < len(p) {
		if len(h.rem) > 0 {
			n := copy(p[total:], h.rem)
			h.rem = h.rem[n:]
			total += n
			if len(h.rem) == 0 && h.raw != nil {
				putPktBuf(h.raw)
				h.raw = nil
			}
			continue
		}
		// Block only for the first byte; afterwards return what we have.
		wait := noWait
		if total == 0 {
			wait = 0
		}
		seg, _, err := h.q.getOne(wait)
		if err != nil {
			if total > 0 {
				return total, nil
			}
			return 0, io.EOF
		}
		if len(seg) < segHdrLen {
			putPktBuf(seg)
			continue
		}
		want := uint16(seg[0])<<8 | uint16(seg[1])
		if inetChecksum(seg[2:]) != want {
			// Cannot happen on the lossless simulated wire; guards against
			// memory bugs exactly like the real checksum guards the wire.
			putPktBuf(seg)
			return total, fmt.Errorf("simnet: TCP segment checksum mismatch")
		}
		seq := uint64(seg[2])<<40 | uint64(seg[3])<<32 | uint64(seg[4])<<24 |
			uint64(seg[5])<<16 | uint64(seg[6])<<8 | uint64(seg[7])
		if seq != h.rseq {
			putPktBuf(seg)
			return total, fmt.Errorf("simnet: TCP sequence gap: got %d want %d", seq, h.rseq)
		}
		payload := seg[segHdrLen:]
		h.rseq += uint64(len(payload)) // cumulative ACK state
		h.unacked++
		if h.unacked >= 2 { // delayed ack: one cumulative ACK per two segments
			h.unacked = 0
			h.sendAck()
		}
		n := copy(p[total:], payload)
		total += n
		if n < len(payload) {
			h.rem = payload[n:]
			h.raw = seg
		} else {
			putPktBuf(seg)
		}
	}
	return total, nil
}

func (h *streamHalf) close() {
	h.q.close()
	h.acks.close()
}

// window reports the half's in-flight byte budget for memory accounting.
func (h *streamHalf) window() int64 { return int64(h.q.cap) * MSS }

// stream is one end of a simulated TCP connection.
type stream struct {
	rd, wr        *streamHalf
	local, remote transport.Addr
	closeOnce     sync.Once
}

var _ transport.Stream = (*stream)(nil)

func (s *stream) Read(p []byte) (int, error)  { return s.rd.Read(p) }
func (s *stream) Write(p []byte) (int, error) { return s.wr.Write(p) }

func (s *stream) Close() error {
	s.closeOnce.Do(func() {
		s.rd.close()
		s.wr.close()
	})
	return nil
}

func (s *stream) LocalAddr() transport.Addr  { return s.local }
func (s *stream) RemoteAddr() transport.Addr { return s.remote }

// MemFootprint reports the bytes of buffering this end of the stream owns
// (its receive window), for socket memory accounting.
func (s *stream) MemFootprint() int64 { return s.rd.window() }

// listener accepts simulated TCP connections.
type listener struct {
	net     *Network
	addr    transport.Addr
	backlog chan *stream
	done    chan struct{}
	once    sync.Once
}

var _ transport.Listener = (*listener)(nil)

// Listen opens a stream listener on node (port 0 auto-allocates).
func (n *Network) Listen(node string, port uint16) (transport.Listener, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	addr := n.bind(node, port)
	if _, used := n.listeners[addr]; used {
		return nil, fmt.Errorf("simnet: address %s already listening", addr)
	}
	l := &listener{
		net:     n,
		addr:    addr,
		backlog: make(chan *stream, 64),
		done:    make(chan struct{}),
	}
	n.listeners[addr] = l
	return l, nil
}

func (l *listener) Accept() (transport.Stream, error) {
	select {
	case s := <-l.backlog:
		return s, nil
	case <-l.done:
		return nil, transport.ErrClosed
	}
}

func (l *listener) Addr() transport.Addr { return l.addr }

func (l *listener) Close() error {
	l.once.Do(func() {
		l.net.mu.Lock()
		delete(l.net.listeners, l.addr)
		l.net.mu.Unlock()
		close(l.done)
	})
	return nil
}

// Dial connects from node to a listener at to, completing the simulated
// three-way handshake synchronously.
func (n *Network) Dial(node string, to transport.Addr) (transport.Stream, error) {
	n.mu.Lock()
	l, ok := n.listeners[to]
	var local transport.Addr
	if ok {
		local = n.bind(node, 0)
	}
	n.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("%w: %s", transport.ErrNoRoute, to)
	}
	window := n.cfg.StreamBufSize
	if window <= 0 {
		window = DefaultStreamBufSize
	}
	a2b := newStreamHalf(window)
	b2a := newStreamHalf(window)
	client := &stream{rd: b2a, wr: a2b, local: local, remote: to}
	server := &stream{rd: a2b, wr: b2a, local: to, remote: local}
	select {
	case l.backlog <- server:
		return client, nil
	case <-l.done:
		return nil, transport.ErrClosed
	}
}
