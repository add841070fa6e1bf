package sockif

import (
	"fmt"
	"sync"
	"time"
	"unsafe"

	iwarp "repro/internal/core"
	"repro/internal/memreg"
	"repro/internal/nio"
	"repro/internal/telemetry"
	"repro/internal/transport"
)

// Datagram-socket control frames ride the untagged path with a one-byte
// type prefix (the shim's private framing, invisible to applications):
// frameData carries application payload; frameRingReq asks the peer to
// advertise its Write-Record ring; frameRingAdv answers with (STag, size).
const (
	frameData       = 0
	frameRingReq    = 1
	frameRingAdv    = 2
	frameRingCredit = 3
	frameWRNotify   = 4 // stream WR profile: (TO, len) of a completed RDMA Write
)

// streamWRInlineMax is the cutoff below which a stream WR-profile send uses
// a plain (buffered-copy) message instead of the ring — the paper's §VI.B.1
// suggestion of "zero copy for large message sizes and buffered copy for
// smaller messages".
const streamWRInlineMax = 256

// Socket is one application socket backed by exactly one queue pair.
type Socket struct {
	ifc *Interface
	fd  int
	typ Type

	mu     sync.Mutex
	closed bool
	peer   transport.Addr // connected peer (default destination)

	// Datagram (UD) state.
	udqp *iwarp.UDQP
	slab [][]byte

	ring       *memreg.Region // local Write-Record ring (lazily registered)
	remoteRing ringInfo       // peer's advertised ring
	ringCursor int            // sender cursor into the remote ring
	wrMode     bool           // data path uses Write-Record

	// Write-Record ring flow control (the credit scheme an SDP-style
	// buffered-copy ring uses): the sender never lets unconsumed bytes
	// exceed the ring size; the receiver acks consumption with cumulative
	// credit frames. Skipped ring tails (wrap waste) are accounted on both
	// sides so the cumulative counters agree.
	ringSent   uint64 // sender: cumulative bytes written incl. skipped tails
	ringAcked  uint64 // sender: cumulative bytes the peer has consumed
	ringRecvd  uint64 // receiver: cumulative bytes consumed incl. tails
	ringExpect int    // receiver: next expected ring offset (wrap detection)
	ringCredit uint64 // receiver: ringRecvd value last advertised

	// Stream (RC) state.
	rcqp *iwarp.RCQP

	// The receive queue (DESIGN.md §4.15): a fixed ring of what the QP's
	// completion handler accepted and the application has yet to read.
	rx      []rxEntry
	rxHead  int
	rxLen   int
	rxRings int  // queued entries that hold no slab buffer
	rxOff   int  // bytes of the head entry a stream Recv already returned
	down    bool // the QP flushed its receives: closed, or the stream failed

	// wake is signalled under mu whenever the handler changes what a
	// reader or a ring sender waits for; timer bounds the waits.
	wake   sync.Cond
	timer  *time.Timer
	wakeAt time.Time // when timer fires; zero when it is not armed

	// Socket counters are telemetry-registry handles (DESIGN.md §4.6):
	// Stats() reads this socket's handles exactly, and the process scrape
	// sums every socket under the diwarp_sock_* names. Handles are atomic,
	// so they are bumped without s.mu.
	stats struct {
		msgsSent, msgsRecv, bytesSent, bytesRecv *telemetry.Counter
		truncated, droppedIncomplete             *telemetry.Counter
		advisories, ringOverflow                 *telemetry.Counter
	}
}

// SocketStats counts socket-level events.
type SocketStats struct {
	MsgsSent, MsgsReceived   int64
	BytesSent, BytesReceived int64
	Truncated                int64 // messages dropped: larger than slab buffers
	DroppedIncomplete        int64 // Write-Record messages dropped with holes
}

// newSocket builds a bare socket with its counters registered.
func newSocket(ifc *Interface, t Type) *Socket {
	s := &Socket{ifc: ifc, typ: t}
	s.wake.L = &s.mu
	s.stats.msgsSent = telemetry.Default.Counter("diwarp_sock_msgs_sent_total")
	s.stats.msgsRecv = telemetry.Default.Counter("diwarp_sock_msgs_recv_total")
	s.stats.bytesSent = telemetry.Default.Counter("diwarp_sock_bytes_sent_total")
	s.stats.bytesRecv = telemetry.Default.Counter("diwarp_sock_bytes_recv_total")
	s.stats.truncated = telemetry.Default.Counter("diwarp_sock_truncated_total")
	s.stats.droppedIncomplete = telemetry.Default.Counter("diwarp_sock_dropped_incomplete_total")
	s.stats.advisories = telemetry.Default.Counter("diwarp_sock_advisories_total")
	s.stats.ringOverflow = telemetry.Default.Counter("diwarp_sock_ring_overflow_total")
	return s
}

type ringInfo struct {
	stag memreg.STag
	size int
	ok   bool
}

// FD returns the socket's file-descriptor number in the shim's table.
func (s *Socket) FD() int { return s.fd }

// Type returns the socket type.
func (s *Socket) Type() Type { return s.typ }

// Stats returns a snapshot of socket counters.
func (s *Socket) Stats() SocketStats {
	return SocketStats{
		MsgsSent:          s.stats.msgsSent.Load(),
		MsgsReceived:      s.stats.msgsRecv.Load(),
		BytesSent:         s.stats.bytesSent.Load(),
		BytesReceived:     s.stats.bytesRecv.Load(),
		Truncated:         s.stats.truncated.Load(),
		DroppedIncomplete: s.stats.droppedIncomplete.Load(),
	}
}

// initUD builds the datagram QP, whose one handler CQ is the socket's
// receive path, and pre-posts the receive slab.
func (s *Socket) initUD(ep transport.Datagram) error {
	cfg := s.ifc.cfg
	cq := iwarp.NewCQFunc(s.handle)
	qp, err := iwarp.OpenUD(ep, s.ifc.pd, s.ifc.tbl, cq, cq, iwarp.UDConfig{
		RecvDepth: cfg.RecvBufCount + 1,
		// Over a reliable LLP, stall instead of dropping when the slab is
		// momentarily exhausted (RNR semantics); backpressure flows to the
		// sender through the transport window.
		BlockOnRNR: cfg.Reliable,
	})
	if err != nil {
		return err
	}
	s.udqp = qp
	s.slab = newSlab(cfg)
	s.rx = make([]rxEntry, cfg.RecvBufCount)
	for i := range s.slab {
		if err := qp.PostRecv(uint64(i), s.slab[i]); err != nil {
			qp.Close() //diwarp:ignore errflow: error-path cleanup of a QP never exposed; PostRecv's error is the one to report
			return err
		}
	}
	return nil
}

func newSlab(cfg Config) [][]byte {
	slab := make([][]byte, cfg.RecvBufCount)
	for i := range slab {
		slab[i] = make([]byte, cfg.RecvBufSize)
	}
	return slab
}

func (s *Socket) initRC(stream transport.Stream, initiator bool) error {
	cfg := s.ifc.cfg
	cq := iwarp.NewCQFunc(s.handle)
	// With the stream Write-Record profile, both ends advertise their ring
	// in the MPA private data — the buffer exchange costs no extra round
	// trip (§V.A: a full protocol would "enable more efficient use of RDMA
	// Write-Record"; this is that optimisation).
	var private []byte
	if cfg.StreamWriteRecord {
		ring, err := s.ensureRing()
		if err != nil {
			return err
		}
		private = encodeRingAdvert(ring)
	}
	var qp *iwarp.RCQP
	var peerPriv []byte
	var err error
	// Socket-style RC: no posted receive means "stop reading the stream"
	// (TCP window backpressure), not a fatal RNR.
	rcCfg := iwarp.RCConfig{RecvDepth: cfg.RecvBufCount + 1, BlockOnRNR: true}
	if initiator {
		qp, peerPriv, err = iwarp.ConnectRC(stream, s.ifc.pd, s.ifc.tbl, cq, cq, rcCfg, private)
	} else {
		qp, peerPriv, err = iwarp.AcceptRC(stream, s.ifc.pd, s.ifc.tbl, cq, cq, rcCfg, private)
	}
	if err != nil {
		return err
	}
	var remote ringInfo
	if cfg.StreamWriteRecord {
		ri, ok := parseRingAdvert(peerPriv)
		if !ok {
			qp.Close() //diwarp:ignore errflow: error-path cleanup of a QP never exposed; the handshake failure is the error to report
			return fmt.Errorf("%w: peer did not advertise a Write-Record ring", ErrBadSocket)
		}
		remote = ri
	}
	// Publish the connection state under s.mu, before the first receive is
	// posted: the handler reads it from the QP's receive goroutine. A
	// Connect-time initRC runs on a socket that is already in the
	// interface's fd table (Socket returned it before the dial), so
	// monitoring reads — Peer, Footprint, a scrape walking
	// Interface.Footprint — and data-path calls race this point.
	slab := newSlab(cfg)
	s.mu.Lock()
	if cfg.StreamWriteRecord {
		s.remoteRing = remote
		s.wrMode = true
	}
	s.rcqp = qp
	s.peer = stream.RemoteAddr()
	s.slab = slab
	s.rx = make([]rxEntry, cfg.RecvBufCount)
	s.mu.Unlock()
	for i := range slab {
		if err := qp.PostRecv(uint64(i), slab[i]); err != nil {
			qp.Close() //diwarp:ignore errflow: the connection failed as it opened; PostRecv's error is the one to report
			return err
		}
	}
	return nil
}

// LocalAddr returns the socket's bound address (datagram sockets only; a
// stream socket returns its peer-facing local address when connected).
func (s *Socket) LocalAddr() transport.Addr {
	if s.udqp != nil {
		return s.udqp.LocalAddr()
	}
	return transport.Addr{}
}

// Connect sets the default peer. For a stream socket this dials and
// establishes the RC connection; for a datagram socket it only pins the
// destination, like connect(2) on UDP.
func (s *Socket) Connect(to transport.Addr) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return ErrBadSocket
	}
	switch s.typ {
	case DatagramSocket:
		s.peer = to
		s.mu.Unlock()
		return nil
	case StreamSocket:
		if s.rcqp != nil {
			s.mu.Unlock()
			return fmt.Errorf("%w: already connected", ErrBadSocket)
		}
		if s.ifc.cfg.Dial == nil {
			s.mu.Unlock()
			return fmt.Errorf("%w: no dialer configured", ErrBadSocket)
		}
		// Dial and handshake outside the lock: both block on the network,
		// and initRC needs the lock for ring registration.
		s.mu.Unlock()
		stream, err := s.ifc.cfg.Dial(to)
		if err != nil {
			return err
		}
		if err := s.initRC(stream, true); err != nil {
			stream.Close() //diwarp:ignore errflow: error-path cleanup of a stream never exposed; initRC's error is the one to report
			return err
		}
		return nil
	}
	s.mu.Unlock()
	return ErrBadSocket
}

// EnableWriteRecord switches the connected datagram socket's data path to
// RDMA Write-Record: it asks the peer to advertise its ring region and
// waits for the advertisement, which the peer's application answers from
// its next RecvFrom. Subsequent SendTo/Send calls write directly into the
// peer's ring instead of using send/recv.
func (s *Socket) EnableWriteRecord(timeout time.Duration) error {
	s.mu.Lock()
	if s.typ != DatagramSocket || !s.peer.IsValid() {
		s.mu.Unlock()
		return fmt.Errorf("%w: EnableWriteRecord needs a connected datagram socket", ErrBadSocket)
	}
	peer := s.peer
	s.mu.Unlock()
	if err := s.udqp.PostSend(^uint64(0), peer, nio.VecOf([]byte{frameRingReq})); err != nil {
		return err
	}
	deadline := time.Now().Add(timeout)
	s.mu.Lock()
	for !s.remoteRing.ok {
		if s.closed {
			s.mu.Unlock()
			return ErrBadSocket
		}
		if !s.wait(deadline) {
			s.mu.Unlock()
			return transport.ErrTimeout
		}
	}
	s.wrMode = true
	s.mu.Unlock()
	return nil
}

// ensureRing lazily registers the local Write-Record ring sink.
func (s *Socket) ensureRing() (*memreg.Region, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ring != nil {
		return s.ring, nil
	}
	r, err := s.ifc.tbl.Register(s.ifc.pd, make([]byte, s.ifc.cfg.RingSize), memreg.RemoteWrite)
	if err != nil {
		return nil, err
	}
	s.ring = r
	if s.typ == DatagramSocket {
		s.growForRing()
	}
	return r, nil
}

// dataFrame is the frame byte ahead of application data; never written.
var dataFrame = []byte{frameData}

// SendTo transmits one datagram to the given destination.
func (s *Socket) SendTo(p []byte, to transport.Addr) error {
	if s.typ != DatagramSocket {
		return ErrBadSocket
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return ErrBadSocket
	}
	wr := s.wrMode && s.remoteRing.ok && to == s.peer
	var stag memreg.STag
	var cursor int
	if wr {
		if len(p) > s.remoteRing.size/2 {
			s.mu.Unlock()
			return fmt.Errorf("%w: message %d exceeds half the peer ring %d", ErrBadSocket, len(p), s.remoteRing.size)
		}
		if err := s.waitRingCredit(len(p)); err != nil {
			s.mu.Unlock()
			return err
		}
		if s.ringCursor+len(p) > s.remoteRing.size {
			// Skip the tail; the receiver detects the wrap and accounts the
			// same skipped bytes, keeping the credit counters in step.
			s.ringSent += uint64(s.remoteRing.size - s.ringCursor)
			s.ringCursor = 0
		}
		stag, cursor = s.remoteRing.stag, s.ringCursor
		s.ringCursor += len(p)
		s.ringSent += uint64(len(p))
	}
	s.stats.msgsSent.Inc()
	s.stats.bytesSent.Add(int64(len(p)))
	s.mu.Unlock()

	if wr {
		return s.udqp.PostWriteRecord(0, to, stag, uint64(cursor), nio.VecOf(p))
	}
	return s.udqp.PostSend(0, to, nio.VecOf(dataFrame, p))
}

// ringCreditTimeout bounds how long a Write-Record send waits for ring
// credits. Credits ride an unreliable transport; when they stop arriving
// (loss, or a peer that stopped reading) the sender eventually proceeds —
// possible data loss, which is within UD socket semantics.
const ringCreditTimeout = 250 * time.Millisecond

// waitRingCredit waits, s.mu held, until the peer's ring has room for n
// more bytes. The handler applies credit frames as they arrive.
func (s *Socket) waitRingCredit(n int) error {
	deadline := time.Now().Add(ringCreditTimeout)
	// The wrap-skip above can add up to half a ring of tail waste, so leave
	// that headroom: block only when a full ring could be unread.
	for s.ringSent-s.ringAcked+uint64(n) > uint64(s.remoteRing.size) {
		if s.closed {
			return ErrBadSocket
		}
		if !s.wait(deadline) {
			// Assume the unacked bytes are lost or consumed (credits ride
			// an unreliable path) and move on.
			s.ringAcked = s.ringSent
			return nil
		}
	}
	return nil
}

// Send transmits to the connected peer (datagram or stream).
func (s *Socket) Send(p []byte) error {
	switch s.typ {
	case DatagramSocket:
		s.mu.Lock()
		peer := s.peer
		s.mu.Unlock()
		if !peer.IsValid() {
			return ErrNotConnected
		}
		return s.SendTo(p, peer)
	case StreamSocket:
		// Snapshot the connection state under s.mu: a concurrent Connect
		// publishes rcqp and wrMode under the same lock, and every later
		// plain read on this path is ordered behind this acquisition.
		s.mu.Lock()
		rcqp, wr := s.rcqp, s.wrMode
		s.mu.Unlock()
		if rcqp == nil {
			return ErrNotConnected
		}
		s.stats.msgsSent.Inc()
		s.stats.bytesSent.Add(int64(len(p)))
		if !wr {
			return rcqp.PostSend(0, nio.VecOf(p))
		}
		if len(p) > streamWRInlineMax {
			return s.sendStreamWR(p)
		}
		return rcqp.PostSend(0, nio.VecOf(dataFrame, p))
	}
	return ErrBadSocket
}

// Peer returns the connected peer address.
func (s *Socket) Peer() transport.Addr {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.peer
}

// Footprint reports the bytes of stack memory this socket pins: the receive
// slab, the Write-Record ring if registered, the receive queue, and its
// QP's state. A socket holds no completion queue and no heap copy of a
// message, so this is everything. It is the per-socket quantity the
// paper's Figure 11 sums across a SIP server's client population.
func (s *Socket) Footprint() int64 {
	s.mu.Lock()
	n := int64(0)
	for _, b := range s.slab {
		n += int64(cap(b))
	}
	if s.ring != nil {
		n += int64(s.ring.Len()) + 64
	}
	n += int64(cap(s.rx)) * int64(unsafe.Sizeof(rxEntry{}))
	udqp, rcqp := s.udqp, s.rcqp
	s.mu.Unlock()
	if udqp != nil {
		n += udqp.Footprint()
	}
	if rcqp != nil {
		n += rcqp.Footprint()
	}
	return n
}

// Close releases the socket and its QP, failing every wait on it.
func (s *Socket) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	if s.timer != nil {
		s.timer.Stop()
	}
	s.wake.Broadcast()
	ring := s.ring
	udqp, rcqp := s.udqp, s.rcqp
	s.mu.Unlock()
	s.ifc.forget(s.fd)
	var err error
	if ring != nil {
		// A failed deregistration leaves the ring reachable through a stale
		// STag — worth surfacing unless a QP teardown error outranks it.
		err = s.ifc.tbl.Deregister(ring.STag())
	}
	if udqp != nil {
		if cerr := udqp.Close(); cerr != nil {
			err = cerr
		}
	}
	if rcqp != nil {
		if cerr := rcqp.Close(); cerr != nil {
			err = cerr
		}
	}
	return err
}
