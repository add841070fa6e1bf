package sockif

import (
	"errors"
	"fmt"
	"sync"
	"time"

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
	udqp   *iwarp.UDQP
	sendCQ *iwarp.CQ
	recvCQ *iwarp.CQ
	slab   [][]byte
	rxq    []dgramMsg // messages decoded ahead of the application

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
	rcqp    *iwarp.RCQP
	pending []byte // partial inbound message remainder (stream semantics)

	// Socket counters are telemetry-registry handles (DESIGN.md §4.6):
	// Stats() reads this socket's handles exactly, and the process scrape
	// sums every socket under the diwarp_sock_* names. Handles are atomic,
	// so they are bumped without s.mu.
	stats struct {
		msgsSent, msgsRecv, bytesSent, bytesRecv *telemetry.Counter
		truncated, droppedIncomplete             *telemetry.Counter
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
	s.stats.msgsSent = telemetry.Default.Counter("diwarp_sock_msgs_sent_total")
	s.stats.msgsRecv = telemetry.Default.Counter("diwarp_sock_msgs_recv_total")
	s.stats.bytesSent = telemetry.Default.Counter("diwarp_sock_bytes_sent_total")
	s.stats.bytesRecv = telemetry.Default.Counter("diwarp_sock_bytes_recv_total")
	s.stats.truncated = telemetry.Default.Counter("diwarp_sock_truncated_total")
	s.stats.droppedIncomplete = telemetry.Default.Counter("diwarp_sock_dropped_incomplete_total")
	return s
}

type dgramMsg struct {
	data    []byte
	from    transport.Addr
	slabIdx int // slab buffer to re-post after delivery, -1 if none
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

// initUD builds the datagram QP and pre-posts the receive slab.
func (s *Socket) initUD(ep transport.Datagram) error {
	cfg := s.ifc.cfg
	s.sendCQ = iwarp.NewCQ(cfg.RecvBufCount * 4)
	s.recvCQ = iwarp.NewCQ(cfg.RecvBufCount * 4)
	qp, err := iwarp.OpenUD(ep, s.ifc.pd, s.ifc.tbl, s.sendCQ, s.recvCQ, iwarp.UDConfig{
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
	s.slab = make([][]byte, cfg.RecvBufCount)
	for i := range s.slab {
		s.slab[i] = make([]byte, cfg.RecvBufSize)
		if err := qp.PostRecv(uint64(i), s.slab[i]); err != nil {
			qp.Close() //diwarp:ignore errflow: error-path cleanup of a QP never exposed; PostRecv's error is the one to report
			return err
		}
	}
	return nil
}

// initRCAccept builds the RC QP on an accepted stream.
func (s *Socket) initRCAccept(stream transport.Stream) error {
	return s.initRC(stream, false)
}

func (s *Socket) initRC(stream transport.Stream, initiator bool) error {
	cfg := s.ifc.cfg
	sendCQ := iwarp.NewCQ(cfg.RecvBufCount * 4)
	recvCQ := iwarp.NewCQ(cfg.RecvBufCount * 4)
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
		qp, peerPriv, err = iwarp.ConnectRC(stream, s.ifc.pd, s.ifc.tbl, sendCQ, recvCQ, rcCfg, private)
	} else {
		qp, peerPriv, err = iwarp.AcceptRC(stream, s.ifc.pd, s.ifc.tbl, sendCQ, recvCQ, rcCfg, private)
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
	slab := make([][]byte, cfg.RecvBufCount)
	for i := range slab {
		slab[i] = make([]byte, cfg.RecvBufSize)
		if err := qp.PostRecv(uint64(i), slab[i]); err != nil {
			qp.Close() //diwarp:ignore errflow: error-path cleanup of a QP never exposed; PostRecv's error is the one to report
			return err
		}
	}
	// Publish the connection state under s.mu. A Connect-time initRC runs on
	// a socket that is already in the interface's fd table (Socket returned
	// it before the dial), so monitoring reads — Peer, Footprint, a scrape
	// walking Interface.Footprint — and data-path polls race this point.
	s.mu.Lock()
	s.sendCQ, s.recvCQ = sendCQ, recvCQ
	if cfg.StreamWriteRecord {
		s.remoteRing = remote
		s.wrMode = true
	}
	s.rcqp = qp
	s.peer = stream.RemoteAddr()
	s.slab = slab
	s.mu.Unlock()
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
// waits for the advertisement. Subsequent SendTo/Send calls write directly
// into the peer's ring instead of using send/recv.
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
	s.drainSendCQ()
	deadline := time.Now().Add(timeout)
	for {
		s.mu.Lock()
		if s.remoteRing.ok {
			s.wrMode = true
			s.mu.Unlock()
			return nil
		}
		s.mu.Unlock()
		remaining := time.Until(deadline)
		if remaining <= 0 {
			return transport.ErrTimeout
		}
		// Pump the receive path; data frames arriving meanwhile are queued.
		if err := s.pump(remaining); err != nil && !errors.Is(err, iwarp.ErrCQEmpty) {
			return err
		}
	}
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
	return r, nil
}

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
		s.mu.Unlock()
		if err := s.waitRingCredit(len(p)); err != nil {
			return err
		}
		s.mu.Lock()
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

	var err error
	if wr {
		err = s.udqp.PostWriteRecord(0, to, stag, uint64(cursor), nio.VecOf(p))
	} else {
		err = s.udqp.PostSend(0, to, nio.VecOf([]byte{frameData}, p))
	}
	s.drainSendCQ()
	return err
}

// ringCreditTimeout bounds how long a Write-Record send waits for ring
// credits. Credits ride an unreliable transport; when they stop arriving
// (loss, or a peer that stopped reading) the sender eventually proceeds —
// possible data loss, which is within UD socket semantics.
const ringCreditTimeout = 250 * time.Millisecond

// waitRingCredit blocks until the peer's ring has room for n more bytes,
// pumping this socket's receive path so credit frames are processed.
func (s *Socket) waitRingCredit(n int) error {
	deadline := time.Now().Add(ringCreditTimeout)
	for {
		s.mu.Lock()
		outstanding := s.ringSent - s.ringAcked
		size := uint64(s.remoteRing.size)
		s.mu.Unlock()
		// The wrap-skip above can add up to half a ring of tail waste, so
		// leave that headroom: block only when a full ring could be unread.
		if outstanding+uint64(n) <= size {
			return nil
		}
		if time.Now().After(deadline) {
			// Assume the unacked bytes are lost or consumed (credits ride
			// an unreliable path) and move on.
			s.mu.Lock()
			s.ringAcked = s.ringSent
			s.mu.Unlock()
			return nil
		}
		if err := s.pump(2 * time.Millisecond); err != nil && !errors.Is(err, iwarp.ErrCQEmpty) {
			return err
		}
	}
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
		if wr {
			if len(p) > streamWRInlineMax {
				return s.sendStreamWR(p)
			}
			err := rcqp.PostSend(0, nio.VecOf([]byte{frameData}, p))
			s.drainSendCQ()
			return err
		}
		err := rcqp.PostSend(0, nio.VecOf(p))
		s.drainSendCQ()
		return err
	}
	return ErrBadSocket
}

// drainSendCQ retires source-side completions (sends complete when handed
// to the LLP, so entries are available immediately after each post).
func (s *Socket) drainSendCQ() {
	for {
		if _, err := s.sendCQ.Poll(0); err != nil {
			return
		}
	}
}

// pump converts the next completion into a queued message. It returns
// iwarp.ErrCQEmpty on timeout.
func (s *Socket) pump(timeout time.Duration) error {
	e, err := s.recvCQ.Poll(timeout)
	if err != nil {
		return err
	}
	switch e.Type {
	case iwarp.WTRecv:
		idx := int(e.WRID)
		if e.Status == iwarp.StatusFlushed {
			return transport.ErrClosed
		}
		if e.Status == iwarp.StatusLocalLength {
			s.stats.truncated.Inc()
			s.repost(idx)
			return nil
		}
		if e.Status != iwarp.StatusSuccess {
			s.repost(idx)
			return nil
		}
		s.handleInbound(idx, e)
		return nil
	case iwarp.WTWriteRecordRecv:
		s.handleRingWrite(e)
		return nil
	case iwarp.WTError:
		// Advisory error (UD model): count and continue.
		return nil
	default:
		return nil
	}
}

// handleInbound processes one untagged message from slab buffer idx.
func (s *Socket) handleInbound(idx int, e iwarp.CQE) {
	buf := s.slab[idx][:e.ByteLen]
	if s.typ == StreamSocket {
		s.mu.Lock()
		wr := s.wrMode
		s.mu.Unlock()
		if wr {
			s.handleStreamWRFrame(idx, e)
			return
		}
		// Plain stream data has no frame byte.
		data := make([]byte, len(buf))
		copy(data, buf)
		s.mu.Lock()
		s.rxq = append(s.rxq, dgramMsg{data: data, from: e.Src, slabIdx: -1})
		s.mu.Unlock()
		s.stats.msgsRecv.Inc()
		s.stats.bytesRecv.Add(int64(len(data)))
		s.repost(idx)
		return
	}
	if len(buf) == 0 {
		s.repost(idx)
		return
	}
	switch buf[0] {
	case frameData:
		data := make([]byte, len(buf)-1)
		copy(data, buf[1:])
		s.mu.Lock()
		s.rxq = append(s.rxq, dgramMsg{data: data, from: e.Src, slabIdx: -1})
		s.mu.Unlock()
		s.stats.msgsRecv.Inc()
		s.stats.bytesRecv.Add(int64(len(data)))
		s.repost(idx)
	case frameRingReq:
		s.repost(idx)
		ring, err := s.ensureRing()
		if err != nil {
			return
		}
		adv := make([]byte, 1, 9)
		adv[0] = frameRingAdv
		adv = nio.PutU32(adv, uint32(ring.STag()))
		adv = nio.PutU32(adv, uint32(ring.Len()))
		//diwarp:ignore errflow: advert reply is best-effort: the requester re-sends frameRingReq until one arrives
		_ = s.udqp.PostSend(^uint64(0), e.Src, nio.VecOf(adv))
		s.drainSendCQ()
	case frameRingAdv:
		if len(buf) >= 9 {
			s.mu.Lock()
			s.remoteRing = ringInfo{
				stag: memreg.STag(nio.U32(buf[1:])),
				size: int(nio.U32(buf[5:])),
				ok:   true,
			}
			s.mu.Unlock()
		}
		s.repost(idx)
	case frameRingCredit:
		if len(buf) >= 9 {
			acked := nio.U64(buf[1:])
			s.mu.Lock()
			if acked > s.ringAcked {
				s.ringAcked = acked
			}
			s.mu.Unlock()
		}
		s.repost(idx)
	default:
		s.repost(idx)
	}
}

// handleRingWrite delivers a Write-Record message placed in the local ring.
// Messages with holes (lost segments) are dropped at the socket layer —
// socket applications expect whole datagrams; verbs applications that can
// use partial data consume validity maps directly.
func (s *Socket) handleRingWrite(e iwarp.CQE) {
	if !e.Validity.Contains(e.TO, uint64(e.MsgLen)) {
		s.stats.droppedIncomplete.Inc()
		telemetry.DefaultTrace.Record(telemetry.EvDrop, telemetry.PeerToken(e.Src), e.MsgLen, telemetry.DropIncomplete)
		return
	}
	s.mu.Lock()
	ring := s.ring
	s.mu.Unlock()
	if ring == nil || e.STag != ring.STag() {
		return
	}
	data := make([]byte, e.MsgLen)
	copy(data, ring.Bytes()[e.TO:e.TO+uint64(e.MsgLen)])
	s.stats.msgsRecv.Inc()
	s.stats.bytesRecv.Add(int64(len(data)))
	s.mu.Lock()
	s.rxq = append(s.rxq, dgramMsg{data: data, from: e.Src, slabIdx: -1})
	// Credit accounting: mirror the sender's wrap-skip, then count the
	// message. Advertise cumulative consumption every quarter ring.
	if int(e.TO) != s.ringExpect && e.TO == 0 {
		s.ringRecvd += uint64(ring.Len() - s.ringExpect)
	}
	s.ringRecvd += uint64(e.MsgLen)
	s.ringExpect = int(e.TO) + e.MsgLen
	var credit uint64
	sendCredit := s.ringRecvd-s.ringCredit >= uint64(ring.Len()/4)
	if sendCredit {
		s.ringCredit = s.ringRecvd
		credit = s.ringRecvd
	}
	peer := e.Src
	s.mu.Unlock()
	if sendCredit {
		frame := make([]byte, 1, 9)
		frame[0] = frameRingCredit
		frame = nio.PutU64(frame, credit)
		//diwarp:ignore errflow: credit frames carry cumulative counters: the next one repairs a lost send
		_ = s.udqp.PostSend(^uint64(0), peer, nio.VecOf(frame))
		s.drainSendCQ()
	}
}

// repost returns slab buffer idx to the QP's receive queue.
func (s *Socket) repost(idx int) {
	if idx < 0 || idx >= len(s.slab) {
		return
	}
	if s.udqp != nil {
		_ = s.udqp.PostRecv(uint64(idx), s.slab[idx]) //diwarp:ignore errflow: PostRecv on a live QP only fails once the QP is closed, when the receive window is moot
	} else if s.rcqp != nil {
		_ = s.rcqp.PostRecv(uint64(idx), s.slab[idx]) //diwarp:ignore errflow: PostRecv on a live QP only fails once the QP is closed, when the receive window is moot
	}
}

// popRx dequeues the oldest queued message.
func (s *Socket) popRx() (dgramMsg, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.rxq) == 0 {
		return dgramMsg{}, false
	}
	m := s.rxq[0]
	s.rxq[0] = dgramMsg{}
	s.rxq = s.rxq[1:]
	if len(s.rxq) == 0 {
		s.rxq = nil
	}
	return m, true
}

// RecvFrom receives one datagram into p, returning the byte count and the
// source address. Oversized messages are truncated to len(p), like
// recvfrom(2) on a datagram socket.
func (s *Socket) RecvFrom(p []byte, timeout time.Duration) (int, transport.Addr, error) {
	if s.typ != DatagramSocket {
		return 0, transport.Addr{}, ErrBadSocket
	}
	deadline := time.Now().Add(timeout)
	for {
		if m, ok := s.popRx(); ok {
			n := copy(p, m.data)
			return n, m.from, nil
		}
		remaining := time.Until(deadline)
		if remaining <= 0 {
			return 0, transport.Addr{}, transport.ErrTimeout
		}
		if err := s.pump(remaining); err != nil {
			if errors.Is(err, iwarp.ErrCQEmpty) {
				continue
			}
			return 0, transport.Addr{}, err
		}
	}
}

// Recv reads from the connected socket. Datagram sockets return one message
// per call; stream sockets fill p with as many buffered bytes as available
// (at least one), preserving byte-stream semantics.
func (s *Socket) Recv(p []byte, timeout time.Duration) (int, error) {
	switch s.typ {
	case DatagramSocket:
		n, _, err := s.RecvFrom(p, timeout)
		return n, err
	case StreamSocket:
		// Locked check: orders this goroutine behind a concurrent Connect's
		// publication before the pump path reads slab/CQ state plainly.
		s.mu.Lock()
		rcqp := s.rcqp
		s.mu.Unlock()
		if rcqp == nil {
			return 0, ErrNotConnected
		}
		deadline := time.Now().Add(timeout)
		for {
			s.mu.Lock()
			if len(s.pending) > 0 {
				n := copy(p, s.pending)
				s.pending = s.pending[n:]
				if len(s.pending) == 0 {
					s.pending = nil
				}
				s.mu.Unlock()
				return n, nil
			}
			s.mu.Unlock()
			if m, ok := s.popRx(); ok {
				n := copy(p, m.data)
				if n < len(m.data) {
					s.mu.Lock()
					s.pending = m.data[n:]
					s.mu.Unlock()
				}
				return n, nil
			}
			remaining := time.Until(deadline)
			if remaining <= 0 {
				return 0, transport.ErrTimeout
			}
			if err := s.pump(remaining); err != nil && !errors.Is(err, iwarp.ErrCQEmpty) {
				return 0, err
			}
		}
	}
	return 0, ErrBadSocket
}

// Peer returns the connected peer address.
func (s *Socket) Peer() transport.Addr {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.peer
}

// Footprint reports the bytes of stack memory this socket pins: the receive
// slab, the Write-Record ring if registered, and its QP's state. This is
// the per-socket quantity the paper's Figure 11 sums across a SIP server's
// client population.
func (s *Socket) Footprint() int64 {
	s.mu.Lock()
	n := int64(0)
	for _, b := range s.slab {
		n += int64(cap(b))
	}
	if s.ring != nil {
		n += int64(s.ring.Len()) + 64
	}
	for _, m := range s.rxq {
		n += int64(cap(m.data))
	}
	n += int64(cap(s.pending))
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

// Close releases the socket and its QP.
func (s *Socket) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
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
