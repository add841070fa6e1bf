package sockif

import (
	"time"

	iwarp "repro/internal/core"
	"repro/internal/memreg"
	"repro/internal/nio"
	"repro/internal/telemetry"
	"repro/internal/transport"
)

// The receive path (DESIGN.md §4.15). A socket's QP has one handler CQ, and
// the handler runs on the goroutine that posts each completion — the QP's
// receive goroutine for everything arriving. It applies control frames,
// counts what it drops, and queues what the application must see in a
// fixed ring; RecvFrom and Recv copy each message once, from the slab or
// the Write-Record ring into the caller's buffer, and then give back what
// the entry held. The handler never sends: ring adverts and ring credits
// leave from the application's goroutine, because over rudp the QP's
// receive goroutine is the one consumer of the delivery queue a send's
// window wait depends on (§4.11).

// ringEntriesPerBuf caps the queued Write-Records, which hold no slab
// buffer, at this many per slab buffer. A sender within its credit window
// stays under the cap while its messages average at least RingSize /
// (4 × RecvBufCount) bytes; beyond it a Write-Record is dropped and
// counted.
const ringEntriesPerBuf = 4

type rxKind uint8

const (
	rxSlab    rxKind = iota // bytes [off, off+n) of slab buffer idx
	rxRing                  // bytes [off, off+n) of the Write-Record ring
	rxRingReq               // a peer's ring request, in slab buffer idx
)

// rxEntry is one message the application has yet to read. idx is the slab
// buffer it holds, or -1 (a datagram Write-Record). A stream's RDMA Write
// notify is an rxRing entry that also holds its slab buffer, so on a
// stream the slab, with RNR backpressure, bounds every entry.
type rxEntry struct {
	from transport.Addr
	off  int
	n    int
	idx  int
	kind rxKind
}

// handle consumes one completion of the socket's QP.
func (s *Socket) handle(e iwarp.CQE) {
	switch e.Type {
	case iwarp.WTRecv:
		s.handleRecv(e)
	case iwarp.WTWriteRecordRecv:
		s.handleRingWrite(e)
	case iwarp.WTError:
		// Advisory error (UD model): count and continue.
		s.stats.advisories.Inc()
	}
}

// handleRecv consumes one untagged message in slab buffer e.WRID.
func (s *Socket) handleRecv(e iwarp.CQE) {
	idx := int(e.WRID)
	switch e.Status {
	case iwarp.StatusSuccess:
	case iwarp.StatusFlushed:
		s.mu.Lock()
		s.down = true
		s.wake.Broadcast()
		s.mu.Unlock()
		return
	case iwarp.StatusLocalLength:
		s.stats.truncated.Inc()
		fallthrough
	default:
		s.repost(idx)
		return
	}
	s.mu.Lock()
	queued := s.accept(idx, e.Src, s.slab[idx][:e.ByteLen])
	s.mu.Unlock()
	if !queued {
		s.repost(idx)
	}
}

// accept queues the message in slab buffer idx, or applies it if it is
// control state; s.mu held. It reports whether the queue now holds the
// buffer.
func (s *Socket) accept(idx int, from transport.Addr, buf []byte) bool {
	if s.typ == StreamSocket && !s.wrMode {
		// Plain stream data has no frame byte.
		s.push(rxEntry{from: from, n: len(buf), idx: idx})
		return true
	}
	if len(buf) == 0 {
		return false
	}
	switch buf[0] {
	case frameData:
		s.push(rxEntry{from: from, off: 1, n: len(buf) - 1, idx: idx})
		return true
	case frameRingReq:
		if s.typ == DatagramSocket {
			s.push(rxEntry{from: from, idx: idx, kind: rxRingReq})
			return true
		}
	case frameWRNotify:
		if s.typ == StreamSocket && len(buf) >= notifyLen && s.ring != nil {
			to, n := nio.U64(buf[1:]), uint64(nio.U32(buf[9:]))
			if to+n <= uint64(s.ring.Len()) {
				s.push(rxEntry{from: from, off: int(to), n: int(n), idx: idx, kind: rxRing})
				return true
			}
		}
	case frameRingAdv:
		if s.typ == DatagramSocket && len(buf) >= 9 {
			s.remoteRing = ringInfo{
				stag: memreg.STag(nio.U32(buf[1:])),
				size: int(nio.U32(buf[5:])),
				ok:   true,
			}
			s.wake.Broadcast()
		}
	case frameRingCredit:
		if len(buf) >= 9 && nio.U64(buf[1:]) > s.ringAcked {
			s.ringAcked = nio.U64(buf[1:])
			s.wake.Broadcast()
		}
	}
	return false
}

// handleRingWrite queues a Write-Record message placed in the local ring.
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
	defer s.mu.Unlock()
	if s.ring == nil || e.STag != s.ring.STag() || e.TO+uint64(e.MsgLen) > uint64(s.ring.Len()) {
		return
	}
	if s.rxRings == len(s.slab)*ringEntriesPerBuf {
		s.stats.ringOverflow.Inc()
		return
	}
	s.rxRings++
	s.push(rxEntry{from: e.Src, off: int(e.TO), n: e.MsgLen, idx: -1, kind: rxRing})
}

// push appends e to the receive queue, counting a message the application
// will see, and wakes every waiter; s.mu held. Nothing overflows it: slab
// entries are at most the slab, and handleRingWrite caps the rest.
func (s *Socket) push(e rxEntry) {
	if e.kind != rxRingReq {
		s.stats.msgsRecv.Inc()
		s.stats.bytesRecv.Add(int64(e.n))
	}
	i := s.rxHead + s.rxLen
	if i >= len(s.rx) {
		i -= len(s.rx)
	}
	s.rx[i] = e
	s.rxLen++
	s.wake.Broadcast()
}

// growForRing makes room, s.mu held, for the Write-Records a datagram
// socket queues once its ring exists: a socket without a ring pins only
// its slab entries.
func (s *Socket) growForRing() {
	rx := make([]rxEntry, len(s.slab)*(1+ringEntriesPerBuf))
	for i := range s.rxLen {
		rx[i] = s.rx[(s.rxHead+i)%len(s.rx)]
	}
	s.rx, s.rxHead = rx, 0
}

// pop removes the head entry; s.mu held, the queue not empty.
func (s *Socket) pop() rxEntry {
	e := s.rx[s.rxHead]
	s.rx[s.rxHead] = rxEntry{}
	if s.rxHead++; s.rxHead == len(s.rx) {
		s.rxHead = 0
	}
	s.rxLen--
	s.rxOff = 0
	if e.idx < 0 {
		s.rxRings--
	}
	return e
}

// awaitRx waits, s.mu held, until the receive queue holds an entry. It
// fails with ErrClosed once the socket is closed or its QP flushed with
// nothing left to read, and with ErrTimeout at deadline.
func (s *Socket) awaitRx(deadline time.Time) error {
	for s.rxLen == 0 {
		if s.closed || s.down {
			return transport.ErrClosed
		}
		if !s.wait(deadline) {
			return transport.ErrTimeout
		}
	}
	return nil
}

// wait parks the caller, s.mu held, until the socket's state changes or
// deadline passes, and reports false if it already has. One timer per
// socket serves every waiter: it is armed for the earliest deadline
// waiting, and each waiter it wakes re-checks its own.
func (s *Socket) wait(deadline time.Time) bool {
	d := time.Until(deadline)
	if d <= 0 {
		return false
	}
	if s.wakeAt.IsZero() || deadline.Before(s.wakeAt) {
		s.wakeAt = deadline
		if s.timer == nil {
			s.timer = time.AfterFunc(d, s.expire)
		} else {
			s.timer.Reset(d)
		}
	}
	s.wake.Wait()
	return true
}

// expire is the wait timer's callback.
func (s *Socket) expire() {
	s.mu.Lock()
	s.wakeAt = time.Time{}
	s.wake.Broadcast()
	s.mu.Unlock()
}

// bytes returns the message an entry names. Its memory stays the reader's
// until release.
func (s *Socket) bytes(e rxEntry) []byte {
	if e.kind == rxRing {
		return s.ring.Bytes()[e.off : e.off+e.n]
	}
	return s.slab[e.idx][e.off : e.off+e.n]
}

// release gives back what a read entry held: its slab buffer to the QP,
// and its ring bytes to the sender as credit.
func (s *Socket) release(e rxEntry) {
	if e.idx >= 0 {
		s.repost(e.idx)
	}
	if e.kind == rxRing {
		s.creditRing(e)
	}
}

// creditRing accounts a read ring message, mirroring the sender's
// wrap-skip, and advertises cumulative consumption every quarter ring.
func (s *Socket) creditRing(e rxEntry) {
	s.mu.Lock()
	size := s.ring.Len()
	if e.off != s.ringExpect && e.off == 0 {
		s.ringRecvd += uint64(size - s.ringExpect)
	}
	s.ringRecvd += uint64(e.n)
	s.ringExpect = e.off + e.n
	due := s.ringRecvd-s.ringCredit >= uint64(size/4)
	if due {
		s.ringCredit = s.ringRecvd
	}
	credit, rcqp := s.ringRecvd, s.rcqp
	s.mu.Unlock()
	if !due {
		return
	}
	frame := nio.PutU64([]byte{frameRingCredit}, credit)
	if rcqp != nil {
		_ = rcqp.PostSend(^uint64(0), nio.VecOf(frame)) //diwarp:ignore errflow: cumulative credit, the next frame repairs a lost one
	} else {
		_ = s.udqp.PostSend(^uint64(0), e.from, nio.VecOf(frame)) //diwarp:ignore errflow: cumulative credit, the next frame repairs a lost one
	}
}

// answerRingReq advertises the local ring to a requester.
func (s *Socket) answerRingReq(e rxEntry) {
	s.repost(e.idx)
	ring, err := s.ensureRing()
	if err != nil {
		return
	}
	adv := nio.PutU32(nio.PutU32([]byte{frameRingAdv}, uint32(ring.STag())), uint32(ring.Len()))
	//diwarp:ignore errflow: advert reply is best-effort: a requester that misses it times out in EnableWriteRecord
	_ = s.udqp.PostSend(^uint64(0), e.from, nio.VecOf(adv))
}

// repost returns slab buffer idx to the QP's receive queue.
func (s *Socket) repost(idx int) {
	if s.udqp != nil {
		_ = s.udqp.PostRecv(uint64(idx), s.slab[idx]) //diwarp:ignore errflow: PostRecv on a live QP only fails once the QP is closed, when the receive window is moot
	} else {
		_ = s.rcqp.PostRecv(uint64(idx), s.slab[idx]) //diwarp:ignore errflow: PostRecv on a live QP only fails once the QP is closed, when the receive window is moot
	}
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
		s.mu.Lock()
		if err := s.awaitRx(deadline); err != nil {
			s.mu.Unlock()
			return 0, transport.Addr{}, err
		}
		e := s.pop()
		s.mu.Unlock()
		if e.kind == rxRingReq {
			s.answerRingReq(e)
			continue
		}
		n := copy(p, s.bytes(e))
		s.release(e)
		return n, e.from, nil
	}
}

// Recv reads from the connected socket. Datagram sockets return one message
// per call; stream sockets fill p from the oldest unread message (at least
// one byte), preserving byte-stream semantics: a message p cannot hold
// stays queued, with its slab buffer, until a later Recv drains it.
func (s *Socket) Recv(p []byte, timeout time.Duration) (int, error) {
	switch s.typ {
	case DatagramSocket:
		n, _, err := s.RecvFrom(p, timeout)
		return n, err
	case StreamSocket:
		deadline := time.Now().Add(timeout)
		s.mu.Lock()
		if s.rcqp == nil {
			s.mu.Unlock()
			return 0, ErrNotConnected
		}
		if err := s.awaitRx(deadline); err != nil {
			s.mu.Unlock()
			return 0, err
		}
		// Copy under s.mu: concurrent readers of one entry must not return
		// the same bytes, nor release it while another is copying.
		e := s.rx[s.rxHead]
		n := copy(p, s.bytes(e)[s.rxOff:])
		s.rxOff += n
		drained := s.rxOff == e.n
		if drained {
			s.pop()
		}
		s.mu.Unlock()
		if drained {
			s.release(e)
		}
		return n, nil
	}
	return 0, ErrBadSocket
}
