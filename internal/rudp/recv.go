package rudp

import (
	"math/bits"
	"sync"
	"time"

	"repro/internal/nio"
	"repro/internal/telemetry"
	"repro/internal/transport"
)

// The receive datapath (DESIGN.md §4.14). recvLoop pulls bursts from the
// inner endpoint; each run of same-source packets in a burst is processed
// under one peer lock with the burst's one clock reading; then one ACK per
// peer the burst touched goes out, and only after that is the burst's
// in-order yield published to the delivery queue, under one lock and one
// wake-up. A delivered payload is the inner endpoint's own pooled buffer,
// cut back to the payload prefix, or — for a payload under a quarter of
// that buffer — a copy in one of the endpoint's class pools; Recycle hands
// each back to its own pool.

const (
	// recvBurst is how many datagrams one pull takes from the inner
	// endpoint, and so how many DATA one ACK can cover. An eighth of the
	// window: the sender always has most of its window to keep the wire busy
	// while one burst's ACK is on its way back, a hole is reported within
	// eight arrivals, and a kernel UDP endpoint below stages at most this
	// many 64 KB receive buffers for us. Sixteen measured no faster on
	// rd_send_1k and held 1 MB more on sock_rd_1k_udp (EXPERIMENTS.md).
	recvBurst = windowSize / 8
	// deliveryDepth bounds the delivery queue (a power of two). When the
	// application stops receiving, recvLoop blocks here — after the ACKs
	// for what it holds went out — and the inner endpoint's own queue, then
	// the senders' windows, back up behind it.
	deliveryDepth = 1024
)

// message is one delivered payload and its source.
type message struct {
	payload []byte
	from    transport.Addr
}

// resend is one window packet picked for retransmission under the peer
// lock and sent after it; the transmission reference taken with it keeps
// the buffer alive in between.
type resend struct {
	pd      *pending
	payload []byte
	seq     uint32
}

// rxBurst is recvLoop's working state, reused burst after burst so the
// receive path allocates nothing.
type rxBurst struct {
	pkts  [recvBurst][]byte
	froms [recvBurst]transport.Addr
	// tf holds each packet's type/flags byte once its CRC has verified, or 0
	// — which no frame type is — when it has not: a burst of 64 KB frames is
	// checksummed before any peer lock is taken, not under it.
	tf [recvBurst]byte
	// touched lists the peers whose DATA this burst saw, each once: they are
	// owed one ACK.
	touched [recvBurst]*peerEntry
	ntouch  int
	ack     [ackLen]byte
	// out stages the burst's deliverable messages: one per in-order DATA,
	// plus whatever a filled hole releases from a reassembly ring (it grows
	// to that the first time one does).
	out []message
	// resends collects fast retransmits decided while a peer lock is held.
	resends []resend
}

// recvLoop is the endpoint's one receive goroutine.
func (e *Endpoint) recvLoop() {
	defer e.wg.Done()
	rx := &rxBurst{out: make([]message, 0, recvBurst)}
	for {
		n, err := e.inner.RecvBatch(rx.pkts[:], rx.froms[:], 0)
		if err != nil {
			return // endpoint closed underneath us
		}
		open := e.handleBurst(rx, n)
		e.recvBurstHist.Observe(int64(n))
		if !open {
			return
		}
	}
}

// handleBurst processes one inner burst and reports whether the loop should
// go on (false once the endpoint closed under a full delivery queue).
func (e *Endpoint) handleBurst(rx *rxBurst, n int) bool {
	now := time.Now()
	for i, pkt := range rx.pkts[:n] {
		rx.tf[i], _ = frameType(pkt)
	}
	for i := 0; i < n; {
		j := i + 1
		for j < n && rx.froms[j] == rx.froms[i] {
			j++
		}
		e.handleRun(rx, i, j, now)
		i = j
	}
	// ACKs leave before the burst is published. Publishing first would make
	// the consumer the next goroutine to run on this P, with the ACK — and
	// so the sender's next window — waiting behind it; and a full delivery
	// queue must never hold back an acknowledgement.
	for _, ent := range rx.touched[:rx.ntouch] {
		e.sendAck(rx, ent)
	}
	clear(rx.touched[:rx.ntouch])
	rx.ntouch = 0
	if len(rx.out) == 0 {
		return true
	}
	queued := e.dq.put(rx.out)
	for _, m := range rx.out[queued:] {
		e.Recycle(m.payload) // closed while blocked: these were never delivered
	}
	open := queued == len(rx.out)
	clear(rx.out)
	rx.out = rx.out[:0]
	return open
}

// handleRun processes packets [i, j) of the burst, all from one source,
// under one acquisition of that peer's lock. Every buffer not handed up or
// parked goes back to the inner endpoint here.
func (e *Endpoint) handleRun(rx *rxBurst, i, j int, now time.Time) {
	from := rx.froms[i]
	var ent *peerEntry
	sawData, freed := false, false
	for k := i; k < j; k++ {
		pkt := rx.pkts[k]
		rx.pkts[k] = nil
		kept := false
		tf := rx.tf[k]
		switch {
		case len(pkt) < dataTrailerLen:
			e.runts.Inc()
			telemetry.DefaultTrace.Record(telemetry.EvDrop, telemetry.PeerToken(from), len(pkt), telemetry.DropMalformed)
		case tf == 0:
			e.crcFail.Inc()
			telemetry.DefaultTrace.Record(telemetry.EvCRCFail, telemetry.PeerToken(from), len(pkt), 0)
		case tf&typeMask == typeData:
			if ent == nil {
				var err error
				if ent, err = e.lockPeer(from); err != nil {
					// Table at capacity: the stranger's packet is dropped
					// exactly like a loss (peertab counts the rejection).
					break
				}
			}
			var admitted bool
			kept, admitted = e.handleData(rx, ent, pkt, tf)
			sawData = sawData || admitted
		case tf&typeMask == typeAck && len(pkt) == ackLen:
			if ent == nil {
				// Look up without creating: an ACK from an address we are
				// not talking to (an evicted peer's stale ack, a
				// mis-delivery) must not mint state.
				ent = e.tab.Lookup(from)
			}
			if ent != nil && e.handleAck(rx, ent, pkt, tf, now) {
				freed = true
			}
		}
		if !kept {
			e.inner.Recycle(pkt)
		}
	}
	if ent == nil {
		return
	}
	if sawData {
		rx.touch(ent)
	}
	wait := ent.V.sendWait
	ent.Touch(now.UnixNano())
	ent.Unlock()
	for _, r := range rx.resends {
		e.retransmits.Inc()
		e.ccFastRexmit.Inc()
		telemetry.DefaultTrace.Record(telemetry.EvRetransmit, telemetry.PeerToken(from), len(r.payload), r.seq)
		if err := e.inner.SendTo(r.payload, from); err != nil {
			e.dataSendFail.Inc()
		}
		e.releaseRef(r.pd, r.payload)
	}
	clear(rx.resends)
	rx.resends = rx.resends[:0]
	if freed {
		pulse(wait)
	}
}

// touch records that ent is owed an ACK for this burst.
func (rx *rxBurst) touch(ent *peerEntry) {
	for _, t := range rx.touched[:rx.ntouch] {
		if t == ent {
			return
		}
	}
	rx.touched[rx.ntouch] = ent
	rx.ntouch++
}

// sendAck cuts and sends the burst's one ACK for ent: the peer's receive
// state — cumulative ack, the SACK word, the latched ECN echo — as the
// whole burst left it. A failed send is recoverable (acks are cumulative
// and the next inbound DATA re-cuts one) but must be counted, not swallowed.
func (e *Endpoint) sendAck(rx *rxBurst, ent *peerEntry) {
	ent.Lock()
	if ent.Gone() {
		ent.Unlock()
		return // evicted since its run: the sender's retransmission starts over
	}
	ps := &ent.V
	var flags byte
	if ps.ecnEcho {
		flags, ps.ecnEcho = flagECN, false
	}
	ack := appendAck(rx.ack[:0], ps.txEpoch, flags, ps.expected-1, ps.sack)
	ent.Unlock()
	if err := e.inner.SendTo(ack, ent.Key); err != nil {
		e.ackSendFail.Inc()
		return
	}
	e.acksSent.Inc()
}

// handleData takes one CRC-valid DATA frame. An in-order frame goes straight
// to the burst's output and never touches reassembly state; one that leaves
// a gap parks in the peer's ring and sets its SACK bit. kept reports that
// pkt's buffer was handed up or parked (the caller recycles it otherwise);
// admitted that the frame belongs to the conversation and is owed an ACK —
// duplicates and out-of-window frames included, since the cumulative ACK is
// truthful and its epoch lets a sender whose conversation predates ours
// detect the restart. Caller holds the entry lock.
func (e *Endpoint) handleData(rx *rxBurst, ent *peerEntry, pkt []byte, tf byte) (kept, admitted bool) {
	n := len(pkt) - dataTrailerLen
	seq := nio.U32(pkt[n:])
	if !e.admitEpoch(ent, pkt[len(pkt)-epochBack], true, seq) {
		return false, false
	}
	ps := &ent.V
	if tf&flagECN != 0 {
		// Congestion-experienced mark from the network below: latch the
		// echo for the burst's ACK to carry back to the sender.
		e.ccEcnMarks.Inc()
		ps.ecnEcho = true
	}
	// The subtraction is wraparound-correct, so a window that straddles
	// seq 2^32 → 0 behaves like any other.
	d := seq - ps.expected
	switch {
	case d == 0:
		payload, kept := e.handUp(pkt, n)
		rx.out = append(rx.out, message{payload, ent.Key})
		ps.expected++
		// sack bit i stands for seq expected+i; bit 0 is the hole itself.
		for ps.sack >>= 1; ps.sack&1 != 0; ps.sack >>= 1 {
			slot := &ps.ring[ps.expected&(windowSize-1)]
			rx.out = append(rx.out, message{*slot, ent.Key})
			*slot = nil
			ps.expected++
		}
		return kept, true
	case d < acceptWindow:
		if ps.sack&(1<<d) != 0 {
			// Already parked: the sender resent a packet we hold (or the
			// wire duplicated it) — a spurious retransmission either way.
			e.ccSpurious.Inc()
			return false, true
		}
		if ps.ring == nil {
			ps.ring = new([windowSize][]byte)
		}
		payload, kept := e.handUp(pkt, n)
		ps.ring[seq&(windowSize-1)] = payload
		ps.sack |= 1 << d
		return kept, true
	case seqLE(seq, ps.expected-1):
		// Old duplicate (the sender missed our ACK). Counted spurious: this
		// packet was already delivered, so resending it moved no data.
		e.ccSpurious.Inc()
	default:
		// Beyond the window: a sane sender cannot produce this within one
		// conversation, so nothing is stored — one garbage packet must not
		// reserve reassembly state.
		e.windowDrops.Inc()
	}
	return false, true
}

// Copy-break size classes: capacity 2^k + classHeadroom for k =
// minClassShift..maxClassShift, 256 B to 16.1 KiB. The headroom fits the
// headers of the layers above, so a power-of-two application message (a
// 4 KiB eager message: 4096 + msg's 32 + ddp's 18) stays in its own class;
// and no inner pool in the tree uses such a size (simnet 2 KiB and 64.5 KB,
// kernel UDP 2 KiB and 65507 B).
const (
	classHeadroom = 128
	minClassShift = 7
	maxClassShift = 14
	numClasses    = maxClassShift - minClassShift + 1
)

// classCap is class c's buffer capacity.
func classCap(c int) int { return 1<<(minClassShift+c) + classHeadroom }

// classFor returns the smallest class whose buffers hold n bytes, or -1
// when none does.
func classFor(n int) int {
	if n > classCap(numClasses-1) {
		return -1
	}
	x := max(n-classHeadroom, 1<<minClassShift)
	return bits.Len(uint(x-1)) - minClassShift
}

// classOf returns the class whose capacity is exactly c, or -1.
func classOf(c int) int {
	x := c - classHeadroom
	if x < 1<<minClassShift || x > 1<<maxClassShift || x&(x-1) != 0 {
		return -1
	}
	return bits.TrailingZeros(uint(x)) - minClassShift
}

// handUp turns a received DATA frame into the payload slice delivered
// upward. A frame that fills at least a quarter of its buffer is handed up
// in place — the payload is a prefix of the buffer, so its capacity still
// identifies the buffer to the inner pool. A smaller one is copied into a
// buffer of the smallest class that holds it and its big buffer freed at
// once: a 1 KiB datagram must not pin a 64 KiB receive buffer for as long
// as it waits in a ring or a queue. So that a capacity names one owner, an
// inner buffer whose capacity is a class's is copied too, whatever it
// holds; a payload beyond the largest class gets an exact-size buffer of
// its own.
func (e *Endpoint) handUp(pkt []byte, n int) (payload []byte, kept bool) {
	if len(pkt) >= cap(pkt)/4 && classOf(cap(pkt)) < 0 {
		return pkt[:n], true
	}
	var buf []byte
	if c := classFor(n); c >= 0 {
		buf = e.classes[c].Get()
	} else {
		buf = make([]byte, 0, n)
	}
	return append(buf, pkt[:n]...), false
}

// releaseRing returns every parked out-of-order buffer to the inner pool
// and empties the SACK word. Caller holds the entry lock.
func (e *Endpoint) releaseRing(ps *peerState) {
	for ; ps.sack != 0; ps.sack &= ps.sack - 1 {
		slot := &ps.ring[(ps.expected+uint32(bits.TrailingZeros64(ps.sack)))&(windowSize-1)]
		e.Recycle(*slot)
		*slot = nil
	}
}

// handleAck applies one CRC-valid ACK to the peer's send window: frees what
// it acknowledges, feeds RTT and congestion control, and picks holes for
// fast retransmit (queued on rx.resends for the caller to send once the
// lock is dropped). Reports whether window space was freed. Caller holds
// the entry lock.
func (e *Endpoint) handleAck(rx *rxBurst, ent *peerEntry, pkt []byte, tf byte, now time.Time) bool {
	cum := nio.U32(pkt)
	bitmap := nio.U64(pkt[4:])
	if !e.admitEpoch(ent, pkt[ackLen-epochBack], false, 0) {
		return false
	}
	ps := &ent.V
	// Walk the live window no further than this ACK can reach: up to cum,
	// or the highest SACKed seq, and never past what was sent.
	end, holes := sackHighest(cum, bitmap)
	if !holes {
		end = cum
	}
	if !seqLE(end, ps.nextSeq-1) {
		end = ps.nextSeq - 1
	}
	freedN := 0
	sample := time.Duration(-1)
	for seq := ps.ackedTo + 1; seqLE(seq, end); seq++ {
		pd := &ps.wnd[seq&(windowSize-1)]
		if !pd.inUse || pd.seq != seq {
			continue // an earlier SACK already cleared this slot
		}
		// SACK offset in wraparound arithmetic: seq-cum-1 is the bit index
		// even when cum is just below 2^32 and seq just above 0.
		if d := seq - cum - 1; !seqLE(seq, cum) && (d >= sackBits || bitmap&(1<<d) == 0) {
			continue
		}
		// Karn's algorithm: only first transmissions give an unambiguous
		// RTT sample — an ack after a retransmit could match either send.
		// One ACK yields one sample, from the newest packet it covers: the
		// older ones also waited for the receiver's burst to end.
		if pd.retries == 0 {
			sample = now.Sub(pd.lastSent)
		}
		payload := pd.payload
		pd.inUse, pd.payload = false, nil
		ps.unackedN--
		e.releaseRef(pd, payload)
		freedN++
	}
	if sample >= 0 {
		e.rtt.Observe(sample.Microseconds())
		ps.observeRTT(sample)
	}
	// Advance the contiguous-acked floor to the cumulative ack (never past
	// what was actually sent: a garbage cum must not detach the floor from
	// the window, and SACKed seqs above it stay holes until cum catches up).
	if seqLE(ps.ackedTo+1, cum) && seqLE(cum, ps.nextSeq-1) {
		ps.ackedTo = cum
	}
	if freedN > 0 {
		// Acknowledged progress ends the backoff regime (Karn): the path is
		// passing traffic again, so retransmission timing restarts from the
		// current RTT estimate instead of the escalated timeout.
		ps.backoff = 0
	}
	ps.ccGrow(freedN)
	if tf&flagECN != 0 {
		// The receiver saw a congestion mark within the last RTT:
		// multiplicative decrease, once per congestion event.
		if ps.ccDecrease(false) {
			e.ccMDEvents.Inc()
		}
	}
	if holes {
		// Fast retransmit. A hole is lost once dupAckThresh sequence
		// numbers above it have been selectively acknowledged (RFC 6675
		// IsLost, IRN's SACK-driven recovery): the rule reads the ACK's
		// content, not how many ACK frames carried it, so it holds whether
		// the receiver acknowledges every DATA or one burst at a time. Each
		// hole is fast-retransmitted once; if that copy is lost too, the
		// RTO takes over.
		lost := false
		for seq := ps.ackedTo + 1; seqLE(seq+1, end); seq++ {
			pd := &ps.wnd[seq&(windowSize-1)]
			if !pd.inUse || pd.seq != seq || pd.retries != 0 || sackedAbove(seq, cum, bitmap) < dupAckThresh {
				continue
			}
			pd.retries++ // Karn: its next ack is ambiguous
			pd.lastSent = now
			pd.refs.Add(1)
			rx.resends = append(rx.resends, resend{pd: pd, payload: pd.payload, seq: seq})
			lost = true
		}
		if lost && ps.ccDecrease(false) {
			e.ccMDEvents.Inc()
		}
	}
	e.ccCwnd.Set(int64(ps.cwnd))
	if ps.unackedN == 0 && ps.wheelIdx >= 0 {
		e.wheel.Disarm(ent.Key, ps.wheelIdx)
		ps.wheelIdx = -1
	}
	return freedN > 0
}

// delivery is the bounded queue between recvLoop and the application's
// Recv/RecvBatch: a burst goes in under one lock with one wake-up, and a
// receive takes out whatever is queued, up to its width, under one lock.
// It has the same popWait-with-last-look shape as simnet's receive queue.
type delivery struct {
	mu    sync.Mutex
	ring  []message // deliveryDepth slots, allocated once
	head  int
	n     int
	avail chan struct{}   // pulsed when messages arrive
	space chan struct{}   // pulsed when room frees up
	done  <-chan struct{} // the endpoint's close signal
}

func pulse(ch chan struct{}) {
	select {
	case ch <- struct{}{}:
	default:
	}
}

// put appends ms in order, blocking while the queue is full, and returns
// how many it queued: all of them unless the endpoint closed meanwhile.
func (q *delivery) put(ms []message) int {
	i := 0
	for {
		q.mu.Lock()
		for ; i < len(ms) && q.n < deliveryDepth; i++ {
			q.ring[(q.head+q.n)&(deliveryDepth-1)] = ms[i]
			q.n++
		}
		q.mu.Unlock()
		pulse(q.avail)
		if i == len(ms) {
			return i
		}
		select {
		case <-q.space:
		case <-q.done:
			return i
		}
	}
}

// pop is the queue's one removal path: under one lock acquisition it moves
// what is queued, up to the slices' width, to the caller, who now owns the
// buffers. An empty queue is ErrTimeout, or ErrClosed once the endpoint
// closed.
func (q *delivery) pop(pkts [][]byte, froms []transport.Addr) (int, error) {
	max := min(len(pkts), len(froms))
	if max == 0 {
		return 0, nil
	}
	q.mu.Lock()
	n := min(max, q.n)
	for i := 0; i < n; i++ {
		m := &q.ring[(q.head+i)&(deliveryDepth-1)]
		pkts[i], froms[i] = m.payload, m.from
		*m = message{}
	}
	q.head = (q.head + n) & (deliveryDepth - 1)
	q.n -= n
	more := q.n > 0
	q.mu.Unlock()
	if n == 0 {
		select {
		case <-q.done:
			return 0, transport.ErrClosed
		default:
			return 0, transport.ErrTimeout
		}
	}
	if more {
		// Other receivers may be parked on the cap-1 avail pulse this
		// wake-up consumed; re-pulse so none is stranded.
		pulse(q.avail)
	}
	pulse(q.space)
	return n, nil
}

// popWait blocks until messages can be popped, the endpoint closes, or tch
// fires.
func (q *delivery) popWait(pkts [][]byte, froms []transport.Addr, tch <-chan time.Time) (int, error) {
	for {
		expired := false
		select {
		case <-q.avail:
		case <-q.done:
		case <-tch:
			expired = true
		}
		// Whatever the wake-up, look: select picks at random among ready
		// cases, so a fired timer (or a close) does not mean the queue is
		// empty, and a delivered message must never surface as a timeout —
		// timeout polling is the stack's loss signal.
		n, err := q.pop(pkts, froms)
		if err != transport.ErrTimeout || expired {
			return n, err
		}
	}
}

// Recv implements transport.Datagram, returning the next in-order message
// from any peer: RecvBatch of one.
func (e *Endpoint) Recv(timeout time.Duration) ([]byte, transport.Addr, error) {
	var p [1][]byte
	var from [1]transport.Addr
	_, err := e.RecvBatch(p[:], from[:], timeout)
	return p[0], from[0], err
}

// RecvBatch implements transport.Datagram: it waits like Recv for the first
// message, then takes whatever else is already queued. The timeout timer is
// armed only once the queue is found empty. Each payload is owned by the
// caller until handed back through Recycle.
func (e *Endpoint) RecvBatch(pkts [][]byte, froms []transport.Addr, timeout time.Duration) (int, error) {
	n, err := e.dq.pop(pkts, froms)
	if err != transport.ErrTimeout {
		return n, err
	}
	var tch <-chan time.Time
	if timeout > 0 {
		t := time.NewTimer(timeout)
		defer t.Stop()
		tch = t.C
	}
	return e.dq.popWait(pkts, froms, tch)
}

// Recycle implements transport.Datagram, routing a consumed payload by its
// capacity: a class capacity is a copy-break buffer and goes back to its
// class pool; anything else with room for a trailer behind the payload is
// the inner endpoint's buffer cut back to the payload prefix, and goes back
// to the inner pool, which recognises it by that capacity. handUp never
// hands up an inner buffer of a class capacity, so no buffer can go to the
// wrong owner. What is left — an exact-size copy of a payload beyond the
// largest class — is left to the collector.
func (e *Endpoint) Recycle(p []byte) {
	if c := classOf(cap(p)); c >= 0 {
		e.classes[c].Put(p)
	} else if cap(p)-len(p) >= dataTrailerLen {
		e.inner.Recycle(p)
	}
}

// RecvPoolStats implements transport.Datagram: the buffers delivered here
// are the inner endpoint's, so its pool counters are this layer's.
func (e *Endpoint) RecvPoolStats() (hits, misses int64) { return e.inner.RecvPoolStats() }
