package iwarp

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/ddp"
	"repro/internal/memreg"
	"repro/internal/nio"
	"repro/internal/rdmap"
	"repro/internal/telemetry"
	"repro/internal/transport"
)

// UDConfig parameterises a datagram queue pair.
type UDConfig struct {
	// RecvDepth bounds the posted-receive queue (default 256).
	RecvDepth int
	// ReassemblyTimeout bounds how long partial multi-segment messages are
	// retained before being abandoned (default 2 s).
	ReassemblyTimeout time.Duration
	// PerChunkCompletions switches Write-Record target notification from
	// one aggregated validity-map completion per message to one completion
	// per placed chunk — the paper's §IV.B.3 design alternative
	// ("individual entries for each logical chunk of data in a message or
	// ... a validity map").
	PerChunkCompletions bool
	// BlockOnRNR makes the placement engine wait for a posted receive
	// instead of dropping a completed message, emulating the RNR
	// NAK-and-retry behaviour of a reliable-datagram service. Only
	// meaningful when the QP runs over a reliable LLP (rudp): blocking
	// propagates backpressure to the sender through the transport window.
	// Messages are still dropped after ReassemblyTimeout to bound the
	// stall. Never enable over a raw unreliable endpoint — it would let
	// one slow receiver stall the placement engine for all peers.
	BlockOnRNR bool
}

// defaultReassemblyTimeout bounds how long partial multi-segment messages
// and Write-Record trackers are retained when UDConfig leaves it unset.
const defaultReassemblyTimeout = 2 * time.Second

// UDQP is a datagram (unreliable datagram, or — when bound to an
// rudp.Endpoint — reliable datagram) queue pair. One UDQP serves any number
// of peers: there is no connection, sends name their destination, and
// receive completions report their source. That is the paper's scalability
// argument in code — per-peer state is one reassembly slot at most, not a
// connection.
//
// Loss semantics follow §IV.B: lost datagrams produce nothing (poll with a
// timeout); CRC failures and placement violations yield advisory WTError
// completions; the QP never transitions into an error state.
type UDQP struct {
	pd     *memreg.PD
	tbl    *memreg.Table
	ch     *ddp.DatagramChannel
	sendCQ *CQ
	recvCQ *CQ
	cfg    UDConfig

	rq  *recvQueue
	msn atomic.Uint32

	// mu guards the per-message state: claims of multi-segment untagged
	// messages, trackers of inbound multi-segment Write-Records, and our
	// outstanding UD Reads, keyed by our own MSN. recvLoop creates and
	// completes entries; the sweeper expires them. Whoever deletes an entry
	// under mu owns its completion, so each completes exactly once.
	mu      sync.Mutex
	claims  map[claimKey]*udClaim
	records map[wrKey]*wrTracker
	reads   map[uint32]*udRead

	closed atomic.Bool
	done   chan struct{}
	wg     sync.WaitGroup

	// Datapath counters are registry handles (DESIGN.md §4.6): Stats()
	// reads this QP's handles exactly; the process scrape sums all QPs.
	stats struct {
		msgsSent, msgsRecv, bytesSent, bytesRecv          *telemetry.Counter
		recvDropped, placed, placeErr, reassembled, swept *telemetry.Counter
	}
}

// recvBurst bounds one pull from the DDP channel; it matches the DDP and
// transport burst sizes so a full send burst crosses each stage whole.
const recvBurst = 32

// claimKey identifies one in-flight multi-segment untagged message by
// source, queue and MSN.
type claimKey struct {
	from transport.Addr
	qn   uint32
	msn  uint32
}

// udClaim is the receive-side state of one multi-segment untagged message:
// the posted receive it claimed when its first segment arrived, plus
// arrival tracking. Segments are placed directly into the claimed buffer —
// there is no staging allocation and no reassembly copy, mirroring how an
// RNIC lands untagged data in the posted receive as it arrives. A claim
// without a receive (hasWR false) is a tombstone: the message was already
// counted dropped, and it absorbs the remaining segments so they neither
// consume a later receive nor recount the drop.
type udClaim struct {
	wr      RecvWR
	hasWR   bool
	msgLen  uint32
	arrived memreg.ValidityMap
	born    time.Time
}

// wrKey identifies one in-flight Write-Record message at the target by
// source and the source's MSN.
type wrKey struct {
	from transport.Addr
	msn  uint32
}

// wrTracker accumulates placement state for a multi-segment Write-Record
// message until its Last segment arrives (or it is swept).
type wrTracker struct {
	stag     memreg.STag
	validity memreg.ValidityMap
	born     time.Time
}

// OpenUD creates a datagram QP over the given endpoint. The endpoint may be
// a raw unreliable datagram socket (UD service) or an rudp.Endpoint
// (RD service); the QP is agnostic, exactly as the paper's design intends
// ("compatible with both unreliable and reliable lower UDP layers").
// Completions for sends go to sendCQ and for receives/target events to
// recvCQ; the two may be the same CQ, and either may be a handler CQ.
func OpenUD(ep transport.Datagram, pd *memreg.PD, tbl *memreg.Table, sendCQ, recvCQ *CQ, cfg UDConfig) (*UDQP, error) {
	if ep == nil || pd == nil || tbl == nil || sendCQ == nil || recvCQ == nil {
		return nil, fmt.Errorf("%w: nil argument", ErrBadWR)
	}
	qp := &UDQP{
		pd:      pd,
		tbl:     tbl,
		ch:      ddp.NewDatagramChannel(ep),
		sendCQ:  sendCQ,
		recvCQ:  recvCQ,
		cfg:     cfg,
		rq:      newRecvQueue(cfg.RecvDepth),
		claims:  make(map[claimKey]*udClaim),
		records: make(map[wrKey]*wrTracker),
		reads:   make(map[uint32]*udRead),
	}
	qp.stats.msgsSent = telemetry.Default.Counter("diwarp_ud_msgs_sent_total")
	qp.stats.msgsRecv = telemetry.Default.Counter("diwarp_ud_msgs_recv_total")
	qp.stats.bytesSent = telemetry.Default.Counter("diwarp_ud_bytes_sent_total")
	qp.stats.bytesRecv = telemetry.Default.Counter("diwarp_ud_bytes_recv_total")
	qp.stats.recvDropped = telemetry.Default.Counter("diwarp_ud_recv_dropped_total")
	qp.stats.placed = telemetry.Default.Counter("diwarp_ud_placed_segments_total")
	qp.stats.placeErr = telemetry.Default.Counter("diwarp_ud_place_errors_total")
	qp.stats.reassembled = telemetry.Default.Counter("diwarp_ud_reassembled_total")
	qp.stats.swept = telemetry.Default.Counter("diwarp_ud_swept_total")
	qp.done = make(chan struct{})
	qp.wg.Add(2)
	go qp.recvLoop()
	go qp.sweepLoop()
	return qp, nil
}

// LocalAddr returns the QP's bound datagram address.
func (qp *UDQP) LocalAddr() transport.Addr { return qp.ch.LocalAddr() }

// PD returns the protection domain.
func (qp *UDQP) PD() *memreg.PD { return qp.pd }

// MaxMessage returns the largest single message the QP accepts. Following
// the paper's recommendation, in-stack reassembly handles messages spanning
// multiple datagrams, bounded here to keep tracker state sane.
const maxUDMessage = 1 << 30

// PostRecv posts a receive buffer for one incoming untagged message.
func (qp *UDQP) PostRecv(id uint64, buf []byte) error {
	if qp.closed.Load() {
		return ErrQPClosed
	}
	return qp.rq.post(RecvWR{ID: id, Buf: buf})
}

// PostSend transmits one untagged message to the destination (the datagram
// send verb of §IV.B item 4: the WR carries the destination address). The
// WR completes as soon as every segment is handed to the LLP.
func (qp *UDQP) PostSend(id uint64, to transport.Addr, payload nio.Vec) error {
	return qp.postUntagged(id, to, payload, rdmap.OpSend)
}

// PostSendSE is Send with Solicited Event. Over our software stack the
// event is the completion itself; the distinct opcode is preserved on the
// wire for protocol fidelity.
func (qp *UDQP) PostSendSE(id uint64, to transport.Addr, payload nio.Vec) error {
	return qp.postUntagged(id, to, payload, rdmap.OpSendSE)
}

func (qp *UDQP) postUntagged(id uint64, to transport.Addr, payload nio.Vec, op rdmap.Opcode) error {
	if qp.closed.Load() {
		return ErrQPClosed
	}
	n := payload.Len()
	if n > maxUDMessage {
		return fmt.Errorf("%w: message of %d bytes", ErrBadWR, n)
	}
	// No send lock: the datagram channel's pooled datapath is safe for
	// concurrent posters, and segment interleaving between messages is
	// harmless — every segment is self-describing (MSN/MO/MsgLen).
	msn := qp.msn.Add(1)
	if err := qp.ch.SendUntagged(to, ddp.QNSend, msn, rdmap.Ctrl(op), payload); err != nil {
		return err
	}
	qp.stats.msgsSent.Inc()
	qp.stats.bytesSent.Add(int64(n))
	if telemetry.Sampled(msn) {
		telemetry.DefaultTrace.Record(telemetry.EvSend, telemetry.PeerToken(to), n, msn)
	}
	qp.sendCQ.post(CQE{WRID: id, Type: WTSend, ByteLen: n, Src: to})
	return nil
}

// PostWriteRecord performs the paper's RDMA Write-Record (§IV.B.3): a truly
// one-sided tagged write of payload into the remote region named stag at
// offset to. No receive is consumed at the target; the source completes
// "at the moment that the last bit of the message is passed to [the]
// transport layer". The target application discovers the data through
// WTWriteRecordRecv completions carrying a validity map.
func (qp *UDQP) PostWriteRecord(id uint64, dest transport.Addr, stag memreg.STag, to uint64, payload nio.Vec) error {
	if qp.closed.Load() {
		return ErrQPClosed
	}
	n := payload.Len()
	if n > maxUDMessage {
		return fmt.Errorf("%w: message of %d bytes", ErrBadWR, n)
	}
	msn := qp.msn.Add(1)
	if err := qp.ch.SendTagged(dest, stag, to, msn, rdmap.Ctrl(rdmap.OpWriteRecord), payload); err != nil {
		return err
	}
	qp.stats.msgsSent.Inc()
	qp.stats.bytesSent.Add(int64(n))
	if telemetry.Sampled(msn) {
		telemetry.DefaultTrace.Record(telemetry.EvSend, telemetry.PeerToken(dest), n, msn)
	}
	qp.sendCQ.post(CQE{WRID: id, Type: WTWriteRecord, ByteLen: n, Src: dest})
	return nil
}

// recvLoop is the QP's placement engine, the one goroutine that places
// arriving data: it pulls bursts of verified segments from the DDP channel
// and dispatches each in arrival order, so one queue wakeup and one batch
// of queue locks serve up to recvBurst datagrams, and every peer's
// completions post in the order its messages completed. A slow placement
// stalls the next pull, which backpressures the LLP's queue. It exits when
// the endpoint closes, flushing posted receives. It blocks without a
// timeout — reassembly garbage collection runs in sweepLoop — so an idle
// QP parks cheaply, with no timer churn on the per-datagram path.
func (qp *UDQP) recvLoop() {
	defer qp.wg.Done()
	var segs [recvBurst]ddp.Segment
	var froms [recvBurst]transport.Addr
	for {
		n, err := qp.ch.RecvBatch(segs[:], froms[:], 0)
		if err != nil {
			if errors.Is(err, transport.ErrTimeout) {
				continue
			}
			qp.flushRecvs()
			return
		}
		for i := 0; i < n; i++ {
			qp.dispatch(froms[i], &segs[i])
			// Every handler copies (or places) the payload before returning,
			// so the transport buffer can go back to its pool.
			qp.ch.Recycle(segs[i].Raw)
			segs[i] = ddp.Segment{}
		}
	}
}

// dispatch routes one segment to its opcode's handler.
func (qp *UDQP) dispatch(from transport.Addr, seg *ddp.Segment) {
	op, perr := rdmap.ParseCtrl(seg.RDMAP)
	if perr != nil {
		qp.advisory(from, perr)
		return
	}
	switch op {
	case rdmap.OpSend, rdmap.OpSendSE:
		qp.handleSend(from, seg)
	case rdmap.OpWriteRecord:
		qp.handleWriteRecord(from, seg)
	case rdmap.OpReadReq:
		qp.handleReadReq(from, seg)
	case rdmap.OpReadResp:
		qp.handleReadResp(from, seg)
	case rdmap.OpTerminate:
		if t, terr := rdmap.ParseTerminate(seg.Payload); terr == nil {
			qp.advisory(from, t)
		}
	default:
		// RDMA Write (non-Record) is undefined over UD; report, stay up.
		qp.advisory(from, fmt.Errorf("%w over datagram QP: %s", rdmap.ErrBadOpcode, op))
	}
}

func (qp *UDQP) reasmTimeout() time.Duration {
	if qp.cfg.ReassemblyTimeout > 0 {
		return qp.cfg.ReassemblyTimeout
	}
	return defaultReassemblyTimeout
}

// advisory posts a WTError completion: the UD error model (errors are
// "simply reported, but the QP is not forced into the error state").
func (qp *UDQP) advisory(from transport.Addr, err error) {
	qp.recvCQ.post(CQE{Type: WTError, Status: StatusBadWR, Err: err, Src: from})
}

// handleSend completes one untagged message. Single-segment messages (the
// common case below the 64 KB datagram limit) take a direct path: the
// payload still aliases the transport buffer and is copied ONCE, into the
// posted receive. Multi-segment messages claim the posted receive at first
// arrival and place each segment directly into it — no staging buffer, no
// reassembly copy.
//
//diwarp:hotpath
func (qp *UDQP) handleSend(from transport.Addr, seg *ddp.Segment) {
	if !seg.Last || seg.MO != 0 {
		qp.placeUntagged(from, seg)
		return
	}
	if int(seg.MsgLen) != len(seg.Payload) {
		return // inconsistent header; drop
	}
	wr, ok := qp.rq.pop()
	if !ok && qp.cfg.BlockOnRNR {
		wr, ok = qp.waitRecv()
	}
	if !ok {
		qp.dropNoRecv(from, len(seg.Payload))
		return
	}
	if len(seg.Payload) > len(wr.Buf) {
		qp.completeLengthError(wr, from, len(seg.Payload))
		return
	}
	copy(wr.Buf, seg.Payload)
	qp.stats.msgsRecv.Inc()
	qp.stats.bytesRecv.Add(int64(len(seg.Payload)))
	if telemetry.Sampled(seg.MSN) {
		telemetry.DefaultTrace.Record(telemetry.EvRecv, telemetry.PeerToken(from), len(seg.Payload), seg.MSN)
	}
	qp.recvCQ.post(CQE{WRID: wr.ID, Type: WTRecv, ByteLen: len(seg.Payload), Src: from})
}

// placeUntagged handles one segment of a multi-segment untagged message by
// direct placement: the first segment to arrive (in any order) claims the
// posted receive at the queue head, and every segment copies straight into
// it at its message offset. A validity map tracks arrival; the completion
// fires when the byte count closes. Outlined from handleSend: it takes the
// lock the sweeper shares.
func (qp *UDQP) placeUntagged(from transport.Addr, seg *ddp.Segment) {
	end := uint64(seg.MO) + uint64(len(seg.Payload))
	if end > uint64(seg.MsgLen) {
		return // segment overflows its declared message; drop
	}
	key := claimKey{from: from, qn: seg.QN, msn: seg.MSN}
	qp.mu.Lock()
	cl, ok := qp.claims[key]
	if !ok {
		// First segment of the message: claim a posted receive. The pop (and
		// the RNR wait, which can block for the reassembly timeout) runs
		// outside the lock so the sweeper is not stalled behind it.
		// Only recvLoop creates claims, so the key cannot appear
		// concurrently.
		qp.mu.Unlock()
		wr, got := qp.rq.pop()
		if !got && qp.cfg.BlockOnRNR {
			wr, got = qp.waitRecv()
		}
		if got && int(seg.MsgLen) > len(wr.Buf) {
			qp.completeLengthError(wr, from, int(seg.MsgLen))
			got = false // tombstone: error already reported, absorb the rest
		} else if !got {
			qp.dropNoRecv(from, int(seg.MsgLen))
		}
		cl = &udClaim{wr: wr, hasWR: got, msgLen: seg.MsgLen, born: time.Now()}
		qp.mu.Lock()
		qp.claims[key] = cl
	}
	if seg.MsgLen != cl.msgLen {
		qp.mu.Unlock()
		return // conflicting header for this MSN; drop the segment
	}
	if cl.hasWR {
		copy(cl.wr.Buf[seg.MO:end], seg.Payload)
	}
	cl.arrived.Add(uint64(seg.MO), uint64(len(seg.Payload)))
	if !cl.arrived.Complete(uint64(cl.msgLen)) {
		qp.mu.Unlock()
		return
	}
	delete(qp.claims, key)
	qp.mu.Unlock()
	if !cl.hasWR {
		return // tombstone completed: the drop was counted at claim time
	}
	qp.stats.reassembled.Inc()
	qp.stats.msgsRecv.Inc()
	qp.stats.bytesRecv.Add(int64(cl.msgLen))
	if telemetry.Sampled(seg.MSN) {
		telemetry.DefaultTrace.Record(telemetry.EvRecv, telemetry.PeerToken(from), int(cl.msgLen), seg.MSN)
	}
	qp.recvCQ.post(CQE{WRID: cl.wr.ID, Type: WTRecv, ByteLen: int(cl.msgLen), Src: from})
}

// waitRecv blocks until a receive is posted, the QP closes, or the
// reassembly timeout bounds the stall — the RNR NAK-and-retry loop of an
// RD service. Outlined from handleSend: it is the cold contended path, and
// it parks on channels the hot path never touches.
func (qp *UDQP) waitRecv() (RecvWR, bool) {
	timer := time.NewTimer(qp.reasmTimeout())
	defer timer.Stop()
	return qp.rq.wait(qp.done, timer.C)
}

// dropNoRecv records a message dropped for want of a posted receive, like a
// UD QP with an empty receive queue on a real RNIC. Cold path, outlined.
func (qp *UDQP) dropNoRecv(from transport.Addr, n int) {
	qp.stats.recvDropped.Inc()
	telemetry.DefaultTrace.Record(telemetry.EvDrop, telemetry.PeerToken(from), n, telemetry.DropNoRecv)
}

// completeLengthError completes a receive whose buffer was too small for
// the message. Cold path, outlined to keep handleSend fmt-free.
func (qp *UDQP) completeLengthError(wr RecvWR, from transport.Addr, n int) {
	qp.recvCQ.post(CQE{
		WRID: wr.ID, Type: WTRecv, Status: StatusLocalLength,
		Err: fmt.Errorf("iwarp: message %d bytes exceeds receive buffer %d", n, len(wr.Buf)),
		Src: from, ByteLen: n,
	})
}

func (qp *UDQP) handleWriteRecord(from transport.Addr, seg *ddp.Segment) {
	region, err := qp.tbl.Lookup(seg.STag)
	if err != nil {
		qp.stats.placeErr.Inc()
		qp.recvCQ.post(CQE{Type: WTError, Status: StatusRemoteInvalid, Err: err, Src: from, STag: seg.STag})
		return
	}
	if err := region.Place(qp.pd, memreg.RemoteWrite, seg.TO, seg.Payload); err != nil {
		qp.stats.placeErr.Inc()
		qp.recvCQ.post(CQE{Type: WTError, Status: StatusRemoteAccess, Err: err, Src: from, STag: seg.STag})
		return
	}
	region.Record(seg.TO, len(seg.Payload))
	qp.stats.placed.Inc()
	qp.stats.bytesRecv.Add(int64(len(seg.Payload)))
	if telemetry.Sampled(seg.MSN) {
		telemetry.DefaultTrace.Record(telemetry.EvWriteRecord, telemetry.PeerToken(from), len(seg.Payload), uint32(seg.STag))
	}

	if qp.cfg.PerChunkCompletions {
		var v memreg.ValidityMap
		v.Add(seg.TO, uint64(len(seg.Payload)))
		qp.recvCQ.post(CQE{
			Type: WTWriteRecordRecv, ByteLen: len(seg.Payload), Src: from,
			STag: seg.STag, TO: seg.TO, MsgLen: int(seg.MsgLen), Validity: v,
		})
		return
	}

	// Aggregated mode: single-segment fast path needs no tracker.
	if seg.Last && uint64(len(seg.Payload)) == uint64(seg.MsgLen) {
		var v memreg.ValidityMap
		v.Add(seg.TO, uint64(len(seg.Payload)))
		qp.stats.msgsRecv.Inc()
		qp.recvCQ.post(CQE{
			Type: WTWriteRecordRecv, ByteLen: len(seg.Payload), Src: from,
			STag: seg.STag, TO: seg.TO, MsgLen: int(seg.MsgLen), Validity: v,
		})
		return
	}

	key := wrKey{from: from, msn: seg.MSN}
	qp.mu.Lock()
	tr := qp.records[key]
	if tr == nil {
		tr = &wrTracker{stag: seg.STag, born: time.Now()}
		qp.records[key] = tr
	}
	tr.validity.Add(seg.TO, uint64(len(seg.Payload)))
	if !seg.Last {
		qp.mu.Unlock()
		return
	}
	// Deleting the tracker makes this call its owner: the sweeper can no
	// longer reach it, so the completion takes its validity map as is.
	delete(qp.records, key)
	qp.mu.Unlock()
	// The Last segment carries enough to locate the message base: its TO
	// plus its length minus the total message length.
	base := seg.TO + uint64(len(seg.Payload)) - uint64(seg.MsgLen)
	qp.stats.msgsRecv.Inc()
	qp.recvCQ.post(CQE{
		Type: WTWriteRecordRecv, ByteLen: int(tr.validity.Covered()), Src: from,
		STag: tr.stag, TO: base, MsgLen: int(seg.MsgLen), Validity: tr.validity,
	})
}

// sweepLoop periodically abandons stale per-message state, off the
// datapath.
func (qp *UDQP) sweepLoop() {
	defer qp.wg.Done()
	ticker := time.NewTicker(qp.reasmTimeout() / 2)
	defer ticker.Stop()
	for {
		select {
		case <-qp.done:
			return
		case now := <-ticker.C:
			qp.sweep(now)
		}
	}
}

// sweep abandons every claim, Write-Record tracker and UD Read older than
// the reassembly timeout, under one hold of mu, and posts the completions
// that owes after releasing it: a handler CQ runs its handler inside post,
// and a handler may call back into the QP (Footprint, PostRead), which
// takes mu.
//
// A claim of a partial message whose remaining segments never arrived
// gives its receive back by reposting it — the message is lost, the buffer
// is not; if the queue refilled meanwhile, the receive completes
// StatusTimedOut instead, so no posted buffer is ever silently leaked.
// Tombstones (claims that never got a receive) just expire.
//
// A Write-Record tracker whose Last segment never arrived is dropped
// without a completion — the paper's observation that "loss of this final
// packet results in the loss of the entire message". The placed bytes
// remain in the region (and in its validity map); only the notification
// is lost, exactly as in the paper's design.
//
// A UD Read whose response never completed completes StatusTimedOut,
// reporting whatever part of the response did arrive.
func (qp *UDQP) sweep(now time.Time) {
	cutoff := now.Add(-qp.reasmTimeout())
	var recvs, reads []CQE
	qp.mu.Lock()
	for k, cl := range qp.claims {
		if !cl.born.Before(cutoff) {
			continue
		}
		delete(qp.claims, k)
		qp.stats.swept.Inc()
		if !cl.hasWR {
			continue
		}
		if err := qp.rq.post(cl.wr); err != nil {
			recvs = append(recvs, CQE{
				WRID: cl.wr.ID, Type: WTRecv, Status: StatusTimedOut,
				Err: fmt.Errorf("iwarp: partial message abandoned after %v", qp.reasmTimeout()),
				Src: k.from,
			})
		}
	}
	for k, tr := range qp.records {
		if tr.born.Before(cutoff) {
			delete(qp.records, k)
			qp.stats.swept.Inc()
		}
	}
	for msn, rd := range qp.reads {
		if !rd.born.Before(cutoff) {
			continue
		}
		delete(qp.reads, msn)
		qp.stats.swept.Inc()
		reads = append(reads, CQE{
			WRID: rd.id, Type: WTRead, Status: StatusTimedOut,
			Err:     fmt.Errorf("iwarp: UD read timed out after %v", qp.reasmTimeout()),
			ByteLen: int(rd.validity.Covered()), Src: rd.peer, STag: rd.sink, Validity: rd.validity,
		})
	}
	qp.mu.Unlock()
	for _, e := range recvs {
		qp.recvCQ.post(e)
	}
	for _, e := range reads {
		qp.sendCQ.post(e)
	}
}

// flushRecvs completes with StatusFlushed, at close, every receive a
// partial message had claimed and every receive still posted: no receive
// WR vanishes without a completion.
func (qp *UDQP) flushRecvs() {
	var wrs []RecvWR
	qp.mu.Lock()
	for k, cl := range qp.claims {
		delete(qp.claims, k)
		if cl.hasWR {
			wrs = append(wrs, cl.wr)
		}
	}
	qp.mu.Unlock()
	for _, wr := range append(wrs, qp.rq.drain()...) {
		qp.recvCQ.post(CQE{WRID: wr.ID, Type: WTRecv, Status: StatusFlushed, Err: ErrQPClosed})
	}
}

// Stats returns a snapshot of the QP's datapath counters.
func (qp *UDQP) Stats() Stats {
	batches, segments, poolHits, poolMisses := qp.ch.SendStats()
	rb, rs, rec, rpHits, rpMisses := qp.ch.RecvStats()
	return Stats{
		BatchesSent:    batches,
		SegmentsSent:   segments,
		PoolHits:       poolHits,
		PoolMisses:     poolMisses,
		BatchesRecv:    rb,
		SegmentsRecv:   rs,
		Recycled:       rec,
		RecvPoolHits:   rpHits,
		RecvPoolMisses: rpMisses,
		MsgsSent:       qp.stats.msgsSent.Load(),
		MsgsReceived:   qp.stats.msgsRecv.Load(),
		BytesSent:      qp.stats.bytesSent.Load(),
		BytesReceived:  qp.stats.bytesRecv.Load(),
		RecvDropped:    qp.stats.recvDropped.Load(),
		PlacedSegments: qp.stats.placed.Load(),
		PlaceErrors:    qp.stats.placeErr.Load(),
		Reassembled:    qp.stats.reassembled.Load(),
		SweptPartials:  qp.stats.swept.Load(),
	}
}

// Close shuts the QP down, closing the underlying endpoint and flushing
// posted receives. It returns once every flush completion has been posted
// (on a handler CQ: has run). The receive goroutine flushes as it exits;
// the second flush catches a receive reposted by the sweeper after that,
// which a sweep racing Close can do.
func (qp *UDQP) Close() error {
	if qp.closed.Swap(true) {
		return nil
	}
	close(qp.done)
	err := qp.ch.Close()
	qp.wg.Wait()
	qp.flushRecvs()
	return err
}
