package iwarp

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/ddp"
	"repro/internal/memreg"
	"repro/internal/mpa"
	"repro/internal/nio"
	"repro/internal/rdmap"
	"repro/internal/telemetry"
	"repro/internal/transport"
)

// RCConfig parameterises a reliable-connection queue pair.
type RCConfig struct {
	// RecvDepth bounds the posted-receive queue (default 256).
	RecvDepth int
	// MPA configures stream framing; zero value selects the standard
	// markers-on, CRC-on profile. Used by ConnectRC/AcceptRC.
	MPA mpa.Config
	// BlockOnRNR makes an arriving send-type message wait for a posted
	// receive instead of terminating the connection — the behaviour of a
	// software iWARP over TCP, where not draining the stream simply stalls
	// the sender through the TCP window. Hardware RNICs terminate (the
	// default); socket-style layers set this.
	BlockOnRNR bool
}

// RCQP is a standard iWARP reliable-connection queue pair over an
// MPA-framed stream: the baseline the paper compares against. It supports
// Send/Recv, RDMA Write, and RDMA Read with the specification's semantics,
// including the strict error model: any protocol violation sends a
// Terminate, moves the QP to the error state, and flushes outstanding work
// requests (contrast UDQP).
type RCQP struct {
	pd     *memreg.PD
	tbl    *memreg.Table
	ch     *ddp.StreamChannel
	sendCQ *CQ
	recvCQ *CQ
	cfg    RCConfig

	rq  *recvQueue
	msn atomic.Uint32

	sendMu sync.Mutex

	readMu       sync.Mutex
	pendingReads []pendingRead

	// Current inbound untagged message state (stream delivery is in-order,
	// so at most one send-type message is in flight at a time).
	cur *inboundMsg

	stateMu sync.Mutex
	errored bool
	closed  bool
	stop    chan struct{} // closed when the QP first errors or closes
	wg      sync.WaitGroup

	// Counters are registry handles (DESIGN.md §4.6): per-QP exact reads
	// via Stats(), summed across QPs for the process scrape.
	stats struct {
		msgsSent, msgsRecv, bytesSent, bytesRecv *telemetry.Counter
		placed, placeErr                         *telemetry.Counter
	}
}

// pendingRead tracks one outstanding RDMA Read awaiting its response.
// Stream ordering guarantees responses complete in request order.
type pendingRead struct {
	id     uint64
	sink   memreg.STag
	length int
	placed int
}

// inboundMsg is the receive WR bound to the in-progress untagged message.
type inboundMsg struct {
	wr       RecvWR
	msn      uint32
	received int
	tooLong  bool
}

// ConnectRC establishes an RC QP as the MPA initiator on an existing
// stream; private data rides the MPA request.
func ConnectRC(s transport.Stream, pd *memreg.PD, tbl *memreg.Table, sendCQ, recvCQ *CQ, cfg RCConfig, private []byte) (*RCQP, []byte, error) {
	conn, peerPriv, err := mpa.Connect(s, cfg.MPA, private)
	if err != nil {
		return nil, peerPriv, err
	}
	qp, err := newRCQP(conn, pd, tbl, sendCQ, recvCQ, cfg)
	return qp, peerPriv, err
}

// AcceptRC establishes an RC QP as the MPA responder on an accepted stream.
func AcceptRC(s transport.Stream, pd *memreg.PD, tbl *memreg.Table, sendCQ, recvCQ *CQ, cfg RCConfig, private []byte) (*RCQP, []byte, error) {
	conn, peerPriv, err := mpa.Accept(s, cfg.MPA, private)
	if err != nil {
		return nil, peerPriv, err
	}
	qp, err := newRCQP(conn, pd, tbl, sendCQ, recvCQ, cfg)
	return qp, peerPriv, err
}

func newRCQP(conn *mpa.Conn, pd *memreg.PD, tbl *memreg.Table, sendCQ, recvCQ *CQ, cfg RCConfig) (*RCQP, error) {
	if pd == nil || tbl == nil || sendCQ == nil || recvCQ == nil {
		return nil, fmt.Errorf("%w: nil argument", ErrBadWR)
	}
	qp := &RCQP{
		pd:     pd,
		tbl:    tbl,
		ch:     ddp.NewStreamChannel(conn),
		sendCQ: sendCQ,
		recvCQ: recvCQ,
		cfg:    cfg,
		rq:     newRecvQueue(cfg.RecvDepth),
		stop:   make(chan struct{}),
	}
	qp.stats.msgsSent = telemetry.Default.Counter("diwarp_rc_msgs_sent_total")
	qp.stats.msgsRecv = telemetry.Default.Counter("diwarp_rc_msgs_recv_total")
	qp.stats.bytesSent = telemetry.Default.Counter("diwarp_rc_bytes_sent_total")
	qp.stats.bytesRecv = telemetry.Default.Counter("diwarp_rc_bytes_recv_total")
	qp.stats.placed = telemetry.Default.Counter("diwarp_rc_placed_segments_total")
	qp.stats.placeErr = telemetry.Default.Counter("diwarp_rc_place_errors_total")
	qp.wg.Add(1)
	go qp.recvLoop()
	return qp, nil
}

// PD returns the protection domain.
func (qp *RCQP) PD() *memreg.PD { return qp.pd }

// Errored reports whether the QP has entered the error state.
func (qp *RCQP) Errored() bool {
	qp.stateMu.Lock()
	defer qp.stateMu.Unlock()
	return qp.errored
}

func (qp *RCQP) usable() error {
	qp.stateMu.Lock()
	defer qp.stateMu.Unlock()
	if qp.closed || qp.errored {
		return ErrQPClosed
	}
	return nil
}

// PostRecv posts a receive buffer for one incoming send-type message.
func (qp *RCQP) PostRecv(id uint64, buf []byte) error {
	if err := qp.usable(); err != nil {
		return err
	}
	return qp.rq.post(RecvWR{ID: id, Buf: buf})
}

// PostSend transmits one untagged message. The WR completes when the
// message is handed to the reliable LLP.
func (qp *RCQP) PostSend(id uint64, payload nio.Vec) error {
	if err := qp.usable(); err != nil {
		return err
	}
	msn := qp.msn.Add(1)
	qp.sendMu.Lock()
	err := qp.ch.SendUntagged(ddp.QNSend, msn, rdmap.Ctrl(rdmap.OpSend), payload)
	qp.sendMu.Unlock()
	if err != nil {
		qp.enterError(err)
		return err
	}
	n := payload.Len()
	qp.stats.msgsSent.Inc()
	qp.stats.bytesSent.Add(int64(n))
	qp.sendCQ.post(CQE{WRID: id, Type: WTSend, ByteLen: n})
	return nil
}

// PostWrite performs a standard RDMA Write into the remote region named
// stag at offset to. Per the specification the target gets no completion;
// applications follow with a Send when they need target notification
// (the two-message pattern of the paper's Figure 3, top half).
func (qp *RCQP) PostWrite(id uint64, stag memreg.STag, to uint64, payload nio.Vec) error {
	if err := qp.usable(); err != nil {
		return err
	}
	msn := qp.msn.Add(1)
	qp.sendMu.Lock()
	err := qp.ch.SendTagged(stag, to, msn, rdmap.Ctrl(rdmap.OpWrite), payload)
	qp.sendMu.Unlock()
	if err != nil {
		qp.enterError(err)
		return err
	}
	n := payload.Len()
	qp.stats.msgsSent.Inc()
	qp.stats.bytesSent.Add(int64(n))
	qp.sendCQ.post(CQE{WRID: id, Type: WTWrite, ByteLen: n})
	return nil
}

// PostRead performs an RDMA Read: length bytes from the remote region
// (srcSTag, srcTO) into the local region (sinkSTag, sinkTO). The WR
// completes when the full response has been placed locally.
func (qp *RCQP) PostRead(id uint64, sinkSTag memreg.STag, sinkTO uint64, srcSTag memreg.STag, srcTO uint64, length int) error {
	if err := qp.usable(); err != nil {
		return err
	}
	// Validate the local sink up front so failures surface at post time.
	sink, err := qp.tbl.Lookup(sinkSTag)
	if err != nil {
		return fmt.Errorf("%w: sink: %v", ErrBadWR, err)
	}
	if sink.Access()&memreg.LocalWrite == 0 {
		return fmt.Errorf("%w: sink lacks LOCAL_WRITE", ErrBadWR)
	}
	req := rdmap.ReadReq{
		SinkSTag: uint32(sinkSTag),
		SinkTO:   sinkTO,
		Len:      uint32(length),
		SrcSTag:  uint32(srcSTag),
		SrcTO:    srcTO,
	}
	qp.readMu.Lock()
	qp.pendingReads = append(qp.pendingReads, pendingRead{id: id, sink: sinkSTag, length: length})
	qp.readMu.Unlock()

	msn := qp.msn.Add(1)
	qp.sendMu.Lock()
	err = qp.ch.SendUntagged(ddp.QNReadReq, msn, rdmap.Ctrl(rdmap.OpReadReq), nio.VecOf(req.Append(nil)))
	qp.sendMu.Unlock()
	if err != nil {
		qp.enterError(err)
		return err
	}
	return nil
}

// recvLoop processes inbound segments in stream order.
func (qp *RCQP) recvLoop() {
	defer qp.wg.Done()
	defer func() {
		// A half-received message's WR was already popped from the receive
		// queue; flush it explicitly so no WR vanishes without a CQE.
		if qp.cur != nil {
			qp.recvCQ.post(CQE{WRID: qp.cur.wr.ID, Type: WTRecv, Status: StatusFlushed, Err: ErrQPClosed})
			qp.cur = nil
		}
	}()
	for {
		seg, err := qp.ch.Recv()
		if err != nil {
			qp.enterError(err)
			return
		}
		op, perr := rdmap.ParseCtrl(seg.RDMAP)
		if perr != nil {
			qp.terminate(rdmap.LayerRDMAP, rdmap.TermInvalidOpcode, perr.Error())
			return
		}
		switch op {
		case rdmap.OpSend, rdmap.OpSendSE:
			if !qp.handleSendSeg(&seg) {
				return
			}
		case rdmap.OpWrite:
			if !qp.placeTagged(&seg, false) {
				return
			}
		case rdmap.OpReadResp:
			if !qp.placeTagged(&seg, true) {
				return
			}
		case rdmap.OpReadReq:
			if !qp.handleReadReq(&seg) {
				return
			}
		case rdmap.OpTerminate:
			if t, terr := rdmap.ParseTerminate(seg.Payload); terr == nil {
				qp.enterError(t)
			} else {
				qp.enterError(terr)
			}
			return
		default:
			qp.terminate(rdmap.LayerRDMAP, rdmap.TermInvalidOpcode, op.String())
			return
		}
	}
}

// handleSendSeg places one untagged segment into the bound receive WR,
// binding the head WR on the first segment of each message. Returns false
// when the QP must stop (fatal error).
func (qp *RCQP) handleSendSeg(seg *ddp.Segment) bool {
	if qp.cur == nil || qp.cur.msn != seg.MSN {
		wr, ok := qp.rq.pop()
		if !ok && qp.cfg.BlockOnRNR {
			// Software-iWARP behaviour: stop draining the stream until the
			// application posts a receive; TCP backpressure stalls the peer.
			if wr, ok = qp.rq.wait(qp.stop, nil); !ok {
				return false // closed or errored while waiting
			}
		}
		if !ok {
			// Receiver not ready: fatal on RC per the specification.
			qp.terminate(rdmap.LayerDDP, rdmap.TermCatastrophic, "no posted receive")
			return false
		}
		qp.cur = &inboundMsg{wr: wr, msn: seg.MSN}
		if int(seg.MsgLen) > len(wr.Buf) {
			qp.cur.tooLong = true
		}
	}
	m := qp.cur
	if !m.tooLong {
		copy(m.wr.Buf[seg.MO:], seg.Payload)
	}
	m.received += len(seg.Payload)
	if !seg.Last {
		return true
	}
	qp.cur = nil
	if m.tooLong {
		qp.recvCQ.post(CQE{
			WRID: m.wr.ID, Type: WTRecv, Status: StatusLocalLength,
			Err:     fmt.Errorf("iwarp: message %d bytes exceeds receive buffer %d", seg.MsgLen, len(m.wr.Buf)),
			ByteLen: m.received,
		})
		return true
	}
	qp.stats.msgsRecv.Inc()
	qp.stats.bytesRecv.Add(int64(m.received))
	qp.recvCQ.post(CQE{WRID: m.wr.ID, Type: WTRecv, ByteLen: m.received})
	return true
}

// placeTagged places an RDMA Write or Read Response segment. Read Response
// completion is matched against the pending-read FIFO.
func (qp *RCQP) placeTagged(seg *ddp.Segment, isReadResp bool) bool {
	region, err := qp.tbl.Lookup(seg.STag)
	if err != nil {
		qp.stats.placeErr.Inc()
		qp.terminate(rdmap.LayerDDP, rdmap.TermInvalidSTag, err.Error())
		return false
	}
	need := memreg.RemoteWrite
	if isReadResp {
		// A read sink needs only local write rights: the remote peer is
		// acting on our behalf.
		need = memreg.LocalWrite
	}
	if err := region.Place(qp.pd, need, seg.TO, seg.Payload); err != nil {
		qp.stats.placeErr.Inc()
		qp.terminate(rdmap.LayerDDP, rdmap.TermBaseBounds, err.Error())
		return false
	}
	qp.stats.placed.Inc()
	qp.stats.bytesRecv.Add(int64(len(seg.Payload)))
	if isReadResp && seg.Last {
		qp.readMu.Lock()
		var pr pendingRead
		ok := len(qp.pendingReads) > 0
		if ok {
			pr = qp.pendingReads[0]
			qp.pendingReads = qp.pendingReads[1:]
		}
		qp.readMu.Unlock()
		if ok {
			qp.sendCQ.post(CQE{WRID: pr.id, Type: WTRead, ByteLen: int(seg.MsgLen), STag: pr.sink})
		}
	}
	return true
}

// handleReadReq services a peer's RDMA Read: fetch from the local source
// region and stream a tagged Read Response back.
func (qp *RCQP) handleReadReq(seg *ddp.Segment) bool {
	req, err := rdmap.ParseReadReq(seg.Payload)
	if err != nil {
		qp.terminate(rdmap.LayerRDMAP, rdmap.TermCatastrophic, err.Error())
		return false
	}
	src, err := qp.tbl.Lookup(memreg.STag(req.SrcSTag))
	if err != nil {
		qp.terminate(rdmap.LayerRDMAP, rdmap.TermInvalidSTag, err.Error())
		return false
	}
	buf := make([]byte, req.Len)
	if err := src.Read(qp.pd, memreg.RemoteRead, req.SrcTO, buf); err != nil {
		qp.terminate(rdmap.LayerRDMAP, rdmap.TermAccessViolation, err.Error())
		return false
	}
	msn := qp.msn.Add(1)
	qp.sendMu.Lock()
	err = qp.ch.SendTagged(memreg.STag(req.SinkSTag), req.SinkTO, msn, rdmap.Ctrl(rdmap.OpReadResp), nio.VecOf(buf))
	qp.sendMu.Unlock()
	if err != nil {
		qp.enterError(err)
		return false
	}
	return true
}

// terminate sends a Terminate message to the peer (best effort) and moves
// the QP to the error state.
func (qp *RCQP) terminate(layer rdmap.TermLayer, code rdmap.TermCode, info string) {
	t := rdmap.Terminate{Layer: layer, Code: code, Info: info}
	msn := qp.msn.Add(1)
	qp.sendMu.Lock()
	_ = qp.ch.SendUntagged(ddp.QNTerminate, msn, rdmap.Ctrl(rdmap.OpTerminate), nio.VecOf(t.Append(nil)))
	qp.sendMu.Unlock()
	qp.enterError(t)
}

// enterError moves the QP to the error state once, flushing receives and
// pending reads with StatusFlushed.
func (qp *RCQP) enterError(cause error) {
	qp.stateMu.Lock()
	if qp.errored || qp.closed {
		qp.stateMu.Unlock()
		return
	}
	qp.errored = true
	close(qp.stop)
	qp.stateMu.Unlock()

	for _, wr := range qp.rq.drain() {
		qp.recvCQ.post(CQE{WRID: wr.ID, Type: WTRecv, Status: StatusFlushed, Err: cause})
	}
	qp.readMu.Lock()
	pending := qp.pendingReads
	qp.pendingReads = nil
	qp.readMu.Unlock()
	for _, pr := range pending {
		qp.sendCQ.post(CQE{WRID: pr.id, Type: WTRead, Status: StatusFlushed, Err: cause})
	}
	_ = qp.ch.Close()
}

// Stats returns a snapshot of the QP's datapath counters.
func (qp *RCQP) Stats() Stats {
	return Stats{
		MsgsSent:       qp.stats.msgsSent.Load(),
		MsgsReceived:   qp.stats.msgsRecv.Load(),
		BytesSent:      qp.stats.bytesSent.Load(),
		BytesReceived:  qp.stats.bytesRecv.Load(),
		PlacedSegments: qp.stats.placed.Load(),
		PlaceErrors:    qp.stats.placeErr.Load(),
	}
}

// Close tears the connection down and flushes outstanding work requests.
func (qp *RCQP) Close() error {
	qp.stateMu.Lock()
	if qp.closed {
		qp.stateMu.Unlock()
		return nil
	}
	qp.closed = true
	alreadyErrored := qp.errored
	if !alreadyErrored {
		close(qp.stop)
	}
	qp.stateMu.Unlock()

	err := qp.ch.Close()
	qp.wg.Wait()
	if !alreadyErrored {
		for _, wr := range qp.rq.drain() {
			qp.recvCQ.post(CQE{WRID: wr.ID, Type: WTRecv, Status: StatusFlushed, Err: ErrQPClosed})
		}
	}
	return err
}
