package iwarp

import (
	"fmt"
	"time"

	"repro/internal/ddp"
	"repro/internal/memreg"
	"repro/internal/nio"
	"repro/internal/rdmap"
	"repro/internal/transport"
)

// UD RDMA Read — the paper's stated future work ("we would also like to
// ... propose UD-based RDMA Read for use in HPC applications", §VII) —
// implemented here as the natural dual of RDMA Write-Record:
//
//   - the requester sends an RDMA Read Request on untagged queue 1 carrying
//     (sink STag, sink TO, length, source STag, source TO) plus the
//     requester's MSN as a correlation cookie;
//   - the responder validates the source region (REMOTE_READ rights) and
//     streams the data back as tagged Read Response segments, which the
//     requester's placement engine handles exactly like Write-Record
//     segments: place, record, complete on the Last segment;
//   - the completion carries a validity map, so — like Write-Record — a
//     read over a lossy network can complete *partially*, with the holes
//     visible to the application;
//   - if the request, the Last response segment, or everything is lost, no
//     completion arrives: the outstanding read is reclaimed by the sweeper
//     with StatusTimedOut, preserving the paper's rule that a datagram QP
//     never wedges on loss.
//
// An outstanding read is filed in UDQP.reads under the MSN its request
// carried. That MSN is ours, so it shares no key space with the peer's
// Write-Records, and a response counts only if it comes from the peer the
// request went to. The read tracks its own placement, guarded by UDQP.mu.
type udRead struct {
	id   uint64
	peer transport.Addr
	sink memreg.STag
	born time.Time

	validity memreg.ValidityMap
}

// PostRead issues a UD RDMA Read: length bytes from the remote region
// (srcSTag, srcTO) at dest into the local region (sinkSTag, sinkTO). The
// WR completes with WTRead when the response's final segment arrives —
// possibly partially under loss (inspect the CQE's Validity) — or with
// StatusTimedOut if the exchange is lost.
func (qp *UDQP) PostRead(id uint64, dest transport.Addr, sinkSTag memreg.STag, sinkTO uint64, srcSTag memreg.STag, srcTO uint64, length int) error {
	if qp.closed.Load() {
		return ErrQPClosed
	}
	if length <= 0 || length > maxUDMessage {
		return fmt.Errorf("%w: read of %d bytes", ErrBadWR, length)
	}
	// Validate the local sink up front: it must exist and be locally
	// writable, since the responder's segments will be placed into it.
	sink, err := qp.tbl.Lookup(sinkSTag)
	if err != nil {
		return fmt.Errorf("%w: sink: %v", ErrBadWR, err)
	}
	if sink.Access()&memreg.LocalWrite == 0 {
		return fmt.Errorf("%w: sink lacks LOCAL_WRITE", ErrBadWR)
	}
	msn := qp.msn.Add(1)
	req := rdmap.ReadReq{
		SinkSTag: uint32(sinkSTag),
		SinkTO:   sinkTO,
		Len:      uint32(length),
		SrcSTag:  uint32(srcSTag),
		SrcTO:    srcTO,
	}
	rd := &udRead{id: id, peer: dest, sink: sinkSTag, born: time.Now()}
	qp.mu.Lock()
	qp.reads[msn] = rd
	qp.mu.Unlock()
	err = qp.ch.SendUntagged(dest, ddp.QNReadReq, msn, rdmap.Ctrl(rdmap.OpReadReq), nio.VecOf(req.Append(nil)))
	if err != nil {
		qp.mu.Lock()
		delete(qp.reads, msn)
		qp.mu.Unlock()
		return err
	}
	return nil
}

// handleReadReq services a peer's UD RDMA Read at the responder: fetch the
// requested bytes from the local source region and stream them back as
// tagged Read Response segments reusing the requester's MSN. Failures are
// reported with a Terminate message, which the requester surfaces as an
// advisory completion (the QP stays up, per the UD error model).
func (qp *UDQP) handleReadReq(from transport.Addr, seg *ddp.Segment) {
	req, err := rdmap.ParseReadReq(seg.Payload)
	if err != nil {
		qp.advisory(from, err)
		return
	}
	src, err := qp.tbl.Lookup(memreg.STag(req.SrcSTag))
	if err != nil {
		qp.stats.placeErr.Add(1)
		qp.sendTerminate(from, rdmap.LayerRDMAP, rdmap.TermInvalidSTag, err.Error())
		return
	}
	buf := make([]byte, req.Len)
	if err := src.Read(qp.pd, memreg.RemoteRead, req.SrcTO, buf); err != nil {
		qp.stats.placeErr.Add(1)
		qp.sendTerminate(from, rdmap.LayerRDMAP, rdmap.TermAccessViolation, err.Error())
		return
	}
	err = qp.ch.SendTagged(from, memreg.STag(req.SinkSTag), req.SinkTO, seg.MSN, rdmap.Ctrl(rdmap.OpReadResp), nio.VecOf(buf))
	if err != nil {
		qp.advisory(from, err)
		return
	}
	qp.stats.bytesSent.Add(int64(len(buf)))
}

// handleReadResp places one tagged Read Response segment at the requester.
// The placement path mirrors Write-Record; completion fires on the Last
// segment against the matching outstanding read.
func (qp *UDQP) handleReadResp(from transport.Addr, seg *ddp.Segment) {
	qp.mu.Lock()
	rd := qp.reads[seg.MSN]
	qp.mu.Unlock()
	if rd == nil || rd.peer != from {
		// Stale or duplicate response (e.g. its read already timed out), or
		// one from a peer this read was never sent to.
		return
	}
	region, err := qp.tbl.Lookup(seg.STag)
	if err != nil || seg.STag != rd.sink {
		qp.stats.placeErr.Add(1)
		qp.failRead(seg.MSN, rd, StatusRemoteInvalid, fmt.Errorf("iwarp: read response names unknown sink %#x", uint32(seg.STag)))
		return
	}
	// Read responses target OUR OWN sink on our own behalf: LocalWrite
	// suffices, matching the RC semantics.
	if err := region.Place(qp.pd, memreg.LocalWrite, seg.TO, seg.Payload); err != nil {
		qp.stats.placeErr.Add(1)
		qp.failRead(seg.MSN, rd, StatusLocalAccess, err)
		return
	}
	qp.stats.placed.Add(1)
	qp.stats.bytesRecv.Add(int64(len(seg.Payload)))

	qp.mu.Lock()
	if qp.reads[seg.MSN] != rd {
		qp.mu.Unlock()
		return // swept while this segment was being placed
	}
	rd.validity.Add(seg.TO, uint64(len(seg.Payload)))
	if !seg.Last {
		qp.mu.Unlock()
		return
	}
	delete(qp.reads, seg.MSN)
	qp.mu.Unlock()
	qp.stats.msgsRecv.Add(1)
	base := seg.TO + uint64(len(seg.Payload)) - uint64(seg.MsgLen)
	qp.sendCQ.post(CQE{
		WRID: rd.id, Type: WTRead, ByteLen: int(rd.validity.Covered()), Src: from,
		STag: rd.sink, TO: base, MsgLen: int(seg.MsgLen), Validity: rd.validity,
	})
}

// failRead completes an outstanding read unsuccessfully, unless a racing
// sweep or response already took it.
func (qp *UDQP) failRead(msn uint32, rd *udRead, status Status, err error) {
	qp.mu.Lock()
	owned := qp.reads[msn] == rd
	if owned {
		delete(qp.reads, msn)
	}
	qp.mu.Unlock()
	if owned {
		qp.sendCQ.post(CQE{WRID: rd.id, Type: WTRead, Status: status, Err: err, Src: rd.peer, STag: rd.sink})
	}
}

// sendTerminate reports an error back to a peer without touching QP state.
func (qp *UDQP) sendTerminate(to transport.Addr, layer rdmap.TermLayer, code rdmap.TermCode, info string) {
	t := rdmap.Terminate{Layer: layer, Code: code, Info: info}
	msn := qp.msn.Add(1)
	_ = qp.ch.SendUntagged(to, ddp.QNTerminate, msn, rdmap.Ctrl(rdmap.OpTerminate), nio.VecOf(t.Append(nil)))
}
