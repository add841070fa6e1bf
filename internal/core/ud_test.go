package iwarp

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"
	"time"

	"repro/internal/crcx"
	"repro/internal/ddp"
	"repro/internal/faultnet"
	"repro/internal/memreg"
	"repro/internal/nio"
	"repro/internal/rdmap"
	"repro/internal/rudp"
	"repro/internal/simnet"
	"repro/internal/transport"
)

// udNode bundles the per-node verbs resources a test needs.
type udNode struct {
	pd  *memreg.PD
	tbl *memreg.Table
	scq *CQ
	rcq *CQ
	qp  *UDQP
}

func newUDNode(t *testing.T, n *simnet.Network, name string, cfg UDConfig) *udNode {
	t.Helper()
	ep, err := n.OpenDatagram(name, 0)
	if err != nil {
		t.Fatal(err)
	}
	return newUDNodeOver(t, ep, cfg)
}

// newUDNodeOver opens a node's QP over ep — a simnet endpoint, or one
// wrapped in faultnet for the impairments simnet does not model.
func newUDNodeOver(t *testing.T, ep transport.Datagram, cfg UDConfig) *udNode {
	t.Helper()
	var err error
	nd := &udNode{
		pd:  memreg.NewPD(),
		tbl: memreg.NewTable(),
		scq: NewCQ(0),
		rcq: NewCQ(0),
	}
	nd.qp, err = OpenUD(ep, nd.pd, nd.tbl, nd.scq, nd.rcq, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { nd.qp.Close() })
	return nd
}

// holds counts the packets fe has held back for reordering.
func holds(fe *faultnet.Endpoint) int {
	n := 0
	for _, ev := range fe.Log().Events() {
		if ev.Op == faultnet.OpHold {
			n++
		}
	}
	return n
}

func TestUDSendRecvRoundTrip(t *testing.T) {
	net := simnet.New(simnet.Config{})
	a := newUDNode(t, net, "a", UDConfig{})
	b := newUDNode(t, net, "b", UDConfig{})

	buf := make([]byte, 256)
	if err := b.qp.PostRecv(7, buf); err != nil {
		t.Fatal(err)
	}
	msg := []byte("datagram send/recv")
	if err := a.qp.PostSend(1, b.qp.LocalAddr(), nio.VecOf(msg)); err != nil {
		t.Fatal(err)
	}
	// Source-side completion: fire and forget.
	se, err := a.scq.Poll(time.Second)
	if err != nil || se.Type != WTSend || !se.Ok() || se.WRID != 1 {
		t.Fatalf("send CQE %+v err %v", se, err)
	}
	// Target-side completion reports the source address.
	re, err := b.rcq.Poll(time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if re.Type != WTRecv || !re.Ok() || re.WRID != 7 {
		t.Fatalf("recv CQE %+v", re)
	}
	if re.Src != a.qp.LocalAddr() {
		t.Fatalf("Src = %v, want %v", re.Src, a.qp.LocalAddr())
	}
	if !bytes.Equal(buf[:re.ByteLen], msg) {
		t.Fatalf("payload %q", buf[:re.ByteLen])
	}
}

func TestUDMultiSegmentMessage(t *testing.T) {
	net := simnet.New(simnet.Config{})
	a := newUDNode(t, net, "a", UDConfig{})
	b := newUDNode(t, net, "b", UDConfig{})

	msg := make([]byte, 200<<10) // 4 datagram segments
	rand.New(rand.NewSource(1)).Read(msg)
	buf := make([]byte, len(msg))
	if err := b.qp.PostRecv(1, buf); err != nil {
		t.Fatal(err)
	}
	if err := a.qp.PostSend(2, b.qp.LocalAddr(), nio.VecOf(msg)); err != nil {
		t.Fatal(err)
	}
	re, err := b.rcq.Poll(2 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if re.ByteLen != len(msg) || !bytes.Equal(buf, msg) {
		t.Fatalf("ByteLen %d", re.ByteLen)
	}
	if st := b.qp.Stats(); st.Reassembled != 1 {
		t.Fatalf("Reassembled = %d", st.Reassembled)
	}
}

func TestUDNoPostedRecvDropsMessage(t *testing.T) {
	net := simnet.New(simnet.Config{})
	a := newUDNode(t, net, "a", UDConfig{})
	b := newUDNode(t, net, "b", UDConfig{})

	if err := a.qp.PostSend(1, b.qp.LocalAddr(), nio.VecOf([]byte("nobody home"))); err != nil {
		t.Fatal(err)
	}
	if _, err := b.rcq.Poll(100 * time.Millisecond); !errors.Is(err, ErrCQEmpty) {
		t.Fatalf("poll err = %v", err)
	}
	deadline := time.Now().Add(time.Second)
	for b.qp.Stats().RecvDropped == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if st := b.qp.Stats(); st.RecvDropped != 1 {
		t.Fatalf("RecvDropped = %d", st.RecvDropped)
	}
}

func TestUDRecvBufferTooSmall(t *testing.T) {
	net := simnet.New(simnet.Config{})
	a := newUDNode(t, net, "a", UDConfig{})
	b := newUDNode(t, net, "b", UDConfig{})

	if err := b.qp.PostRecv(9, make([]byte, 4)); err != nil {
		t.Fatal(err)
	}
	if err := a.qp.PostSend(1, b.qp.LocalAddr(), nio.VecOf([]byte("way too long"))); err != nil {
		t.Fatal(err)
	}
	re, err := b.rcq.Poll(time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if re.Status != StatusLocalLength || re.WRID != 9 {
		t.Fatalf("CQE %+v", re)
	}
	// QP remains usable afterwards (UD error model).
	buf := make([]byte, 64)
	if err := b.qp.PostRecv(10, buf); err != nil {
		t.Fatal(err)
	}
	if err := a.qp.PostSend(2, b.qp.LocalAddr(), nio.VecOf([]byte("ok"))); err != nil {
		t.Fatal(err)
	}
	re, err = b.rcq.Poll(time.Second)
	if err != nil || !re.Ok() {
		t.Fatalf("follow-up CQE %+v err %v", re, err)
	}
}

func TestUDWriteRecordSingleSegment(t *testing.T) {
	net := simnet.New(simnet.Config{})
	a := newUDNode(t, net, "a", UDConfig{})
	b := newUDNode(t, net, "b", UDConfig{})

	region, err := b.tbl.Register(b.pd, make([]byte, 4096), memreg.RemoteWrite)
	if err != nil {
		t.Fatal(err)
	}
	payload := []byte("one-sided, no receive posted")
	if err := a.qp.PostWriteRecord(3, b.qp.LocalAddr(), region.STag(), 100, nio.VecOf(payload)); err != nil {
		t.Fatal(err)
	}
	se, err := a.scq.Poll(time.Second)
	if err != nil || se.Type != WTWriteRecord || !se.Ok() {
		t.Fatalf("source CQE %+v err %v", se, err)
	}
	re, err := b.rcq.Poll(time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if re.Type != WTWriteRecordRecv || !re.Ok() {
		t.Fatalf("target CQE %+v", re)
	}
	if re.STag != region.STag() || re.TO != 100 || re.MsgLen != len(payload) || re.ByteLen != len(payload) {
		t.Fatalf("target CQE fields %+v", re)
	}
	if !re.Validity.Contains(100, uint64(len(payload))) {
		t.Fatalf("validity %v", re.Validity.String())
	}
	if !bytes.Equal(region.Bytes()[100:100+len(payload)], payload) {
		t.Fatal("data not placed")
	}
	if re.Src != a.qp.LocalAddr() {
		t.Fatalf("Src = %v", re.Src)
	}
}

func TestUDWriteRecordMultiSegmentReordered(t *testing.T) {
	net := simnet.New(simnet.Config{})
	ep, err := net.OpenDatagram("a", 0)
	if err != nil {
		t.Fatal(err)
	}
	fa := faultnet.Wrap(ep, faultnet.Config{ReorderRate: 0.5, Seed: 13})
	a := newUDNodeOver(t, fa, UDConfig{})
	b := newUDNode(t, net, "b", UDConfig{})

	region, err := b.tbl.Register(b.pd, make([]byte, 300<<10), memreg.RemoteWrite)
	if err != nil {
		t.Fatal(err)
	}
	payload := make([]byte, 256<<10) // 4+ segments
	rand.New(rand.NewSource(5)).Read(payload)
	if err := a.qp.PostWriteRecord(1, b.qp.LocalAddr(), region.STag(), 0, nio.VecOf(payload)); err != nil {
		t.Fatal(err)
	}
	if holds(fa) == 0 {
		t.Fatal("no segment was held back: nothing was reordered")
	}
	fa.ReleaseHeld() // the tail segments still held go out last, out of order
	re, err := b.rcq.Poll(2 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if re.Type != WTWriteRecordRecv || re.TO != 0 || re.MsgLen != len(payload) {
		t.Fatalf("CQE %+v", re)
	}
	if !re.Validity.Complete(uint64(len(payload))) {
		t.Fatalf("validity incomplete: %s", re.Validity.String())
	}
	if !bytes.Equal(region.Bytes()[:len(payload)], payload) {
		t.Fatal("placed data corrupt")
	}
}

func TestUDWriteRecordPartialUnderLoss(t *testing.T) {
	// Drop exactly the second segment of a 3-segment message by toggling
	// the loss rate around it: deterministic partial delivery.
	net := simnet.New(simnet.Config{})
	a := newUDNode(t, net, "a", UDConfig{})
	b := newUDNode(t, net, "b", UDConfig{PerChunkCompletions: true})

	region, err := b.tbl.Register(b.pd, make([]byte, 200<<10), memreg.RemoteWrite)
	if err != nil {
		t.Fatal(err)
	}
	segSize := transport.MaxDatagramSize - 26 // TaggedHdrLen+crc
	payload := make([]byte, 3*segSize)
	for i := range payload {
		payload[i] = byte(i)
	}
	// Send the three segments by hand through three QPs? Simpler: use the
	// QP but flip loss only for the middle segment via a custom pattern:
	// send three separate single-segment messages, dropping the middle.
	third := payload[:segSize]
	if err := a.qp.PostWriteRecord(1, b.qp.LocalAddr(), region.STag(), 0, nio.VecOf(third)); err != nil {
		t.Fatal(err)
	}
	net.SetLossRate(1.0)
	if err := a.qp.PostWriteRecord(2, b.qp.LocalAddr(), region.STag(), uint64(segSize), nio.VecOf(third)); err != nil {
		t.Fatal(err)
	}
	net.SetLossRate(0)
	if err := a.qp.PostWriteRecord(3, b.qp.LocalAddr(), region.STag(), uint64(2*segSize), nio.VecOf(third)); err != nil {
		t.Fatal(err)
	}
	var got []CQE
	for len(got) < 2 {
		e, err := b.rcq.Poll(2 * time.Second)
		if err != nil {
			t.Fatalf("poll after %d completions: %v", len(got), err)
		}
		got = append(got, e)
	}
	v := region.Validity()
	if v.Contains(uint64(segSize), uint64(segSize)) {
		t.Fatal("middle chunk should be missing")
	}
	if !v.Contains(0, uint64(segSize)) || !v.Contains(uint64(2*segSize), uint64(segSize)) {
		t.Fatalf("outer chunks missing: %s", v.String())
	}
	holes := v.Holes(uint64(3 * segSize))
	if len(holes) != 1 || holes[0].Off != uint64(segSize) {
		t.Fatalf("holes = %v", holes)
	}
}

func TestUDWriteRecordLostLastSegmentSwept(t *testing.T) {
	net := simnet.New(simnet.Config{})
	a := newUDNode(t, net, "a", UDConfig{})
	b := newUDNode(t, net, "b", UDConfig{ReassemblyTimeout: 100 * time.Millisecond})

	region, err := b.tbl.Register(b.pd, make([]byte, 200<<10), memreg.RemoteWrite)
	if err != nil {
		t.Fatal(err)
	}
	// A 2-segment message; the last datagram is dropped mid-send by a
	// loss-rate flip triggered from a shim endpoint is overkill — instead
	// send the first segment only, as a "message" bigger than one segment
	// whose tail never arrives, by writing the raw segment through a bare
	// channel. Easiest faithful approach: 100% loss AFTER the first
	// segment cannot be timed reliably, so craft the orphan directly.
	payload := make([]byte, 100<<10)
	if err := a.qp.PostWriteRecord(1, b.qp.LocalAddr(), region.STag(), 0, nio.VecOf(payload)); err != nil {
		t.Fatal(err)
	}
	// Both segments arrive: CQE appears. Drain it first.
	if _, err := b.rcq.Poll(time.Second); err != nil {
		t.Fatal(err)
	}
	if n := pendingRecords(b.qp); n != 0 {
		t.Fatalf("records = %d before orphan", n)
	}
	// Now inject an orphan: a non-Last tagged segment whose Last never
	// arrives (as if the final datagram were lost). Crafted through a raw
	// DDP channel so only the first half of the "message" exists.
	injectOrphanSegment(t, net, b.qp.LocalAddr(), uint32(region.STag()))
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) && pendingRecords(b.qp) == 0 {
		time.Sleep(time.Millisecond)
	}
	if n := pendingRecords(b.qp); n != 1 {
		t.Fatalf("records = %d after orphan, want 1", n)
	}
	// The sweeper (period = ReassemblyTimeout/2) reclaims it; no CQE.
	deadline = time.Now().Add(3 * time.Second)
	for time.Now().Before(deadline) && pendingRecords(b.qp) != 0 {
		time.Sleep(5 * time.Millisecond)
	}
	if n := pendingRecords(b.qp); n != 0 {
		t.Fatalf("records = %d after sweep window", n)
	}
	if _, err := b.rcq.Poll(50 * time.Millisecond); !errors.Is(err, ErrCQEmpty) {
		t.Fatal("orphaned message must not complete")
	}
	if b.qp.Stats().SweptPartials == 0 {
		t.Fatal("sweep not counted")
	}
}

// injectOrphanSegment sends a single non-Last Write-Record segment claiming
// to be the first half of a two-segment message.
func injectOrphanSegment(t *testing.T, net *simnet.Network, to transport.Addr, stag uint32) {
	t.Helper()
	ep, err := net.OpenDatagram("injector", 0)
	if err != nil {
		t.Fatal(err)
	}
	defer ep.Close()
	ch := ddp.NewDatagramChannel(ep)
	seg := &ddp.Segment{
		Tagged:  true,
		Last:    false,
		RDMAP:   rdmap.Ctrl(rdmap.OpWriteRecord),
		STag:    memreg.STag(stag),
		TO:      0,
		MSN:     999,
		MsgLen:  64,
		Payload: make([]byte, 32),
	}
	pkt := ddp.AppendHeader(nil, seg)
	pkt = append(pkt, seg.Payload...)
	pkt = nio.PutU32(pkt, crcx.Checksum(pkt))
	if err := ep.SendTo(pkt, to); err != nil {
		t.Fatal(err)
	}
	_ = ch
}

func pendingRecords(qp *UDQP) int {
	qp.mu.Lock()
	defer qp.mu.Unlock()
	return len(qp.records)
}

func TestUDWriteRecordInvalidSTagAdvisory(t *testing.T) {
	net := simnet.New(simnet.Config{})
	a := newUDNode(t, net, "a", UDConfig{})
	b := newUDNode(t, net, "b", UDConfig{})

	if err := a.qp.PostWriteRecord(1, b.qp.LocalAddr(), memreg.STag(0xBAD00), 0, nio.VecOf([]byte("x"))); err != nil {
		t.Fatal(err)
	}
	e, err := b.rcq.Poll(time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if e.Type != WTError || e.Status != StatusRemoteInvalid {
		t.Fatalf("CQE %+v", e)
	}
	// The QP is still alive: a valid operation succeeds (paper §IV.B.2).
	region, _ := b.tbl.Register(b.pd, make([]byte, 64), memreg.RemoteWrite)
	if err := a.qp.PostWriteRecord(2, b.qp.LocalAddr(), region.STag(), 0, nio.VecOf([]byte("ok"))); err != nil {
		t.Fatal(err)
	}
	e, err = b.rcq.Poll(time.Second)
	if err != nil || e.Type != WTWriteRecordRecv {
		t.Fatalf("CQE %+v err %v", e, err)
	}
}

func TestUDWriteRecordAccessViolation(t *testing.T) {
	net := simnet.New(simnet.Config{})
	a := newUDNode(t, net, "a", UDConfig{})
	b := newUDNode(t, net, "b", UDConfig{})

	// Region without RemoteWrite.
	region, err := b.tbl.Register(b.pd, make([]byte, 64), memreg.LocalRead)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.qp.PostWriteRecord(1, b.qp.LocalAddr(), region.STag(), 0, nio.VecOf([]byte("denied"))); err != nil {
		t.Fatal(err)
	}
	e, err := b.rcq.Poll(time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if e.Type != WTError || e.Status != StatusRemoteAccess {
		t.Fatalf("CQE %+v", e)
	}
	if b.qp.Stats().PlaceErrors != 1 {
		t.Fatalf("PlaceErrors = %d", b.qp.Stats().PlaceErrors)
	}
}

func TestUDWriteRecordBoundsViolation(t *testing.T) {
	net := simnet.New(simnet.Config{})
	a := newUDNode(t, net, "a", UDConfig{})
	b := newUDNode(t, net, "b", UDConfig{})

	region, err := b.tbl.Register(b.pd, make([]byte, 16), memreg.RemoteWrite)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.qp.PostWriteRecord(1, b.qp.LocalAddr(), region.STag(), 10, nio.VecOf([]byte("overrun!"))); err != nil {
		t.Fatal(err)
	}
	e, err := b.rcq.Poll(time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if e.Type != WTError || e.Status != StatusRemoteAccess {
		t.Fatalf("CQE %+v", e)
	}
}

func TestUDPerChunkCompletions(t *testing.T) {
	net := simnet.New(simnet.Config{})
	a := newUDNode(t, net, "a", UDConfig{})
	b := newUDNode(t, net, "b", UDConfig{PerChunkCompletions: true})

	region, err := b.tbl.Register(b.pd, make([]byte, 200<<10), memreg.RemoteWrite)
	if err != nil {
		t.Fatal(err)
	}
	payload := make([]byte, 150<<10) // 3 segments
	if err := a.qp.PostWriteRecord(1, b.qp.LocalAddr(), region.STag(), 0, nio.VecOf(payload)); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		e, err := b.rcq.Poll(time.Second)
		if err != nil {
			t.Fatalf("chunk %d: %v", i, err)
		}
		if e.Type != WTWriteRecordRecv || e.Validity.Covered() != uint64(e.ByteLen) {
			t.Fatalf("chunk CQE %+v", e)
		}
	}
	if _, err := b.rcq.Poll(50 * time.Millisecond); !errors.Is(err, ErrCQEmpty) {
		t.Fatalf("extra CQE: %v", err)
	}
}

func TestUDManyPeersOneQP(t *testing.T) {
	net := simnet.New(simnet.Config{})
	srv := newUDNode(t, net, "srv", UDConfig{})
	const peers = 8
	clients := make([]*udNode, peers)
	for i := range clients {
		clients[i] = newUDNode(t, net, "cli", UDConfig{})
	}
	for i := 0; i < peers; i++ {
		if err := srv.qp.PostRecv(uint64(i), make([]byte, 64)); err != nil {
			t.Fatal(err)
		}
	}
	for i, c := range clients {
		if err := c.qp.PostSend(uint64(i), srv.qp.LocalAddr(), nio.VecOf([]byte{byte(i)})); err != nil {
			t.Fatal(err)
		}
	}
	seen := make(map[transport.Addr]bool)
	for i := 0; i < peers; i++ {
		e, err := srv.rcq.Poll(time.Second)
		if err != nil {
			t.Fatal(err)
		}
		seen[e.Src] = true
	}
	if len(seen) != peers {
		t.Fatalf("distinct sources = %d, want %d", len(seen), peers)
	}
}

func TestUDOverReliableDatagram(t *testing.T) {
	// The RD service: a UDQP bound to an rudp endpoint delivers everything
	// even under heavy loss.
	net := simnet.New(simnet.Config{LossRate: 0.25, Seed: 17})
	mk := func(name string) (*udNode, *rudp.Endpoint) {
		ep, err := net.OpenDatagram(name, 0)
		if err != nil {
			t.Fatal(err)
		}
		rep := rudp.New(ep)
		nd := &udNode{pd: memreg.NewPD(), tbl: memreg.NewTable(), scq: NewCQ(0), rcq: NewCQ(0)}
		nd.qp, err = OpenUD(rep, nd.pd, nd.tbl, nd.scq, nd.rcq, UDConfig{})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { nd.qp.Close() })
		return nd, rep
	}
	a, _ := mk("a")
	b, _ := mk("b")
	const count = 40
	for i := 0; i < count; i++ {
		if err := b.qp.PostRecv(uint64(i), make([]byte, 4096)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < count; i++ {
		if err := a.qp.PostSend(uint64(i), b.qp.LocalAddr(), nio.VecOf(bytes.Repeat([]byte{byte(i)}, 1000))); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < count; i++ {
		e, err := b.rcq.Poll(10 * time.Second)
		if err != nil {
			t.Fatalf("recv %d: %v", i, err)
		}
		if !e.Ok() || e.ByteLen != 1000 {
			t.Fatalf("CQE %+v", e)
		}
	}
}

func TestUDClosedQPRejectsPosts(t *testing.T) {
	net := simnet.New(simnet.Config{})
	a := newUDNode(t, net, "a", UDConfig{})
	a.qp.Close()
	if err := a.qp.PostSend(1, transport.Addr{}, nil); !errors.Is(err, ErrQPClosed) {
		t.Fatalf("PostSend err = %v", err)
	}
	if err := a.qp.PostRecv(1, nil); !errors.Is(err, ErrQPClosed) {
		t.Fatalf("PostRecv err = %v", err)
	}
	if err := a.qp.PostWriteRecord(1, transport.Addr{}, 0, 0, nil); !errors.Is(err, ErrQPClosed) {
		t.Fatalf("PostWriteRecord err = %v", err)
	}
}

func TestUDCloseFlushesRecvs(t *testing.T) {
	net := simnet.New(simnet.Config{})
	a := newUDNode(t, net, "a", UDConfig{})
	if err := a.qp.PostRecv(42, make([]byte, 16)); err != nil {
		t.Fatal(err)
	}
	a.qp.Close()
	e, err := a.rcq.Poll(time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if e.WRID != 42 || e.Status != StatusFlushed {
		t.Fatalf("CQE %+v", e)
	}
}

func TestCQSemantics(t *testing.T) {
	cq := NewCQ(2)
	if _, err := cq.Poll(0); !errors.Is(err, ErrCQEmpty) {
		t.Fatal("empty non-blocking poll should fail")
	}
	cq.post(CQE{WRID: 1})
	cq.post(CQE{WRID: 2})
	cq.post(CQE{WRID: 3}) // overrun
	if cq.Overruns() != 1 {
		t.Fatalf("Overruns = %d", cq.Overruns())
	}
	if cq.Len() != 2 {
		t.Fatalf("Len = %d", cq.Len())
	}
	for _, want := range []uint64{1, 2} {
		if e, err := cq.Poll(time.Second); err != nil || e.WRID != want {
			t.Fatalf("Poll = %+v, %v; want WR %d", e, err, want)
		}
	}
	start := time.Now()
	if _, err := cq.Poll(30 * time.Millisecond); !errors.Is(err, ErrCQEmpty) {
		t.Fatal("timed poll should time out")
	}
	if time.Since(start) < 25*time.Millisecond {
		t.Fatal("poll returned early")
	}
	cq.Close()
	cq.post(CQE{WRID: 4}) // silently dropped
	if cq.Len() != 0 {
		t.Fatal("post after close enqueued")
	}
}

// TestPollTimeoutNeverHidesCompletion: a poll whose deadline has already
// passed when a completion is queued must return the completion. select
// picks at random among ready cases, so without the last look after the
// timer fires about half of these iterations report ErrCQEmpty — which the
// paper's polling discipline reads as a lost datagram.
func TestPollTimeoutNeverHidesCompletion(t *testing.T) {
	cq := NewCQ(4)
	fired := make(chan time.Time)
	close(fired) // a timer that expired before the wait began
	for i := 0; i < 1000; i++ {
		cq.post(CQE{WRID: uint64(i)})
		e, err := cq.await(fired)
		if err != nil || e.WRID != uint64(i) {
			t.Fatalf("iteration %d: await = %+v, %v with a completion queued", i, e, err)
		}
	}
	if _, err := cq.await(fired); !errors.Is(err, ErrCQEmpty) {
		t.Fatalf("empty queue, expired timer: %v; want ErrCQEmpty", err)
	}
}

func TestUDRecvQueueDepthLimit(t *testing.T) {
	net := simnet.New(simnet.Config{})
	a := newUDNode(t, net, "a", UDConfig{RecvDepth: 2})
	if err := a.qp.PostRecv(1, make([]byte, 1)); err != nil {
		t.Fatal(err)
	}
	if err := a.qp.PostRecv(2, make([]byte, 1)); err != nil {
		t.Fatal(err)
	}
	if err := a.qp.PostRecv(3, make([]byte, 1)); !errors.Is(err, ErrRecvQueueFull) {
		t.Fatalf("err = %v", err)
	}
}
