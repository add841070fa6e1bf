package iwarp

import (
	"bytes"
	"errors"
	"math/rand"
	"sync"
	"testing"
	"time"

	"repro/internal/ddp"
	"repro/internal/faultnet"
	"repro/internal/memreg"
	"repro/internal/rdmap"
	"repro/internal/simnet"
	"repro/internal/telemetry"
	"repro/internal/transport"
)

func TestUDReadSmall(t *testing.T) {
	net := simnet.New(simnet.Config{})
	a := newUDNode(t, net, "a", UDConfig{})
	b := newUDNode(t, net, "b", UDConfig{})

	src, err := b.tbl.Register(b.pd, []byte("remote readable data, twenty-nine"), memreg.RemoteRead)
	if err != nil {
		t.Fatal(err)
	}
	sink, err := a.tbl.Register(a.pd, make([]byte, 64), memreg.LocalWrite)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.qp.PostRead(9, b.qp.LocalAddr(), sink.STag(), 4, src.STag(), 7, 12); err != nil {
		t.Fatal(err)
	}
	e, err := a.scq.Poll(time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if e.Type != WTRead || !e.Ok() || e.WRID != 9 {
		t.Fatalf("CQE %+v", e)
	}
	if e.ByteLen != 12 || e.MsgLen != 12 || e.TO != 4 {
		t.Fatalf("CQE fields %+v", e)
	}
	want := []byte("remote readable data, twenty-nine")[7 : 7+12]
	if !bytes.Equal(sink.Bytes()[4:16], want) {
		t.Fatalf("sink = %q, want %q", sink.Bytes()[4:16], want)
	}
	if !e.Validity.Contains(4, 12) {
		t.Fatalf("validity %s", e.Validity.String())
	}
	if e.Src != b.qp.LocalAddr() {
		t.Fatalf("Src = %v", e.Src)
	}
}

func TestUDReadLargeMultiSegment(t *testing.T) {
	net := simnet.New(simnet.Config{})
	a := newUDNode(t, net, "a", UDConfig{})
	ep, err := net.OpenDatagram("b", 0)
	if err != nil {
		t.Fatal(err)
	}
	fb := faultnet.Wrap(ep, faultnet.Config{ReorderRate: 0.3, Seed: 8}) // the responder's segments
	b := newUDNodeOver(t, fb, UDConfig{})

	data := make([]byte, 300<<10) // several response segments
	rand.New(rand.NewSource(6)).Read(data)
	src, err := b.tbl.Register(b.pd, data, memreg.RemoteRead)
	if err != nil {
		t.Fatal(err)
	}
	sink, err := a.tbl.Register(a.pd, make([]byte, len(data)), memreg.LocalWrite)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.qp.PostRead(1, b.qp.LocalAddr(), sink.STag(), 0, src.STag(), 0, len(data)); err != nil {
		t.Fatal(err)
	}
	// The response burst ends with segments still held back for reordering,
	// and nothing later from b would release them: flush them while waiting.
	deadline := time.Now().Add(2 * time.Second)
	e, err := a.scq.Poll(10 * time.Millisecond)
	for err != nil && time.Now().Before(deadline) {
		fb.ReleaseHeld()
		e, err = a.scq.Poll(10 * time.Millisecond)
	}
	if err != nil {
		t.Fatal(err)
	}
	if holds(fb) == 0 {
		t.Fatal("no response segment was held back: nothing was reordered")
	}
	if e.Type != WTRead || !e.Ok() || e.ByteLen != len(data) {
		t.Fatalf("CQE %+v", e)
	}
	if !e.Validity.Complete(uint64(len(data))) {
		t.Fatalf("validity %s", e.Validity.String())
	}
	if !bytes.Equal(sink.Bytes(), data) {
		t.Fatal("read data corrupt")
	}
}

func TestUDReadInvalidSourceSTag(t *testing.T) {
	net := simnet.New(simnet.Config{})
	a := newUDNode(t, net, "a", UDConfig{})
	b := newUDNode(t, net, "b", UDConfig{})

	sink, err := a.tbl.Register(a.pd, make([]byte, 64), memreg.LocalWrite)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.qp.PostRead(1, b.qp.LocalAddr(), sink.STag(), 0, memreg.STag(0xBAD00), 0, 16); err != nil {
		t.Fatal(err)
	}
	// The responder sends Terminate; the requester surfaces it as an
	// advisory error completion on the receive CQ and the read eventually
	// times out (swept).
	e, err := a.rcq.Poll(time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if e.Type != WTError {
		t.Fatalf("CQE %+v", e)
	}
}

func TestUDReadSourceAccessDenied(t *testing.T) {
	net := simnet.New(simnet.Config{})
	a := newUDNode(t, net, "a", UDConfig{})
	b := newUDNode(t, net, "b", UDConfig{})

	// Region lacking REMOTE_READ.
	src, err := b.tbl.Register(b.pd, make([]byte, 64), memreg.LocalRead)
	if err != nil {
		t.Fatal(err)
	}
	sink, err := a.tbl.Register(a.pd, make([]byte, 64), memreg.LocalWrite)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.qp.PostRead(1, b.qp.LocalAddr(), sink.STag(), 0, src.STag(), 0, 16); err != nil {
		t.Fatal(err)
	}
	e, err := a.rcq.Poll(time.Second)
	if err != nil || e.Type != WTError {
		t.Fatalf("CQE %+v err %v", e, err)
	}
	if b.qp.Stats().PlaceErrors != 1 {
		t.Fatalf("responder PlaceErrors = %d", b.qp.Stats().PlaceErrors)
	}
}

func TestUDReadBadSinkRejectedAtPost(t *testing.T) {
	net := simnet.New(simnet.Config{})
	a := newUDNode(t, net, "a", UDConfig{})
	b := newUDNode(t, net, "b", UDConfig{})
	if err := a.qp.PostRead(1, b.qp.LocalAddr(), memreg.STag(0xF00), 0, memreg.STag(1), 0, 8); !errors.Is(err, ErrBadWR) {
		t.Fatalf("err = %v", err)
	}
	if err := a.qp.PostRead(1, b.qp.LocalAddr(), memreg.STag(0xF00), 0, memreg.STag(1), 0, 0); !errors.Is(err, ErrBadWR) {
		t.Fatalf("zero-length err = %v", err)
	}
}

func TestUDReadTimesOutUnderTotalLoss(t *testing.T) {
	net := simnet.New(simnet.Config{})
	a := newUDNode(t, net, "a", UDConfig{ReassemblyTimeout: 150 * time.Millisecond})
	b := newUDNode(t, net, "b", UDConfig{})

	src, err := b.tbl.Register(b.pd, make([]byte, 64), memreg.RemoteRead)
	if err != nil {
		t.Fatal(err)
	}
	sink, err := a.tbl.Register(a.pd, make([]byte, 64), memreg.LocalWrite)
	if err != nil {
		t.Fatal(err)
	}
	net.SetLossRate(1.0) // the request itself is lost
	if err := a.qp.PostRead(7, b.qp.LocalAddr(), sink.STag(), 0, src.STag(), 0, 16); err != nil {
		t.Fatal(err)
	}
	e, err := a.scq.Poll(3 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if e.Type != WTRead || e.Status != StatusTimedOut || e.WRID != 7 {
		t.Fatalf("CQE %+v", e)
	}
	// The QP stays usable: with loss off, a fresh read succeeds.
	net.SetLossRate(0)
	if err := a.qp.PostRead(8, b.qp.LocalAddr(), sink.STag(), 0, src.STag(), 0, 16); err != nil {
		t.Fatal(err)
	}
	if e, err := a.scq.Poll(2 * time.Second); err != nil || !e.Ok() || e.WRID != 8 {
		t.Fatalf("follow-up CQE %+v err %v", e, err)
	}
}

// dropNthEndpoint drops exactly the n-th outbound datagram (1-based),
// making "the Last response segment was lost" deterministic.
type dropNthEndpoint struct {
	transport.Datagram
	n     int
	count int
}

func (d *dropNthEndpoint) SendTo(p []byte, to transport.Addr) error {
	d.count++
	if d.count == d.n {
		return nil // silently dropped, like a lossy wire
	}
	return d.Datagram.SendTo(p, to)
}

// SendBatch routes the burst through SendTo, so the promoted batch method
// cannot bypass the drop.
func (d *dropNthEndpoint) SendBatch(pkts [][]byte, to transport.Addr) (int, error) {
	for i, p := range pkts {
		if err := d.SendTo(p, to); err != nil {
			return i, err
		}
	}
	return len(pkts), nil
}

func TestUDReadPartialTimeoutReportsValidity(t *testing.T) {
	net := simnet.New(simnet.Config{})
	a := newUDNode(t, net, "a", UDConfig{ReassemblyTimeout: 150 * time.Millisecond})

	// Responder whose endpoint drops its 2nd datagram: for a two-segment
	// read response that is exactly the Last segment.
	bep, err := net.OpenDatagram("b", 0)
	if err != nil {
		t.Fatal(err)
	}
	b := &udNode{pd: memreg.NewPD(), tbl: memreg.NewTable(), scq: NewCQ(0), rcq: NewCQ(0)}
	b.qp, err = OpenUD(&dropNthEndpoint{Datagram: bep, n: 2}, b.pd, b.tbl, b.scq, b.rcq, UDConfig{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { b.qp.Close() })

	const size = 100 << 10 // two response segments at the 64 KB limit
	data := make([]byte, size)
	rand.New(rand.NewSource(9)).Read(data)
	src, err := b.tbl.Register(b.pd, data, memreg.RemoteRead)
	if err != nil {
		t.Fatal(err)
	}
	sink, err := a.tbl.Register(a.pd, make([]byte, size), memreg.LocalWrite)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.qp.PostRead(3, b.qp.LocalAddr(), sink.STag(), 0, src.STag(), 0, size); err != nil {
		t.Fatal(err)
	}
	e, err := a.scq.Poll(3 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if e.Type != WTRead || e.Status != StatusTimedOut || e.WRID != 3 {
		t.Fatalf("CQE %+v", e)
	}
	// The first segment's bytes arrived and must be reported as valid.
	if e.ByteLen == 0 || e.Validity.Covered() != uint64(e.ByteLen) {
		t.Fatalf("partial read: ByteLen %d validity %s", e.ByteLen, e.Validity.String())
	}
	firstSeg := e.Validity.Intervals()[0]
	if firstSeg.Off != 0 {
		t.Fatalf("first valid range %v should start at 0", firstSeg)
	}
	if !bytes.Equal(sink.Bytes()[:firstSeg.Len], data[:firstSeg.Len]) {
		t.Fatal("partially placed data corrupt")
	}
}

// tagSeg builds one tagged segment (Write-Record or Read Response) as
// ddp.RecvBatch would hand it to the QP.
func tagSeg(op rdmap.Opcode, stag memreg.STag, to uint64, msn, msgLen uint32, last bool, payload []byte) *ddp.Segment {
	return &ddp.Segment{
		Tagged: true, RDMAP: rdmap.Ctrl(op), STag: stag, TO: to,
		MSN: msn, MsgLen: msgLen, Last: last, Payload: payload,
	}
}

// bareRequester is a claim node A whose reads go to a bare simnet endpoint
// B: nothing ever answers, so every response and every Write-Record A
// sees is a segment the test hands to dispatch itself.
func bareRequester(t *testing.T) (a *udNode, b transport.Addr) {
	t.Helper()
	net := simnet.New(simnet.Config{})
	a = newUDNode(t, net, "a", UDConfig{ReassemblyTimeout: time.Hour})
	bep, err := net.OpenDatagram("b", 0)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { bep.Close() })
	return a, bep.LocalAddr()
}

// A Read Response carries the requester's MSN; a Write-Record carries the
// writer's. The two counters are independent, so A's first read and B's
// first Write-Record to A both have MSN 1. Neither may see the other's
// bytes: the read completes with its own 100 bytes in its own sink, and
// the Write-Record reports all 200 bytes it placed.
func TestUDReadResponseAndWriteRecordSameMSN(t *testing.T) {
	a, b := bareRequester(t)
	sink, err := a.tbl.Register(a.pd, make([]byte, 100), memreg.LocalWrite)
	if err != nil {
		t.Fatal(err)
	}
	target, err := a.tbl.Register(a.pd, make([]byte, 200), memreg.RemoteWrite)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.qp.PostRead(7, b, sink.STag(), 0, memreg.STag(0x100), 0, 100); err != nil {
		t.Fatal(err)
	}
	const msn = 1 // A's first post, and B's first Write-Record
	a.qp.dispatch(b, tagSeg(rdmap.OpWriteRecord, target.STag(), 0, msn, 200, false, bytes.Repeat([]byte{'w'}, 100)))
	a.qp.dispatch(b, tagSeg(rdmap.OpReadResp, sink.STag(), 0, msn, 100, true, bytes.Repeat([]byte{'r'}, 100)))
	a.qp.dispatch(b, tagSeg(rdmap.OpWriteRecord, target.STag(), 100, msn, 200, true, bytes.Repeat([]byte{'w'}, 100)))

	rd, err := a.scq.Poll(time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if rd.Type != WTRead || !rd.Ok() || rd.WRID != 7 || rd.ByteLen != 100 || rd.STag != sink.STag() {
		t.Fatalf("read completion %+v, want WR 7 with 100 bytes into STag %#x", rd, uint32(sink.STag()))
	}
	if !rd.Validity.Complete(100) || rd.Validity.Covered() != 100 {
		t.Fatalf("read validity %s, want [0,100)", rd.Validity.String())
	}
	if !bytes.Equal(sink.Bytes(), bytes.Repeat([]byte{'r'}, 100)) {
		t.Fatal("read sink does not hold the response")
	}
	wr, err := a.rcq.Poll(time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if wr.Type != WTWriteRecordRecv || !wr.Ok() || wr.ByteLen != 200 || wr.STag != target.STag() || !wr.Validity.Complete(200) {
		t.Fatalf("Write-Record completion %+v validity %s, want all 200 bytes valid", wr, wr.Validity.String())
	}
	a.expectNoCQE(t, "after both completions")
}

// A response from any peer but the one the read went to is dropped, even
// when it names the read's MSN and sink.
func TestUDReadResponseFromOtherPeerDropped(t *testing.T) {
	a, b := bareRequester(t)
	sink, err := a.tbl.Register(a.pd, make([]byte, 100), memreg.LocalWrite)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.qp.PostRead(7, b, sink.STag(), 0, memreg.STag(0x100), 0, 100); err != nil {
		t.Fatal(err)
	}
	a.qp.dispatch(claimSrc, tagSeg(rdmap.OpReadResp, sink.STag(), 0, 1, 100, true, make([]byte, 100)))
	if _, err := a.scq.Poll(0); !errors.Is(err, ErrCQEmpty) {
		t.Fatal("a response from a stranger completed the read")
	}
	a.qp.dispatch(b, tagSeg(rdmap.OpReadResp, sink.STag(), 0, 1, 100, true, make([]byte, 100)))
	if e, err := a.scq.Poll(0); err != nil || !e.Ok() || e.WRID != 7 {
		t.Fatalf("read completion %+v err %v", e, err)
	}
}

// peertabMetrics reads the process-wide peer-table occupancy and eviction
// count, summed over every table.
func peertabMetrics() (occupancy, evictions int64) {
	s := telemetry.Default.Snapshot()
	return s.Gauges["diwarp_peertab_occupancy"], s.Counters["diwarp_peertab_evictions_total"]
}

// The peer-table metrics count peers. Write-Records and UD Reads in flight
// are per-message state, so neither moves diwarp_peertab_occupancy while
// it is open nor diwarp_peertab_evictions_total when it completes.
func TestUDPerMessageStateLeavesPeerMetrics(t *testing.T) {
	a, b := bareRequester(t)
	occ0, ev0 := peertabMetrics()

	const records, reads = 8, 8
	target, err := a.tbl.Register(a.pd, make([]byte, 200), memreg.RemoteWrite)
	if err != nil {
		t.Fatal(err)
	}
	sink, err := a.tbl.Register(a.pd, make([]byte, 100), memreg.LocalWrite)
	if err != nil {
		t.Fatal(err)
	}
	half := make([]byte, 100)
	for i := uint32(1); i <= records; i++ {
		a.qp.dispatch(b, tagSeg(rdmap.OpWriteRecord, target.STag(), 0, 1000+i, 200, false, half))
	}
	for i := uint64(1); i <= reads; i++ {
		if err := a.qp.PostRead(i, b, sink.STag(), 0, memreg.STag(0x100), 0, 100); err != nil {
			t.Fatal(err)
		}
	}
	if occ, _ := peertabMetrics(); occ != occ0 {
		t.Fatalf("occupancy moved by %d with %d Write-Records and %d reads open, want 0", occ-occ0, records, reads)
	}
	for i := uint32(1); i <= records; i++ {
		a.qp.dispatch(b, tagSeg(rdmap.OpWriteRecord, target.STag(), 100, 1000+i, 200, true, half))
	}
	for msn := uint32(1); msn <= reads; msn++ {
		a.qp.dispatch(b, tagSeg(rdmap.OpReadResp, sink.STag(), 0, msn, 100, true, half))
	}
	for i := 0; i < records; i++ {
		if e, err := a.rcq.Poll(time.Second); err != nil || !e.Ok() || e.ByteLen != 200 {
			t.Fatalf("Write-Record completion %+v err %v", e, err)
		}
	}
	for i := 0; i < reads; i++ {
		if e, err := a.scq.Poll(time.Second); err != nil || !e.Ok() || e.ByteLen != 100 {
			t.Fatalf("read completion %+v err %v", e, err)
		}
	}
	occ, ev := peertabMetrics()
	if occ != occ0 || ev != ev0 {
		t.Fatalf("after %d completed messages: occupancy moved by %d, %d evictions; want 0 and 0", records+reads, occ-occ0, ev-ev0)
	}
}

// Every UD Read completes exactly once — in full, partially, or timed out
// — while four posters race the placement engine and the sweeper over a
// lossy, duplicating responder, and nothing completes after Close.
func TestUDReadExactlyOnce(t *testing.T) {
	const (
		posters = 4
		perPost = 200
		maxLen  = 200 << 10
	)
	net := simnet.New(simnet.Config{})
	a := newUDNode(t, net, "a", UDConfig{ReassemblyTimeout: 50 * time.Millisecond})
	bep, err := net.OpenDatagram("b", 0)
	if err != nil {
		t.Fatal(err)
	}
	fb := faultnet.Wrap(bep, faultnet.Config{Seed: 26, GE: &faultnet.GEParams{LossGood: 0.05}, DupRate: 0.05})
	b := newUDNodeOver(t, fb, UDConfig{})
	src, err := b.tbl.Register(b.pd, make([]byte, maxLen), memreg.RemoteRead)
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	for g := 0; g < posters; g++ {
		sink, err := a.tbl.Register(a.pd, make([]byte, maxLen), memreg.LocalWrite)
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for i := 0; i < perPost; i++ {
				id := uint64(g*perPost + i)
				n := 1<<10 + rng.Intn(maxLen-1<<10+1)
				if err := a.qp.PostRead(id, b.qp.LocalAddr(), sink.STag(), 0, src.STag(), 0, n); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	wg.Wait()

	seen := make(map[uint64]bool, posters*perPost)
	var whole, partial, timedOut int
	deadline := time.Now().Add(20 * time.Second)
	for len(seen) < posters*perPost && time.Now().Before(deadline) {
		e, err := a.scq.Poll(100 * time.Millisecond)
		if err != nil {
			continue
		}
		if e.Type != WTRead {
			t.Fatalf("unexpected completion %+v", e)
		}
		if seen[e.WRID] {
			t.Fatalf("WR %d completed twice (second: %+v)", e.WRID, e)
		}
		seen[e.WRID] = true
		switch {
		case e.Status == StatusTimedOut:
			timedOut++
		case !e.Ok():
			t.Fatalf("WR %d completed %+v", e.WRID, e)
		case e.Validity.Covered() != uint64(e.ByteLen):
			t.Fatalf("WR %d: ByteLen %d but validity covers %d", e.WRID, e.ByteLen, e.Validity.Covered())
		case e.ByteLen == e.MsgLen:
			whole++
		default:
			partial++
		}
	}
	if len(seen) != posters*perPost {
		t.Fatalf("%d of %d reads completed", len(seen), posters*perPost)
	}
	t.Logf("%d whole, %d partial, %d timed out", whole, partial, timedOut)
	a.qp.Close()
	time.Sleep(100 * time.Millisecond) // two sweep periods
	if e, err := a.scq.Poll(0); err == nil {
		t.Fatalf("completion after Close: %+v", e)
	}
}
