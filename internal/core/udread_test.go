package iwarp

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"
	"time"

	"repro/internal/faultnet"
	"repro/internal/memreg"
	"repro/internal/simnet"
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
