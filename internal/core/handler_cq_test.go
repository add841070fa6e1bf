package iwarp

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"repro/internal/memreg"
	"repro/internal/nio"
	"repro/internal/simnet"
	"repro/internal/transport"
)

// newHandlerNode opens a UD QP whose send and receive CQ is one handler CQ
// calling fn.
func newHandlerNode(t *testing.T, ep transport.Datagram, cfg UDConfig, fn func(CQE)) *udNode {
	t.Helper()
	cq := NewCQFunc(fn)
	nd := &udNode{pd: memreg.NewPD(), tbl: memreg.NewTable(), scq: cq, rcq: cq}
	var err error
	if nd.qp, err = OpenUD(ep, nd.pd, nd.tbl, cq, cq, cfg); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { nd.qp.Close() })
	return nd
}

// TestHandlerCQ pins the handler CQ: Poll never blocks and never returns a
// completion, and every completion type — send, receive, Write-Record at
// source and target (single- and multi-segment, each exactly once), UD
// Read, advisory error — reaches the handler instead.
func TestHandlerCQ(t *testing.T) {
	cq := NewCQFunc(func(CQE) {})
	for _, timeout := range []time.Duration{0, time.Second, -1} {
		start := time.Now()
		if _, err := cq.Poll(timeout); !errors.Is(err, ErrCQEmpty) {
			t.Fatalf("Poll(%v) on a handler CQ: %v, want ErrCQEmpty", timeout, err)
		}
		if d := time.Since(start); d > 100*time.Millisecond {
			t.Fatalf("Poll(%v) on a handler CQ blocked %v", timeout, d)
		}
	}

	net := simnet.New(simnet.Config{})
	aep, err := net.OpenDatagram("a", 0)
	if err != nil {
		t.Fatal(err)
	}
	bep, err := net.OpenDatagram("b", 0)
	if err != nil {
		t.Fatal(err)
	}
	// One channel per node: within a node the steps below complete in
	// program order, across the two nodes they may interleave.
	gotA, gotB := make(chan CQE, 16), make(chan CQE, 16)
	a := newHandlerNode(t, aep, UDConfig{}, func(e CQE) { gotA <- e })
	b := newHandlerNode(t, bep, UDConfig{}, func(e CQE) { gotB <- e })
	next := func(got chan CQE, what string) CQE {
		t.Helper()
		select {
		case e := <-got:
			return e
		case <-time.After(2 * time.Second):
			t.Fatalf("%s never reached the handler", what)
			return CQE{}
		}
	}
	expect := func(got chan CQE, what string, wt WorkType, wrid uint64) CQE {
		t.Helper()
		e := next(got, what)
		if e.Type != wt || e.WRID != wrid || !e.Ok() {
			t.Fatalf("%s: CQE %+v, want %v WR %d", what, e, wt, wrid)
		}
		return e
	}

	// Send and receive.
	buf := make([]byte, 64)
	if err := b.qp.PostRecv(10, buf); err != nil {
		t.Fatal(err)
	}
	payload := []byte("handler completion")
	if err := a.qp.PostSend(1, b.qp.LocalAddr(), nio.VecOf(payload)); err != nil {
		t.Fatal(err)
	}
	expect(gotA, "send completion", WTSend, 1)
	if e := expect(gotB, "receive completion", WTRecv, 10); e.ByteLen != len(payload) || e.Src != a.qp.LocalAddr() {
		t.Fatalf("receive CQE %+v", e)
	}

	// Single-segment Write-Record.
	region, err := b.tbl.Register(b.pd, make([]byte, 4096), memreg.RemoteWrite)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.qp.PostWriteRecord(2, b.qp.LocalAddr(), region.STag(), 64, nio.VecOf(payload)); err != nil {
		t.Fatal(err)
	}
	expect(gotA, "Write-Record source completion", WTWriteRecord, 2)
	re := expect(gotB, "Write-Record target completion", WTWriteRecordRecv, 0)
	if re.STag != region.STag() || re.TO != 64 || re.MsgLen != len(payload) {
		t.Fatalf("Write-Record target CQE fields %+v", re)
	}
	if !bytes.Equal(region.Bytes()[64:64+len(payload)], payload) {
		t.Fatal("data not placed")
	}

	// Multi-segment Write-Record: one target completion.
	big := make([]byte, 200<<10)
	for i := range big {
		big[i] = byte(i * 7)
	}
	region2, err := b.tbl.Register(b.pd, make([]byte, len(big)), memreg.RemoteWrite)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.qp.PostWriteRecord(3, b.qp.LocalAddr(), region2.STag(), 0, nio.VecOf(big)); err != nil {
		t.Fatal(err)
	}
	expect(gotA, "multi-segment source completion", WTWriteRecord, 3)
	if re := expect(gotB, "multi-segment target completion", WTWriteRecordRecv, 0); re.STag != region2.STag() || re.MsgLen != len(big) {
		t.Fatalf("multi-segment target CQE %+v", re)
	}
	if !bytes.Equal(region2.Bytes(), big) {
		t.Fatal("multi-segment data not placed")
	}

	// UD Read.
	src, err := b.tbl.Register(b.pd, []byte("read me"), memreg.RemoteRead)
	if err != nil {
		t.Fatal(err)
	}
	sink, err := a.tbl.Register(a.pd, make([]byte, 7), memreg.LocalWrite)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.qp.PostRead(4, b.qp.LocalAddr(), sink.STag(), 0, src.STag(), 0, 7); err != nil {
		t.Fatal(err)
	}
	if e := expect(gotA, "read completion", WTRead, 4); e.ByteLen != 7 || string(sink.Bytes()) != "read me" {
		t.Fatalf("read CQE %+v, sink %q", e, sink.Bytes())
	}

	// Advisory error: a Write-Record to an unknown STag.
	if err := a.qp.PostWriteRecord(5, b.qp.LocalAddr(), memreg.STag(0xdead00), 0, nio.VecOf(payload)); err != nil {
		t.Fatal(err)
	}
	expect(gotA, "bad-STag source completion", WTWriteRecord, 5)
	if e := next(gotB, "advisory"); e.Type != WTError || e.Status != StatusRemoteInvalid {
		t.Fatalf("advisory CQE %+v", e)
	}

	time.Sleep(50 * time.Millisecond)
	if len(gotA)+len(gotB) != 0 {
		t.Fatalf("unexpected extra completions: %d at a, %d at b", len(gotA), len(gotB))
	}
}

// TestHandlerCQMayReenterQP: the sweeper posts its timeouts after
// releasing the QP lock, so a handler may call back into the QP from a
// timed-out completion. Both timeouts are exercised: a UD Read whose
// response never came, and a claimed receive the full queue cannot take
// back.
func TestHandlerCQMayReenterQP(t *testing.T) {
	net := simnet.New(simnet.Config{})
	ep, err := net.OpenDatagram("a", 0)
	if err != nil {
		t.Fatal(err)
	}
	silent, err := net.OpenDatagram("b", 0)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { silent.Close() })

	var qp *UDQP
	footprints := make(chan CQE, 4)
	cq := NewCQFunc(func(e CQE) {
		if e.Status == StatusTimedOut {
			qp.Footprint()
			footprints <- e
		}
	})
	pd, tbl := memreg.NewPD(), memreg.NewTable()
	if qp, err = OpenUD(ep, pd, tbl, cq, cq, UDConfig{RecvDepth: 1, ReassemblyTimeout: time.Hour}); err != nil {
		t.Fatal(err)
	}
	// Close would wait on the lock a deadlocked sweep holds: skip it then.
	deadlocked := false
	t.Cleanup(func() {
		if !deadlocked {
			qp.Close()
		}
	})

	sink, err := tbl.Register(pd, make([]byte, 16), memreg.LocalWrite)
	if err != nil {
		t.Fatal(err)
	}
	if err := qp.PostRead(1, silent.LocalAddr(), sink.STag(), 0, memreg.STag(0x100), 0, 16); err != nil {
		t.Fatal(err)
	}
	// The first segment of a two-segment message claims the only receive;
	// a second receive then fills the queue, so the sweep cannot repost.
	if err := qp.PostRecv(2, make([]byte, 16)); err != nil {
		t.Fatal(err)
	}
	qp.dispatch(claimSrc, sendSeg(1, 0, 16, false, make([]byte, 8)))
	if err := qp.PostRecv(3, make([]byte, 16)); err != nil {
		t.Fatal(err)
	}

	swept := make(chan struct{})
	go func() {
		qp.sweep(time.Now().Add(2 * time.Hour))
		close(swept)
	}()
	select {
	case <-swept:
	case <-time.After(5 * time.Second):
		deadlocked = true
		t.Fatal("sweep deadlocked: a handler calling Footprint ran under the QP lock")
	}
	seen := map[WorkType]uint64{}
	for i := 0; i < 2; i++ {
		e := <-footprints
		seen[e.Type] = e.WRID
	}
	if seen[WTRead] != 1 || seen[WTRecv] != 2 {
		t.Fatalf("timed-out completions %v, want read WR 1 and receive WR 2", seen)
	}
}

// TestUDCloseFlushesClaimedRecv: a receive claimed by a partial message is
// no longer posted, but Close still completes it flushed: no receive WR
// vanishes without a completion.
func TestUDCloseFlushesClaimedRecv(t *testing.T) {
	nd := newClaimNode(t)
	if err := nd.qp.PostRecv(7, make([]byte, 16)); err != nil {
		t.Fatal(err)
	}
	nd.deliver(claimSrc, sendSeg(1, 0, 16, false, make([]byte, 8)))
	nd.expectNoCQE(t, "after the first segment")
	nd.qp.Close()
	e, err := nd.rcq.Poll(time.Second)
	if err != nil {
		t.Fatal("the claimed receive was never flushed")
	}
	if e.WRID != 7 || e.Status != StatusFlushed {
		t.Fatalf("CQE %+v, want WR 7 flushed", e)
	}
	if nd.claimCount() != 0 {
		t.Fatal("claim survived Close")
	}
}
