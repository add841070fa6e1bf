package iwarp

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"
	"time"

	"repro/internal/memreg"
	"repro/internal/mpa"
	"repro/internal/nio"
	"repro/internal/simnet"
	"repro/internal/transport"
)

type rcNode struct {
	pd  *memreg.PD
	tbl *memreg.Table
	scq *CQ
	rcq *CQ
	qp  *RCQP
}

// rcPair connects two RC QPs over a simulated network.
func rcPair(t *testing.T, cfg RCConfig) (*rcNode, *rcNode) {
	t.Helper()
	net := simnet.New(simnet.Config{})
	l, err := net.Listen("srv", 0)
	if err != nil {
		t.Fatal(err)
	}
	mk := func() *rcNode {
		return &rcNode{pd: memreg.NewPD(), tbl: memreg.NewTable(), scq: NewCQ(0), rcq: NewCQ(0)}
	}
	srv, cli := mk(), mk()
	type res struct {
		qp  *RCQP
		err error
	}
	ch := make(chan res, 1)
	go func() {
		s, err := l.Accept()
		if err != nil {
			ch <- res{nil, err}
			return
		}
		qp, _, err := AcceptRC(s, srv.pd, srv.tbl, srv.scq, srv.rcq, cfg, nil)
		ch <- res{qp, err}
	}()
	s, err := net.Dial("cli", l.Addr())
	if err != nil {
		t.Fatal(err)
	}
	cli.qp, _, err = ConnectRC(s, cli.pd, cli.tbl, cli.scq, cli.rcq, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	r := <-ch
	if r.err != nil {
		t.Fatal(r.err)
	}
	srv.qp = r.qp
	t.Cleanup(func() { cli.qp.Close(); srv.qp.Close() })
	return cli, srv
}

func TestRCSendRecvRoundTrip(t *testing.T) {
	cli, srv := rcPair(t, RCConfig{})
	buf := make([]byte, 128)
	if err := srv.qp.PostRecv(5, buf); err != nil {
		t.Fatal(err)
	}
	msg := []byte("over the reliable connection")
	if err := cli.qp.PostSend(6, nio.VecOf(msg)); err != nil {
		t.Fatal(err)
	}
	se, err := cli.scq.Poll(time.Second)
	if err != nil || se.Type != WTSend || !se.Ok() {
		t.Fatalf("send CQE %+v err %v", se, err)
	}
	re, err := srv.rcq.Poll(time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if re.WRID != 5 || re.ByteLen != len(msg) || !bytes.Equal(buf[:re.ByteLen], msg) {
		t.Fatalf("recv CQE %+v payload %q", re, buf[:re.ByteLen])
	}
}

func TestRCLargeSendSegmented(t *testing.T) {
	cli, srv := rcPair(t, RCConfig{})
	msg := make([]byte, 300<<10) // hundreds of MULPDU segments
	rand.New(rand.NewSource(3)).Read(msg)
	buf := make([]byte, len(msg))
	if err := srv.qp.PostRecv(1, buf); err != nil {
		t.Fatal(err)
	}
	if err := cli.qp.PostSend(2, nio.VecOf(msg)); err != nil {
		t.Fatal(err)
	}
	re, err := srv.rcq.Poll(5 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if re.ByteLen != len(msg) || !bytes.Equal(buf, msg) {
		t.Fatalf("ByteLen = %d", re.ByteLen)
	}
}

func TestRCWriteThenNotify(t *testing.T) {
	// The standard RC pattern from Figure 3: RDMA Write (no target CQE),
	// then a Send to tell the target the data is valid.
	cli, srv := rcPair(t, RCConfig{})
	region, err := srv.tbl.Register(srv.pd, make([]byte, 64<<10), memreg.RemoteWrite)
	if err != nil {
		t.Fatal(err)
	}
	payload := make([]byte, 48<<10)
	rand.New(rand.NewSource(8)).Read(payload)

	if err := srv.qp.PostRecv(1, make([]byte, 16)); err != nil {
		t.Fatal(err)
	}
	if err := cli.qp.PostWrite(2, region.STag(), 4096, nio.VecOf(payload)); err != nil {
		t.Fatal(err)
	}
	we, err := cli.scq.Poll(time.Second)
	if err != nil || we.Type != WTWrite || !we.Ok() {
		t.Fatalf("write CQE %+v err %v", we, err)
	}
	// No target-side completion for the write itself.
	if _, err := srv.rcq.Poll(50 * time.Millisecond); !errors.Is(err, ErrCQEmpty) {
		t.Fatal("RDMA Write must not complete at the target")
	}
	if err := cli.qp.PostSend(3, nio.VecOf([]byte("valid"))); err != nil {
		t.Fatal(err)
	}
	re, err := srv.rcq.Poll(time.Second)
	if err != nil || re.Type != WTRecv {
		t.Fatalf("notify CQE %+v err %v", re, err)
	}
	// Stream ordering guarantees the write landed before the send.
	if !bytes.Equal(region.Bytes()[4096:4096+len(payload)], payload) {
		t.Fatal("write not placed before notify")
	}
}

func TestRCRead(t *testing.T) {
	cli, srv := rcPair(t, RCConfig{})
	src, err := srv.tbl.Register(srv.pd, make([]byte, 32<<10), memreg.RemoteRead)
	if err != nil {
		t.Fatal(err)
	}
	rand.New(rand.NewSource(4)).Read(src.Bytes())
	sink, err := cli.tbl.Register(cli.pd, make([]byte, 32<<10), memreg.LocalWrite)
	if err != nil {
		t.Fatal(err)
	}
	const n = 20 << 10
	if err := cli.qp.PostRead(11, sink.STag(), 100, src.STag(), 200, n); err != nil {
		t.Fatal(err)
	}
	e, err := cli.scq.Poll(2 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if e.Type != WTRead || !e.Ok() || e.WRID != 11 {
		t.Fatalf("read CQE %+v", e)
	}
	if !bytes.Equal(sink.Bytes()[100:100+n], src.Bytes()[200:200+n]) {
		t.Fatal("read data mismatch")
	}
}

func TestRCReadBadSinkRejectedAtPost(t *testing.T) {
	cli, _ := rcPair(t, RCConfig{})
	err := cli.qp.PostRead(1, memreg.STag(0xFFFF00), 0, memreg.STag(1), 0, 16)
	if !errors.Is(err, ErrBadWR) {
		t.Fatalf("err = %v", err)
	}
}

func TestRCRNRTerminatesConnection(t *testing.T) {
	cli, srv := rcPair(t, RCConfig{})
	// No posted receive at the server: RC treats this as fatal.
	if err := cli.qp.PostSend(1, nio.VecOf([]byte("unexpected"))); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) && !srv.qp.Errored() {
		time.Sleep(time.Millisecond)
	}
	if !srv.qp.Errored() {
		t.Fatal("server QP did not error on RNR")
	}
	// The Terminate propagates back: client errors too.
	deadline = time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) && !cli.qp.Errored() {
		time.Sleep(time.Millisecond)
	}
	if !cli.qp.Errored() {
		t.Fatal("client QP did not receive Terminate")
	}
	// Posts after error fail.
	if err := cli.qp.PostSend(2, nio.VecOf([]byte("x"))); !errors.Is(err, ErrQPClosed) {
		t.Fatalf("post after error: %v", err)
	}
}

// TestRCBlockOnRNRWaitsForPostRecv: with BlockOnRNR a message that
// arrives before its receive waits for PostRecv instead of terminating the
// connection, and completes as soon as a buffer is posted; a QP closed
// while its receive loop waits so closes promptly.
func TestRCBlockOnRNRWaitsForPostRecv(t *testing.T) {
	cli, srv := rcPair(t, RCConfig{BlockOnRNR: true})
	msg := bytes.Repeat([]byte{0xa5}, 3000)
	if err := cli.qp.PostSend(1, nio.VecOf(msg)); err != nil {
		t.Fatal(err)
	}
	// Let the message arrive and the receive loop park on RNR.
	time.Sleep(50 * time.Millisecond)
	if srv.qp.Errored() {
		t.Fatal("RNR terminated the connection despite BlockOnRNR")
	}
	buf := make([]byte, 4096)
	if err := srv.qp.PostRecv(7, buf); err != nil {
		t.Fatal(err)
	}
	e, err := srv.rcq.Poll(2 * time.Second)
	if err != nil {
		t.Fatalf("blocked message never delivered: %v", err)
	}
	if !e.Ok() || e.WRID != 7 || !bytes.Equal(buf[:e.ByteLen], msg) {
		t.Fatalf("CQE %+v", e)
	}

	// A second message parks the loop again; Close must wake it.
	if err := cli.qp.PostSend(2, nio.VecOf(msg)); err != nil {
		t.Fatal(err)
	}
	time.Sleep(50 * time.Millisecond)
	closed := make(chan struct{})
	go func() {
		srv.qp.Close()
		close(closed)
	}()
	select {
	case <-closed:
	case <-time.After(2 * time.Second):
		t.Fatal("Close did not return while the receive loop waited on RNR")
	}
}

func TestRCWriteBoundsViolationTerminates(t *testing.T) {
	cli, srv := rcPair(t, RCConfig{})
	region, err := srv.tbl.Register(srv.pd, make([]byte, 16), memreg.RemoteWrite)
	if err != nil {
		t.Fatal(err)
	}
	if err := cli.qp.PostWrite(1, region.STag(), 8, nio.VecOf([]byte("overruns the region"))); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) && !srv.qp.Errored() {
		time.Sleep(time.Millisecond)
	}
	if !srv.qp.Errored() {
		t.Fatal("server QP did not error on bounds violation")
	}
	if srv.qp.Stats().PlaceErrors == 0 {
		t.Fatal("place error not counted")
	}
}

func TestRCInvalidSTagTerminates(t *testing.T) {
	cli, srv := rcPair(t, RCConfig{})
	if err := cli.qp.PostWrite(1, memreg.STag(0xDEAD00), 0, nio.VecOf([]byte("x"))); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) && !srv.qp.Errored() {
		time.Sleep(time.Millisecond)
	}
	if !srv.qp.Errored() {
		t.Fatal("server QP did not error on invalid STag")
	}
}

func TestRCErrorFlushesPostedRecvs(t *testing.T) {
	cli, srv := rcPair(t, RCConfig{})
	if err := srv.qp.PostRecv(21, make([]byte, 8)); err != nil {
		t.Fatal(err)
	}
	if err := srv.qp.PostRecv(22, make([]byte, 8)); err != nil {
		t.Fatal(err)
	}
	// Trigger a fatal error from the client: invalid STag write.
	if err := cli.qp.PostWrite(1, memreg.STag(0xBAD), 0, nio.VecOf([]byte("x"))); err != nil {
		t.Fatal(err)
	}
	seen := map[uint64]bool{}
	for i := 0; i < 2; i++ {
		e, err := srv.rcq.Poll(2 * time.Second)
		if err != nil {
			t.Fatal(err)
		}
		if e.Status != StatusFlushed {
			t.Fatalf("CQE %+v", e)
		}
		seen[e.WRID] = true
	}
	if !seen[21] || !seen[22] {
		t.Fatalf("flushed WRs = %v", seen)
	}
}

func TestRCCloseFlushesRecvs(t *testing.T) {
	cli, _ := rcPair(t, RCConfig{})
	if err := cli.qp.PostRecv(31, make([]byte, 8)); err != nil {
		t.Fatal(err)
	}
	cli.qp.Close()
	e, err := cli.rcq.Poll(time.Second)
	if err != nil || e.WRID != 31 || e.Status != StatusFlushed {
		t.Fatalf("CQE %+v err %v", e, err)
	}
}

func TestRCRecvBufferTooSmall(t *testing.T) {
	cli, srv := rcPair(t, RCConfig{})
	if err := srv.qp.PostRecv(1, make([]byte, 4)); err != nil {
		t.Fatal(err)
	}
	if err := cli.qp.PostSend(2, nio.VecOf(make([]byte, 4096))); err != nil {
		t.Fatal(err)
	}
	e, err := srv.rcq.Poll(time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if e.Status != StatusLocalLength {
		t.Fatalf("CQE %+v", e)
	}
	// RC survives a too-small buffer (it is a local condition, not a
	// protocol violation): traffic continues.
	if err := srv.qp.PostRecv(3, make([]byte, 8192)); err != nil {
		t.Fatal(err)
	}
	if err := cli.qp.PostSend(4, nio.VecOf([]byte("fits"))); err != nil {
		t.Fatal(err)
	}
	if e, err := srv.rcq.Poll(time.Second); err != nil || !e.Ok() {
		t.Fatalf("follow-up CQE %+v err %v", e, err)
	}
}

func TestRCMarkerlessProfile(t *testing.T) {
	cli, srv := rcPair(t, RCConfig{MPA: mpa.Config{MarkerInterval: -1, DisableCRC: true}})
	if err := srv.qp.PostRecv(1, make([]byte, 64)); err != nil {
		t.Fatal(err)
	}
	if err := cli.qp.PostSend(2, nio.VecOf([]byte("bare profile"))); err != nil {
		t.Fatal(err)
	}
	if e, err := srv.rcq.Poll(time.Second); err != nil || !e.Ok() {
		t.Fatalf("CQE %+v err %v", e, err)
	}
}

func TestRCBidirectionalTraffic(t *testing.T) {
	cli, srv := rcPair(t, RCConfig{})
	const rounds = 50
	for i := 0; i < rounds; i++ {
		if err := cli.qp.PostRecv(uint64(i), make([]byte, 64)); err != nil {
			t.Fatal(err)
		}
		if err := srv.qp.PostRecv(uint64(i), make([]byte, 64)); err != nil {
			t.Fatal(err)
		}
	}
	errc := make(chan error, 2)
	go func() {
		for i := 0; i < rounds; i++ {
			if err := cli.qp.PostSend(uint64(i), nio.VecOf([]byte{1, byte(i)})); err != nil {
				errc <- err
				return
			}
		}
		errc <- nil
	}()
	go func() {
		for i := 0; i < rounds; i++ {
			if err := srv.qp.PostSend(uint64(i), nio.VecOf([]byte{2, byte(i)})); err != nil {
				errc <- err
				return
			}
		}
		errc <- nil
	}()
	for i := 0; i < rounds; i++ {
		if e, err := cli.rcq.Poll(2 * time.Second); err != nil || !e.Ok() {
			t.Fatalf("cli recv %d: %+v %v", i, e, err)
		}
		if e, err := srv.rcq.Poll(2 * time.Second); err != nil || !e.Ok() {
			t.Fatalf("srv recv %d: %+v %v", i, e, err)
		}
	}
	for i := 0; i < 2; i++ {
		if err := <-errc; err != nil {
			t.Fatal(err)
		}
	}
}

func TestRCOverRealTCP(t *testing.T) {
	l, err := transport.ListenTCP("127.0.0.1", 0)
	if err != nil {
		t.Skipf("no loopback TCP: %v", err)
	}
	defer l.Close()
	mk := func() *rcNode {
		return &rcNode{pd: memreg.NewPD(), tbl: memreg.NewTable(), scq: NewCQ(0), rcq: NewCQ(0)}
	}
	srv, cli := mk(), mk()
	type res struct {
		qp  *RCQP
		err error
	}
	ch := make(chan res, 1)
	go func() {
		s, err := l.Accept()
		if err != nil {
			ch <- res{nil, err}
			return
		}
		qp, _, err := AcceptRC(s, srv.pd, srv.tbl, srv.scq, srv.rcq, RCConfig{}, nil)
		ch <- res{qp, err}
	}()
	s, err := transport.DialTCP(l.Addr())
	if err != nil {
		t.Fatal(err)
	}
	cli.qp, _, err = ConnectRC(s, cli.pd, cli.tbl, cli.scq, cli.rcq, RCConfig{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	r := <-ch
	if r.err != nil {
		t.Fatal(r.err)
	}
	srv.qp = r.qp
	defer cli.qp.Close()
	defer srv.qp.Close()

	buf := make([]byte, 64)
	if err := srv.qp.PostRecv(1, buf); err != nil {
		t.Fatal(err)
	}
	if err := cli.qp.PostSend(2, nio.VecOf([]byte("iwarp over kernel tcp"))); err != nil {
		t.Fatal(err)
	}
	e, err := srv.rcq.Poll(2 * time.Second)
	if err != nil || !e.Ok() {
		t.Fatalf("CQE %+v err %v", e, err)
	}
	if string(buf[:e.ByteLen]) != "iwarp over kernel tcp" {
		t.Fatalf("payload %q", buf[:e.ByteLen])
	}
}
