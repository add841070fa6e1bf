package sockif

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"repro/internal/simnet"
	"repro/internal/transport"
)

// newSim builds a socket interface whose endpoints live on node of a
// simulated network.
func newSim(net *simnet.Network, node string, cfg Config) *Interface {
	cfg.OpenDatagram = func(port uint16) (transport.Datagram, error) { return net.OpenDatagram(node, port) }
	cfg.Listen = func(port uint16) (transport.Listener, error) { return net.Listen(node, port) }
	cfg.Dial = func(to transport.Addr) (transport.Stream, error) { return net.Dial(node, to) }
	return New(cfg)
}

func simPair(t *testing.T, netCfg simnet.Config, cfg Config) (*Interface, *Interface, *simnet.Network) {
	t.Helper()
	net := simnet.New(netCfg)
	return newSim(net, "a", cfg), newSim(net, "b", cfg), net
}

func TestDatagramSendToRecvFrom(t *testing.T) {
	ifa, ifb, _ := simPair(t, simnet.Config{}, Config{})
	sa, err := ifa.Socket(DatagramSocket)
	if err != nil {
		t.Fatal(err)
	}
	defer sa.Close()
	sb, err := ifb.BindDatagram(5060)
	if err != nil {
		t.Fatal(err)
	}
	defer sb.Close()
	if sb.LocalAddr().Port() != 5060 {
		t.Fatalf("bound port %d", sb.LocalAddr().Port())
	}

	msg := []byte("datagram through the shim")
	if err := sa.SendTo(msg, sb.LocalAddr()); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 256)
	n, from, err := sb.RecvFrom(buf, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf[:n], msg) {
		t.Fatalf("payload %q", buf[:n])
	}
	if from != sa.LocalAddr() {
		t.Fatalf("from %v, want %v", from, sa.LocalAddr())
	}
	st := sb.Stats()
	if st.MsgsReceived != 1 || st.BytesReceived != int64(len(msg)) {
		t.Fatalf("stats %+v", st)
	}
}

func TestDatagramConnectSendRecv(t *testing.T) {
	ifa, ifb, _ := simPair(t, simnet.Config{}, Config{})
	sa, _ := ifa.Socket(DatagramSocket)
	defer sa.Close()
	sb, _ := ifb.Socket(DatagramSocket)
	defer sb.Close()
	if err := sa.Connect(sb.LocalAddr()); err != nil {
		t.Fatal(err)
	}
	if err := sa.Send([]byte("connected dgram")); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 64)
	n, err := sb.Recv(buf, time.Second)
	if err != nil || string(buf[:n]) != "connected dgram" {
		t.Fatalf("%q %v", buf[:n], err)
	}
}

func TestDatagramUnconnectedSendFails(t *testing.T) {
	ifa, _, _ := simPair(t, simnet.Config{}, Config{})
	sa, _ := ifa.Socket(DatagramSocket)
	defer sa.Close()
	if err := sa.Send([]byte("x")); !errors.Is(err, ErrNotConnected) {
		t.Fatalf("err = %v", err)
	}
}

func TestDatagramRecvTimeout(t *testing.T) {
	ifa, _, _ := simPair(t, simnet.Config{}, Config{})
	sa, _ := ifa.Socket(DatagramSocket)
	defer sa.Close()
	if _, _, err := sa.RecvFrom(make([]byte, 8), 30*time.Millisecond); !errors.Is(err, transport.ErrTimeout) {
		t.Fatalf("err = %v", err)
	}
}

func TestDatagramTruncationToCallerBuffer(t *testing.T) {
	ifa, ifb, _ := simPair(t, simnet.Config{}, Config{})
	sa, _ := ifa.Socket(DatagramSocket)
	defer sa.Close()
	sb, _ := ifb.Socket(DatagramSocket)
	defer sb.Close()
	if err := sa.SendTo([]byte("0123456789"), sb.LocalAddr()); err != nil {
		t.Fatal(err)
	}
	small := make([]byte, 4)
	n, _, err := sb.RecvFrom(small, time.Second)
	if err != nil || n != 4 || string(small) != "0123" {
		t.Fatalf("n=%d buf=%q err=%v", n, small, err)
	}
}

func TestDatagramOversizeSlabDropped(t *testing.T) {
	ifa, ifb, _ := simPair(t, simnet.Config{}, Config{RecvBufSize: 64})
	sa, _ := ifa.Socket(DatagramSocket)
	defer sa.Close()
	sb, _ := ifb.Socket(DatagramSocket)
	defer sb.Close()
	if err := sa.SendTo(make([]byte, 1000), sb.LocalAddr()); err != nil {
		t.Fatal(err)
	}
	if _, _, err := sb.RecvFrom(make([]byte, 2000), 100*time.Millisecond); !errors.Is(err, transport.ErrTimeout) {
		t.Fatalf("err = %v", err)
	}
	if sb.Stats().Truncated != 1 {
		t.Fatalf("Truncated = %d", sb.Stats().Truncated)
	}
	// Slab recycled: an in-budget message still arrives.
	if err := sa.SendTo([]byte("fits"), sb.LocalAddr()); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 16)
	if n, _, err := sb.RecvFrom(buf, time.Second); err != nil || string(buf[:n]) != "fits" {
		t.Fatalf("%q %v", buf[:n], err)
	}
}

func TestWriteRecordDataPath(t *testing.T) {
	ifa, ifb, _ := simPair(t, simnet.Config{}, Config{})
	sa, _ := ifa.Socket(DatagramSocket)
	defer sa.Close()
	sb, _ := ifb.Socket(DatagramSocket)
	defer sb.Close()
	if err := sa.Connect(sb.LocalAddr()); err != nil {
		t.Fatal(err)
	}

	// The ring advertisement handshake needs the receiver pumping.
	done := make(chan error, 1)
	go func() { done <- sa.EnableWriteRecord(2 * time.Second) }()
	buf := make([]byte, 256)
	// Receiver polls; the ring request is absorbed internally.
	_, _, _ = sb.RecvFrom(buf, 300*time.Millisecond)
	if err := <-done; err != nil {
		t.Fatalf("EnableWriteRecord: %v", err)
	}

	for i := 0; i < 5; i++ {
		msg := bytes.Repeat([]byte{byte('A' + i)}, 100+i)
		if err := sa.Send(msg); err != nil {
			t.Fatal(err)
		}
		n, from, err := sb.RecvFrom(buf, time.Second)
		if err != nil {
			t.Fatalf("recv %d: %v", i, err)
		}
		if !bytes.Equal(buf[:n], msg) {
			t.Fatalf("msg %d: got %d bytes", i, n)
		}
		if from != sa.LocalAddr() {
			t.Fatalf("from %v", from)
		}
	}
	// The Write-Record path consumed no slab receives for data.
	if sb.Stats().MsgsReceived != 5 {
		t.Fatalf("MsgsReceived = %d", sb.Stats().MsgsReceived)
	}
}

func TestWriteRecordRingWraparound(t *testing.T) {
	ifa, ifb, _ := simPair(t, simnet.Config{}, Config{RingSize: 1024})
	sa, _ := ifa.Socket(DatagramSocket)
	defer sa.Close()
	sb, _ := ifb.Socket(DatagramSocket)
	defer sb.Close()
	sa.Connect(sb.LocalAddr())
	done := make(chan error, 1)
	go func() { done <- sa.EnableWriteRecord(2 * time.Second) }()
	_, _, _ = sb.RecvFrom(make([]byte, 8), 300*time.Millisecond)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 512)
	for i := 0; i < 10; i++ { // 10 × 400 B through a 1 KiB ring
		msg := bytes.Repeat([]byte{byte(i)}, 400)
		if err := sa.Send(msg); err != nil {
			t.Fatal(err)
		}
		n, _, err := sb.RecvFrom(buf, time.Second)
		if err != nil || !bytes.Equal(buf[:n], msg) {
			t.Fatalf("round %d: n=%d err=%v", i, n, err)
		}
	}
}

func TestStreamSocketRoundTrip(t *testing.T) {
	ifa, ifb, _ := simPair(t, simnet.Config{}, Config{})
	l, err := ifb.Listen(8080)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	type acc struct {
		s   *Socket
		err error
	}
	ch := make(chan acc, 1)
	go func() {
		s, err := l.Accept()
		ch <- acc{s, err}
	}()
	cli, err := ifa.Socket(StreamSocket)
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	if err := cli.Connect(l.Addr()); err != nil {
		t.Fatal(err)
	}
	a := <-ch
	if a.err != nil {
		t.Fatal(a.err)
	}
	defer a.s.Close()

	if err := cli.Send([]byte("hello stream")); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 64)
	n, err := a.s.Recv(buf, time.Second)
	if err != nil || string(buf[:n]) != "hello stream" {
		t.Fatalf("%q %v", buf[:n], err)
	}
	// Reply.
	if err := a.s.Send([]byte("hi back")); err != nil {
		t.Fatal(err)
	}
	n, err = cli.Recv(buf, time.Second)
	if err != nil || string(buf[:n]) != "hi back" {
		t.Fatalf("%q %v", buf[:n], err)
	}
}

func TestStreamByteSemantics(t *testing.T) {
	ifa, ifb, _ := simPair(t, simnet.Config{}, Config{})
	l, _ := ifb.Listen(0)
	defer l.Close()
	ch := make(chan *Socket, 1)
	go func() {
		s, err := l.Accept()
		if err == nil {
			ch <- s
		}
	}()
	cli, _ := ifa.Socket(StreamSocket)
	defer cli.Close()
	if err := cli.Connect(l.Addr()); err != nil {
		t.Fatal(err)
	}
	srv := <-ch
	defer srv.Close()

	if err := cli.Send([]byte("abcdefghij")); err != nil {
		t.Fatal(err)
	}
	// Read in three small chunks: stream semantics split one message.
	var got []byte
	for len(got) < 10 {
		buf := make([]byte, 4)
		n, err := srv.Recv(buf, time.Second)
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, buf[:n]...)
	}
	if string(got) != "abcdefghij" {
		t.Fatalf("got %q", got)
	}
}

func TestSocketTableLookup(t *testing.T) {
	ifa, _, _ := simPair(t, simnet.Config{}, Config{})
	s, _ := ifa.Socket(DatagramSocket)
	if got, ok := ifa.Lookup(s.FD()); !ok || got != s {
		t.Fatal("fd lookup failed")
	}
	if ifa.SocketCount() != 1 {
		t.Fatalf("count = %d", ifa.SocketCount())
	}
	s.Close()
	if _, ok := ifa.Lookup(s.FD()); ok {
		t.Fatal("closed fd still resolvable")
	}
	if ifa.SocketCount() != 0 {
		t.Fatalf("count = %d", ifa.SocketCount())
	}
}

func TestFootprintUDCheaperThanRC(t *testing.T) {
	ifa, ifb, _ := simPair(t, simnet.Config{StreamBufSize: 16 << 10}, Config{})
	ud, err := ifa.Socket(DatagramSocket)
	if err != nil {
		t.Fatal(err)
	}
	defer ud.Close()

	l, _ := ifb.Listen(0)
	defer l.Close()
	ch := make(chan *Socket, 1)
	go func() {
		s, err := l.Accept()
		if err == nil {
			ch <- s
		}
	}()
	rc, _ := ifa.Socket(StreamSocket)
	defer rc.Close()
	if err := rc.Connect(l.Addr()); err != nil {
		t.Fatal(err)
	}
	srv := <-ch
	defer srv.Close()

	udf, rcf := ud.Footprint(), rc.Footprint()
	if udf <= 0 || rcf <= 0 {
		t.Fatalf("footprints %d %d", udf, rcf)
	}
	if udf >= rcf {
		t.Fatalf("UD socket (%d B) should be cheaper than RC socket (%d B)", udf, rcf)
	}
	t.Logf("UD %d B vs RC %d B (saving %.1f%%)", udf, rcf, 100*float64(rcf-udf)/float64(rcf))
}

func TestDatagramOverLossySocket(t *testing.T) {
	ifa, ifb, net := simPair(t, simnet.Config{Seed: 3}, Config{})
	sa, _ := ifa.Socket(DatagramSocket)
	defer sa.Close()
	sb, _ := ifb.Socket(DatagramSocket)
	defer sb.Close()
	net.SetLossRate(1.0)
	if err := sa.SendTo([]byte("vanishes"), sb.LocalAddr()); err != nil {
		t.Fatal(err) // send succeeds: fire and forget
	}
	if _, _, err := sb.RecvFrom(make([]byte, 16), 100*time.Millisecond); !errors.Is(err, transport.ErrTimeout) {
		t.Fatalf("err = %v", err)
	}
	net.SetLossRate(0)
	if err := sa.SendTo([]byte("arrives"), sb.LocalAddr()); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 16)
	if n, _, err := sb.RecvFrom(buf, time.Second); err != nil || string(buf[:n]) != "arrives" {
		t.Fatalf("%q %v", buf[:n], err)
	}
}

func TestReliableDatagramSocket(t *testing.T) {
	net := simnet.New(simnet.Config{LossRate: 0.2, Seed: 31})
	ifa := newSim(net, "a", Config{Reliable: true})
	ifb := newSim(net, "b", Config{Reliable: true})
	sa, _ := ifa.Socket(DatagramSocket)
	defer sa.Close()
	sb, _ := ifb.Socket(DatagramSocket)
	defer sb.Close()
	for i := 0; i < 30; i++ {
		if err := sa.SendTo([]byte{byte(i)}, sb.LocalAddr()); err != nil {
			t.Fatal(err)
		}
	}
	buf := make([]byte, 8)
	for i := 0; i < 30; i++ {
		n, _, err := sb.RecvFrom(buf, 5*time.Second)
		if err != nil || n != 1 || buf[0] != byte(i) {
			t.Fatalf("msg %d: n=%d b=%d err=%v", i, n, buf[0], err)
		}
	}
}

func TestStreamWriteRecordProfile(t *testing.T) {
	cfg := Config{StreamWriteRecord: true, RingSize: 64 << 10}
	ifa, ifb, _ := simPair(t, simnet.Config{}, cfg)
	l, err := ifb.Listen(0)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	ch := make(chan *Socket, 1)
	go func() {
		s, err := l.Accept()
		if err == nil {
			ch <- s
		}
	}()
	cli, err := ifa.Socket(StreamSocket)
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	if err := cli.Connect(l.Addr()); err != nil {
		t.Fatal(err)
	}
	srv := <-ch
	defer srv.Close()

	// Small message: buffered-copy path.
	if err := cli.Send([]byte("tiny")); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 128<<10)
	n, err := srv.Recv(buf, time.Second)
	if err != nil || string(buf[:n]) != "tiny" {
		t.Fatalf("%q %v", buf[:n], err)
	}

	// Large message: RDMA Write + notify through the ring, chunked to a
	// quarter ring (16 KiB) — stream semantics reassemble transparently.
	big := bytes.Repeat([]byte("payload!"), 8<<10) // 64 KiB
	go func() {
		if err := cli.Send(big); err != nil {
			t.Error(err)
		}
	}()
	var got []byte
	for len(got) < len(big) {
		n, err := srv.Recv(buf, 2*time.Second)
		if err != nil {
			t.Fatalf("after %d bytes: %v", len(got), err)
		}
		got = append(got, buf[:n]...)
	}
	if !bytes.Equal(got, big) {
		t.Fatal("large WR-profile transfer corrupt")
	}

	// Bidirectional: the server answers through its own ring path.
	go func() {
		if err := srv.Send(big[:20<<10]); err != nil {
			t.Error(err)
		}
	}()
	got = got[:0]
	for len(got) < 20<<10 {
		n, err := cli.Recv(buf, 2*time.Second)
		if err != nil {
			t.Fatalf("reverse after %d: %v", len(got), err)
		}
		got = append(got, buf[:n]...)
	}
	if !bytes.Equal(got, big[:20<<10]) {
		t.Fatal("reverse WR-profile transfer corrupt")
	}
}

func TestStreamWriteRecordManyMessages(t *testing.T) {
	// Sustained traffic exercises ring wraparound and the credit loop.
	cfg := Config{StreamWriteRecord: true, RingSize: 32 << 10}
	ifa, ifb, _ := simPair(t, simnet.Config{}, cfg)
	l, _ := ifb.Listen(0)
	defer l.Close()
	ch := make(chan *Socket, 1)
	go func() {
		s, err := l.Accept()
		if err == nil {
			ch <- s
		}
	}()
	cli, _ := ifa.Socket(StreamSocket)
	defer cli.Close()
	if err := cli.Connect(l.Addr()); err != nil {
		t.Fatal(err)
	}
	srv := <-ch
	defer srv.Close()

	const msgs = 64
	msg := bytes.Repeat([]byte{0xAB}, 3000)
	done := make(chan error, 1)
	go func() {
		for i := 0; i < msgs; i++ {
			m := append([]byte{byte(i)}, msg...)
			if err := cli.Send(m); err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()
	buf := make([]byte, 8192)
	var total int
	for total < msgs*(len(msg)+1) {
		n, err := srv.Recv(buf, 2*time.Second)
		if err != nil {
			t.Fatalf("after %d bytes: %v", total, err)
		}
		total += n
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}
