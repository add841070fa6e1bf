package media

import (
	"testing"
	"time"

	"repro/internal/simnet"
	"repro/internal/sockif"
	"repro/internal/transport"
)

func TestClipFrames(t *testing.T) {
	c := NewClip(3000)
	if c.Frames() != 3 { // 1316 + 1316 + 368
		t.Fatalf("Frames = %d", c.Frames())
	}
	buf := make([]byte, DefaultFrameSize)
	if n := c.Frame(0, buf); n != 1316 {
		t.Fatalf("frame 0 len %d", n)
	}
	if n := c.Frame(2, buf); n != 368 {
		t.Fatalf("frame 2 len %d", n)
	}
	if n := c.Frame(3, buf); n != 0 {
		t.Fatalf("frame past end len %d", n)
	}
}

func TestClipDeterministicAndVerifiable(t *testing.T) {
	c := NewClip(10000)
	a := make([]byte, DefaultFrameSize)
	b := make([]byte, DefaultFrameSize)
	n1 := c.Frame(3, a)
	n2 := c.Frame(3, b)
	if n1 != n2 {
		t.Fatal("nondeterministic length")
	}
	if !c.VerifyFrame(3, a[:n1]) {
		t.Fatal("self-verification failed")
	}
	a[5] ^= 1
	if c.VerifyFrame(3, a[:n1]) {
		t.Fatal("corrupt frame verified")
	}
}

func mediaSetup(t *testing.T, cfg sockif.Config) (*sockif.Interface, *sockif.Interface) {
	t.Helper()
	net := simnet.New(simnet.Config{})
	return simSockets(net, "server", cfg), simSockets(net, "client", cfg)
}

func TestUDPStreamingPreBuffer(t *testing.T) {
	ifSrv, ifCli := mediaSetup(t, sockif.Config{RecvBufSize: 2048, RecvBufCount: 512})
	clip := NewClip(500 << 10)

	ss, err := ifSrv.BindDatagram(1234)
	if err != nil {
		t.Fatal(err)
	}
	defer ss.Close()
	cs, err := ifCli.Socket(sockif.DatagramSocket)
	if err != nil {
		t.Fatal(err)
	}
	defer cs.Close()

	srvErr := make(chan error, 1)
	go func() { srvErr <- ServeUDP(ss, clip, 5*time.Second) }()

	d, got, err := PreBufferUDP(cs, ss.LocalAddr(), 256<<10, false, 10*time.Second)
	if err != nil {
		t.Fatalf("prebuffer: %v (got %d)", err, got)
	}
	if d <= 0 || got < 256<<10 {
		t.Fatalf("d=%v got=%d", d, got)
	}
	if err := <-srvErr; err != nil {
		t.Fatalf("server: %v", err)
	}
}

func TestUDPStreamingWriteRecordMode(t *testing.T) {
	ifSrv, ifCli := mediaSetup(t, sockif.Config{RecvBufSize: 2048, RecvBufCount: 512, RingSize: 256 << 10})
	clip := NewClip(300 << 10)

	ss, _ := ifSrv.BindDatagram(1234)
	defer ss.Close()
	cs, _ := ifCli.Socket(sockif.DatagramSocket)
	defer cs.Close()

	srvErr := make(chan error, 1)
	go func() { srvErr <- ServeUDP(ss, clip, 5*time.Second) }()

	d, got, err := PreBufferUDP(cs, ss.LocalAddr(), 128<<10, true, 10*time.Second)
	if err != nil {
		t.Fatalf("prebuffer: %v (got %d)", err, got)
	}
	if d <= 0 || got < 128<<10 {
		t.Fatalf("d=%v got=%d", d, got)
	}
	if err := <-srvErr; err != nil {
		t.Fatalf("server: %v", err)
	}
}

func TestHTTPStreamingPreBuffer(t *testing.T) {
	ifSrv, ifCli := mediaSetup(t, sockif.Config{RecvBufSize: 2048, RecvBufCount: 512})
	clip := NewClip(500 << 10)

	l, err := ifSrv.Listen(8080)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	srvErr := make(chan error, 1)
	go func() { srvErr <- ServeHTTP(l, clip) }()

	cs, err := ifCli.Socket(sockif.StreamSocket)
	if err != nil {
		t.Fatal(err)
	}
	defer cs.Close()
	if err := cs.Connect(l.Addr()); err != nil {
		t.Fatal(err)
	}
	d, got, err := PreBufferHTTP(cs, 256<<10, 10*time.Second)
	if err != nil {
		t.Fatalf("prebuffer: %v (got %d)", err, got)
	}
	if d <= 0 || got < 256<<10 {
		t.Fatalf("d=%v got=%d", d, got)
	}
	if err := <-srvErr; err != nil {
		t.Fatalf("server: %v", err)
	}
}

func TestHTTPRejectsBadRequest(t *testing.T) {
	ifSrv, ifCli := mediaSetup(t, sockif.Config{})
	l, _ := ifSrv.Listen(8080)
	defer l.Close()
	done := make(chan error, 1)
	go func() { done <- ServeHTTP(l, NewClip(1000)) }()
	cs, _ := ifCli.Socket(sockif.StreamSocket)
	defer cs.Close()
	if err := cs.Connect(l.Addr()); err != nil {
		t.Fatal(err)
	}
	if err := cs.Send([]byte("DELETE /stream HTTP/1.1\r\n\r\n")); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err == nil {
		t.Fatal("bad request accepted")
	}
}

func TestNativeUDPBaseline(t *testing.T) {
	net := simnet.New(simnet.Config{})
	srvEp, err := net.OpenDatagram("server", 0)
	if err != nil {
		t.Fatal(err)
	}
	defer srvEp.Close()
	cliEp, err := net.OpenDatagram("client", 0)
	if err != nil {
		t.Fatal(err)
	}
	defer cliEp.Close()
	clip := NewClip(200 << 10)
	done := make(chan error, 1)
	go func() { done <- ServeNativeUDP(srvEp, clip, 5*time.Second) }()
	d, got, err := PreBufferNativeUDP(cliEp, srvEp.LocalAddr(), 100<<10, 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if d <= 0 || got < 100<<10 {
		t.Fatalf("d=%v got=%d", d, got)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

// simSockets builds a socket interface whose endpoints live on node of a
// simulated network.
func simSockets(net *simnet.Network, node string, cfg sockif.Config) *sockif.Interface {
	cfg.OpenDatagram = func(port uint16) (transport.Datagram, error) { return net.OpenDatagram(node, port) }
	cfg.Listen = func(port uint16) (transport.Listener, error) { return net.Listen(node, port) }
	cfg.Dial = func(to transport.Addr) (transport.Stream, error) { return net.Dial(node, to) }
	return sockif.New(cfg)
}
