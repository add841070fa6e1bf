package transport

import (
	"bytes"
	"errors"
	"io"
	"testing"
	"time"
)

// TestAddrString pins the edge: ResolveAddr turns text into the value every
// layer compares, a 4-in-6 spelling lands on the same IPv4 Addr, the value
// renders back as its text, and the zero Addr is the invalid "no peer".
func TestAddrString(t *testing.T) {
	a, err := ResolveAddr("10.0.0.1:4096")
	if err != nil {
		t.Fatal(err)
	}
	if a.String() != "10.0.0.1:4096" {
		t.Fatalf("got %q", a.String())
	}
	if m, err := ResolveAddr("[::ffff:10.0.0.1]:4096"); err != nil || m != a {
		t.Fatalf("4-in-6 spelling resolved to %v, %v; want %v", m, err, a)
	}
	if v6, err := ResolveAddr("[::1]:80"); err != nil || v6.String() != "[::1]:80" {
		t.Fatalf("IPv6 resolved to %v, %v", v6, err)
	}
	if !a.IsValid() || (Addr{}).IsValid() {
		t.Fatal("validity: a set address must be valid and the zero Addr not")
	}
	if _, err := ResolveAddr("10.0.0.1"); err == nil {
		t.Fatal("an address without a port resolved")
	}
}

func TestUDPEndpointRoundTrip(t *testing.T) {
	a, err := ListenUDP("127.0.0.1", 0)
	if err != nil {
		t.Skipf("no loopback UDP: %v", err)
	}
	defer a.Close()
	b, err := ListenUDP("127.0.0.1", 0)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	if a.MaxDatagram() != MaxDatagramSize || a.PathMTU() != DefaultMTU {
		t.Fatalf("limits: %d %d", a.MaxDatagram(), a.PathMTU())
	}
	msg := []byte("over real loopback")
	if err := a.SendTo(msg, b.LocalAddr()); err != nil {
		t.Fatal(err)
	}
	got, from, err := b.Recv(2 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, msg) {
		t.Fatalf("got %q", got)
	}
	if from != a.LocalAddr() {
		t.Fatalf("from = %v, want %v", from, a.LocalAddr())
	}
}

func TestUDPEndpointSendBatch(t *testing.T) {
	a, err := ListenUDP("127.0.0.1", 0)
	if err != nil {
		t.Skipf("no loopback UDP: %v", err)
	}
	defer a.Close()
	b, err := ListenUDP("127.0.0.1", 0)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	pkts := [][]byte{[]byte("seg0"), []byte("seg1"), []byte("seg2")}
	n, err := a.SendBatch(pkts, b.LocalAddr())
	if err != nil {
		t.Fatal(err)
	}
	if n != len(pkts) {
		t.Fatalf("SendBatch sent %d, want %d", n, len(pkts))
	}
	seen := map[string]bool{}
	for range pkts {
		got, _, err := b.Recv(2 * time.Second)
		if err != nil {
			t.Fatal(err)
		}
		seen[string(got)] = true
	}
	for _, p := range pkts {
		if !seen[string(p)] {
			t.Fatalf("packet %q never arrived", p)
		}
	}
	// Oversized packets must be rejected before anything hits the wire.
	if n, err := a.SendBatch([][]byte{{1}, make([]byte, MaxDatagramSize+1)}, b.LocalAddr()); n != 0 || !errors.Is(err, ErrTooLarge) {
		t.Fatalf("oversized batch: n=%d err=%v", n, err)
	}
}

func TestUDPEndpointTimeout(t *testing.T) {
	a, err := ListenUDP("127.0.0.1", 0)
	if err != nil {
		t.Skipf("no loopback UDP: %v", err)
	}
	defer a.Close()
	if _, _, err := a.Recv(20 * time.Millisecond); !errors.Is(err, ErrTimeout) {
		t.Fatalf("err = %v", err)
	}
}

func TestUDPEndpointTooLarge(t *testing.T) {
	a, err := ListenUDP("127.0.0.1", 0)
	if err != nil {
		t.Skipf("no loopback UDP: %v", err)
	}
	defer a.Close()
	err = a.SendTo(make([]byte, MaxDatagramSize+1), a.LocalAddr())
	if !errors.Is(err, ErrTooLarge) {
		t.Fatalf("err = %v", err)
	}
}

func TestUDPEndpointClosed(t *testing.T) {
	a, err := ListenUDP("127.0.0.1", 0)
	if err != nil {
		t.Skipf("no loopback UDP: %v", err)
	}
	a.Close()
	if _, _, err := a.Recv(time.Second); !errors.Is(err, ErrClosed) {
		t.Fatalf("err = %v", err)
	}
}

func TestTCPRoundTrip(t *testing.T) {
	l, err := ListenTCP("127.0.0.1", 0)
	if err != nil {
		t.Skipf("no loopback TCP: %v", err)
	}
	defer l.Close()
	done := make(chan struct{})
	go func() {
		defer close(done)
		s, err := l.Accept()
		if err != nil {
			t.Error(err)
			return
		}
		defer s.Close()
		buf := make([]byte, 4)
		if _, err := io.ReadFull(s, buf); err != nil {
			t.Error(err)
			return
		}
		if _, err := s.Write(bytes.ToUpper(buf)); err != nil {
			t.Error(err)
		}
	}()
	c, err := DialTCP(l.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Write([]byte("ping")); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 4)
	if _, err := io.ReadFull(c, buf); err != nil {
		t.Fatal(err)
	}
	if string(buf) != "PING" {
		t.Fatalf("got %q", buf)
	}
	<-done
}
