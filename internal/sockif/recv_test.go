package sockif

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	iwarp "repro/internal/core"
	"repro/internal/memreg"
	"repro/internal/nio"
	"repro/internal/simnet"
	"repro/internal/telemetry"
)

// waitFor polls cond until it holds or two seconds pass.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestSpoofedAdvisoriesDoNotStallSocket: at Figure 11's socket config, a
// third node sprays one-byte Write-Records at guessed STags while the
// application is not reading. Each miss is an advisory completion. The
// socket counts them and keeps no queue they can fill, so the receive
// completions that follow are not lost with their slab buffers, and every
// later legitimate datagram arrives.
func TestSpoofedAdvisoriesDoNotStallSocket(t *testing.T) {
	net := simnet.New(simnet.Config{})
	cfg := Config{RecvBufSize: 2048, RecvBufCount: 2}
	sa, err := newSim(net, "a", cfg).Socket(DatagramSocket)
	if err != nil {
		t.Fatal(err)
	}
	defer sa.Close()
	sb, err := newSim(net, "b", cfg).Socket(DatagramSocket)
	if err != nil {
		t.Fatal(err)
	}
	defer sb.Close()

	ep, err := net.OpenDatagram("spoofer", 0)
	if err != nil {
		t.Fatal(err)
	}
	cq := iwarp.NewCQ(0)
	spoofer, err := iwarp.OpenUD(ep, memreg.NewPD(), memreg.NewTable(), cq, cq, iwarp.UDConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer spoofer.Close()
	const spoofs = 200
	for i := 0; i < spoofs; i++ {
		guess := memreg.STag(i<<8 | 0xA5) // a slot index and an 8-bit key
		if err := spoofer.PostWriteRecord(uint64(i), sb.LocalAddr(), guess, 0, nio.VecOf([]byte{1})); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, "the spoofed Write-Records", func() bool { return sb.udqp.Stats().PlaceErrors == spoofs })

	// Two datagrams land in the slab while the application is still away.
	const legit = 6
	send := func(i int) {
		if err := sa.SendTo([]byte(fmt.Sprintf("legit %d", i)), sb.LocalAddr()); err != nil {
			t.Fatal(err)
		}
	}
	send(0)
	send(1)
	waitFor(t, "two placed datagrams", func() bool { return sb.udqp.Stats().MsgsReceived == 2 })
	delivered := 0
	buf := make([]byte, 64)
	recv := func(i int) {
		n, _, err := sb.RecvFrom(buf, 300*time.Millisecond)
		if err == nil && string(buf[:n]) == fmt.Sprintf("legit %d", i) {
			delivered++
		}
	}
	recv(0)
	recv(1)
	for i := 2; i < legit; i++ {
		send(i)
		recv(i)
	}
	if delivered != legit {
		t.Fatalf("delivered %d of %d legitimate datagrams after the spoof", delivered, legit)
	}
	if got := sb.stats.advisories.Load(); got != spoofs {
		t.Fatalf("advisories counted %d, want %d", got, spoofs)
	}
}

// TestSocketRecvAllocFree: a warm 1 KiB SendTo→RecvFrom over simnet copies
// the datagram once, from the slab into the caller's buffer, and allocates
// nothing — neither a per-message copy nor a timer for the wait.
func TestSocketRecvAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's sync.Pool drops Puts at random")
	}
	ifa, ifb, _ := simPair(t, simnet.Config{}, Config{})
	sa, err := ifa.Socket(DatagramSocket)
	if err != nil {
		t.Fatal(err)
	}
	defer sa.Close()
	sb, err := ifb.Socket(DatagramSocket)
	if err != nil {
		t.Fatal(err)
	}
	defer sb.Close()
	to := sb.LocalAddr()
	payload := bytes.Repeat([]byte{7}, 1024)
	buf := make([]byte, 2048)
	roundTrip := func() {
		if err := sa.SendTo(payload, to); err != nil {
			t.Fatal(err)
		}
		if n, _, err := sb.RecvFrom(buf, 2*time.Second); err != nil || n != len(payload) {
			t.Fatalf("n=%d err=%v", n, err)
		}
	}
	// Warm the pools and the wait timer, and intern both peers: the first
	// sampled message renders each address once.
	for i := 0; i < 2*telemetry.SampleEvery; i++ {
		roundTrip()
	}
	if allocs := testing.AllocsPerRun(500, roundTrip); allocs != 0 {
		t.Fatalf("socket send+receive allocates %.2f times per message, want 0", allocs)
	}
}

// TestStreamPartialReadsHoldSlab: Recv buffers smaller than a message
// return the stream in byte order, and a partly read message keeps its
// slab buffer. With a one-buffer slab the next message cannot be placed
// until the first is drained.
func TestStreamPartialReadsHoldSlab(t *testing.T) {
	ifa, ifb, _ := simPair(t, simnet.Config{}, Config{RecvBufCount: 1})
	l, err := ifb.Listen(0)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	ch := make(chan *Socket, 1)
	go func() {
		if s, err := l.Accept(); err == nil {
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

	const first, second = "abcdefghij", "klmnop"
	for _, m := range []string{first, second} {
		if err := cli.Send([]byte(m)); err != nil {
			t.Fatal(err)
		}
	}
	var got []byte
	buf := make([]byte, 4)
	read := func() {
		n, err := srv.Recv(buf, time.Second)
		if err != nil {
			t.Fatalf("after %q: %v", got, err)
		}
		got = append(got, buf[:n]...)
	}
	read()
	time.Sleep(50 * time.Millisecond) // room for the second message to land, if a buffer were free
	if n := srv.rcqp.Stats().MsgsReceived; n != 1 {
		t.Fatalf("QP received %d messages while the first was partly read, want 1: its slab buffer went back early", n)
	}
	for len(got) < len(first)+len(second) {
		read()
	}
	if string(got) != first+second {
		t.Fatalf("stream read back %q, want %q", got, first+second)
	}
}
