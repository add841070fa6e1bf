package simnet

import (
	"bytes"
	"errors"
	"io"
	"math"
	"net/netip"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/faultnet"
	"repro/internal/transport"
)

func TestDatagramRoundTrip(t *testing.T) {
	n := New(Config{})
	a, err := n.OpenDatagram("a", 0)
	if err != nil {
		t.Fatal(err)
	}
	b, err := n.OpenDatagram("b", 7000)
	if err != nil {
		t.Fatal(err)
	}
	msg := []byte("hello datagram world")
	if err := a.SendTo(msg, b.LocalAddr()); err != nil {
		t.Fatal(err)
	}
	got, from, err := b.Recv(time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, msg) {
		t.Fatalf("payload = %q", got)
	}
	if from != a.LocalAddr() {
		t.Fatalf("from = %v, want %v", from, a.LocalAddr())
	}
	if b.LocalAddr().Port() != 7000 {
		t.Fatalf("bound port = %d", b.LocalAddr().Port())
	}
}

func TestDatagramPayloadIsolated(t *testing.T) {
	n := New(Config{})
	a, _ := n.OpenDatagram("a", 0)
	b, _ := n.OpenDatagram("b", 0)
	msg := []byte("mutate me")
	if err := a.SendTo(msg, b.LocalAddr()); err != nil {
		t.Fatal(err)
	}
	msg[0] = 'X' // sender reuses its buffer immediately
	got, _, err := b.Recv(time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != 'm' {
		t.Fatal("receiver saw sender's buffer mutation; payload must be copied")
	}
}

func TestDatagramRecvTimeout(t *testing.T) {
	n := New(Config{})
	a, _ := n.OpenDatagram("a", 0)
	start := time.Now()
	_, _, err := a.Recv(20 * time.Millisecond)
	if !errors.Is(err, transport.ErrTimeout) {
		t.Fatalf("err = %v", err)
	}
	if time.Since(start) < 15*time.Millisecond {
		t.Fatal("returned before the deadline")
	}
}

// TestTimeoutNeverHidesQueuedData: a receive whose deadline has already
// passed when a packet is queued must return the packet. select picks at
// random among ready cases, so without the last look after the timer fires
// about half of these iterations report ErrTimeout with data queued — on a
// stack whose loss signal is the receive timeout.
func TestTimeoutNeverHidesQueuedData(t *testing.T) {
	fired := make(chan time.Time)
	close(fired) // a timer that expired before the wait began
	q := newQueue(4)
	var p [1][]byte
	var from [1]transport.Addr
	for i := 0; i < 1000; i++ {
		if _, err := q.put([]packet{{payload: []byte{byte(i)}}}); err != nil {
			t.Fatal(err)
		}
		n, err := q.popWait(p[:], from[:], fired)
		if n != 1 || err != nil || p[0][0] != byte(i) {
			t.Fatalf("iteration %d: popWait = %d, %v with a packet queued", i, n, err)
		}
	}
	if n, err := q.popWait(p[:], from[:], fired); n != 0 || !errors.Is(err, transport.ErrTimeout) {
		t.Fatalf("empty queue, expired timer: %d, %v; want 0, ErrTimeout", n, err)
	}
}

func TestDatagramNoRoute(t *testing.T) {
	n := New(Config{})
	a, _ := n.OpenDatagram("a", 0)
	err := a.SendTo([]byte("x"), netip.MustParseAddrPort("10.9.9.9:1")) // no node holds it
	if !errors.Is(err, transport.ErrNoRoute) {
		t.Fatalf("err = %v", err)
	}
}

func TestDatagramTooLarge(t *testing.T) {
	n := New(Config{})
	a, _ := n.OpenDatagram("a", 0)
	b, _ := n.OpenDatagram("b", 0)
	err := a.SendTo(make([]byte, transport.MaxDatagramSize+1), b.LocalAddr())
	if !errors.Is(err, transport.ErrTooLarge) {
		t.Fatalf("err = %v", err)
	}
}

func TestDatagramDoubleBind(t *testing.T) {
	n := New(Config{})
	if _, err := n.OpenDatagram("a", 100); err != nil {
		t.Fatal(err)
	}
	if _, err := n.OpenDatagram("a", 100); err == nil {
		t.Fatal("double bind succeeded")
	}
}

func TestDatagramCloseUnblocksRecv(t *testing.T) {
	n := New(Config{})
	a, _ := n.OpenDatagram("a", 0)
	done := make(chan error, 1)
	go func() {
		_, _, err := a.Recv(0)
		done <- err
	}()
	time.Sleep(5 * time.Millisecond)
	a.Close()
	select {
	case err := <-done:
		if !errors.Is(err, transport.ErrClosed) {
			t.Fatalf("err = %v", err)
		}
	case <-time.After(time.Second):
		t.Fatal("Recv did not unblock on Close")
	}
}

func TestDatagramDrainAfterClose(t *testing.T) {
	n := New(Config{})
	a, _ := n.OpenDatagram("a", 0)
	b, _ := n.OpenDatagram("b", 0)
	if err := a.SendTo([]byte("queued"), b.LocalAddr()); err != nil {
		t.Fatal(err)
	}
	b.Close()
	got, _, err := b.Recv(time.Second)
	if err != nil || string(got) != "queued" {
		t.Fatalf("drain after close: %q %v", got, err)
	}
	if _, _, err := b.Recv(time.Second); !errors.Is(err, transport.ErrClosed) {
		t.Fatalf("err = %v", err)
	}
}

func TestFragmentsMath(t *testing.T) {
	n := New(Config{MTU: 1500})
	cases := []struct{ sz, want int }{
		{0, 1}, {1, 1}, {1472, 1}, {1473, 2}, {2944, 2}, {2945, 3}, {65507, 45},
	}
	for _, c := range cases {
		if got := n.fragments(c.sz); got != c.want {
			t.Errorf("fragments(%d) = %d, want %d", c.sz, got, c.want)
		}
	}
}

// A datagram spanning k fragments should survive with probability (1-p)^k;
// check the simulator's loss model statistically.
func TestLossModelStatistics(t *testing.T) {
	const p = 0.05
	n := New(Config{LossRate: p, Seed: 7})
	a, _ := n.OpenDatagram("a", 0)
	b, _ := n.OpenDatagram("b", 0)

	const trials = 4000
	payload := make([]byte, 4000) // 3 fragments at MTU 1500
	wantSurvival := math.Pow(1-p, 3)
	delivered := 0
	for i := 0; i < trials; i++ {
		if err := a.SendTo(payload, b.LocalAddr()); err != nil {
			t.Fatal(err)
		}
	}
	for {
		_, _, err := b.Recv(20 * time.Millisecond)
		if err != nil {
			break
		}
		delivered++
	}
	got := float64(delivered) / trials
	if math.Abs(got-wantSurvival) > 0.03 {
		t.Fatalf("survival rate %.3f, want ≈ %.3f", got, wantSurvival)
	}
	c := n.Counters()
	if c.DatagramsSent != trials || c.DatagramsLost != trials-int64(delivered) {
		t.Fatalf("counters: %+v delivered=%d", c, delivered)
	}
	if c.FragmentsSent != trials*3 {
		t.Fatalf("FragmentsSent = %d", c.FragmentsSent)
	}
}

func TestSetLossRateRuntime(t *testing.T) {
	n := New(Config{})
	a, _ := n.OpenDatagram("a", 0)
	b, _ := n.OpenDatagram("b", 0)
	n.SetLossRate(1.0)
	if err := a.SendTo([]byte("x"), b.LocalAddr()); err != nil {
		t.Fatal(err)
	}
	if _, _, err := b.Recv(20 * time.Millisecond); !errors.Is(err, transport.ErrTimeout) {
		t.Fatalf("expected total loss, got %v", err)
	}
	n.SetLossRate(0)
	if err := a.SendTo([]byte("y"), b.LocalAddr()); err != nil {
		t.Fatal(err)
	}
	if got, _, err := b.Recv(time.Second); err != nil || string(got) != "y" {
		t.Fatalf("after reset: %q %v", got, err)
	}
}

// TestDuplication: a duplicating fault layer over a simnet endpoint
// delivers one send twice, each copy intact.
func TestDuplication(t *testing.T) {
	n := New(Config{})
	raw, _ := n.OpenDatagram("a", 0)
	a := faultnet.Wrap(raw, faultnet.Config{DupRate: 1.0})
	b, _ := n.OpenDatagram("b", 0)
	if err := a.SendTo([]byte("twice"), b.LocalAddr()); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		got, _, err := b.Recv(time.Second)
		if err != nil || string(got) != "twice" {
			t.Fatalf("copy %d: %q %v", i, got, err)
		}
	}
}

// TestReordering: a reordering fault layer over a simnet endpoint delivers
// every datagram exactly once, and not in the order sent.
func TestReordering(t *testing.T) {
	n := New(Config{})
	raw, _ := n.OpenDatagram("a", 0)
	a := faultnet.Wrap(raw, faultnet.Config{ReorderRate: 0.3, ReorderSpan: 3, Seed: 2})
	b, _ := n.OpenDatagram("b", 0)
	const count = 64
	for i := 0; i < count; i++ {
		if err := a.SendTo([]byte{byte(i)}, b.LocalAddr()); err != nil {
			t.Fatal(err)
		}
	}
	a.ReleaseHeld()
	seen, inversions := make(map[byte]bool), 0
	prev := -1
	for i := 0; i < count; i++ {
		got, _, err := b.Recv(time.Second)
		if err != nil || seen[got[0]] {
			t.Fatalf("datagram %d: %v %v (seen before: %v)", i, got, err, err == nil && seen[got[0]])
		}
		seen[got[0]] = true
		if int(got[0]) < prev {
			inversions++
		}
		prev = int(got[0])
	}
	if inversions == 0 {
		t.Fatal("every datagram arrived in the order sent")
	}
}

func TestLatencyDelay(t *testing.T) {
	n := New(Config{Latency: 30 * time.Millisecond})
	a, _ := n.OpenDatagram("a", 0)
	b, _ := n.OpenDatagram("b", 0)
	start := time.Now()
	if err := a.SendTo([]byte("slow"), b.LocalAddr()); err != nil {
		t.Fatal(err)
	}
	_, _, err := b.Recv(time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d < 25*time.Millisecond {
		t.Fatalf("delivered after %v, want ≥ 30ms", d)
	}
}

func TestDeterministicSeed(t *testing.T) {
	run := func() []bool {
		n := New(Config{LossRate: 0.5, Seed: 99})
		a, _ := n.OpenDatagram("a", 0)
		b, _ := n.OpenDatagram("b", 0)
		var out []bool
		for i := 0; i < 64; i++ {
			if err := a.SendTo([]byte{byte(i)}, b.LocalAddr()); err != nil {
				t.Fatal(err)
			}
			_, _, err := b.Recv(5 * time.Millisecond)
			out = append(out, err == nil)
		}
		return out
	}
	x, y := run(), run()
	for i := range x {
		if x[i] != y[i] {
			t.Fatal("same seed produced different loss patterns")
		}
	}
}

func TestStreamRoundTrip(t *testing.T) {
	n := New(Config{})
	l, err := n.Listen("srv", 80)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		s, err := l.Accept()
		if err != nil {
			t.Error(err)
			return
		}
		buf := make([]byte, 5)
		if _, err := io.ReadFull(s, buf); err != nil {
			t.Error(err)
			return
		}
		if _, err := s.Write(append([]byte("re:"), buf...)); err != nil {
			t.Error(err)
		}
		s.Close()
	}()
	c, err := n.Dial("cli", l.Addr())
	if err != nil {
		t.Fatal(err)
	}
	if c.RemoteAddr() != l.Addr() || l.Addr().Port() != 80 {
		t.Fatalf("remote = %v", c.RemoteAddr())
	}
	if _, err := c.Write([]byte("hello")); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 8)
	if _, err := io.ReadFull(c, buf); err != nil {
		t.Fatal(err)
	}
	if string(buf) != "re:hello" {
		t.Fatalf("got %q", buf)
	}
	// After peer close and drain, reads see EOF.
	if _, err := c.Read(buf); err != io.EOF {
		t.Fatalf("err = %v, want EOF", err)
	}
	wg.Wait()
}

func TestStreamLargeTransfer(t *testing.T) {
	n := New(Config{})
	l, _ := n.Listen("srv", 0)
	const total = 4 << 20 // 16x the pipe buffer
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		s, err := l.Accept()
		if err != nil {
			t.Error(err)
			return
		}
		defer s.Close()
		buf := make([]byte, 64<<10)
		var got int
		var sum byte
		for got < total {
			k, err := s.Read(buf)
			if err != nil {
				t.Errorf("read: %v", err)
				return
			}
			for _, x := range buf[:k] {
				sum ^= x
			}
			got += k
		}
		if _, err := s.Write([]byte{sum}); err != nil {
			t.Error(err)
		}
	}()
	c, err := n.Dial("cli", l.Addr())
	if err != nil {
		t.Fatal(err)
	}
	chunk := make([]byte, 128<<10)
	var wantSum byte
	for i := range chunk {
		chunk[i] = byte(i * 31)
	}
	for sent := 0; sent < total; sent += len(chunk) {
		if _, err := c.Write(chunk); err != nil {
			t.Fatal(err)
		}
	}
	for _, x := range chunk {
		wantSum ^= x
	}
	wantSum = 0
	for i := 0; i < total/len(chunk); i++ {
		for _, x := range chunk {
			wantSum ^= x
		}
	}
	got := make([]byte, 1)
	if _, err := io.ReadFull(c, got); err != nil {
		t.Fatal(err)
	}
	if got[0] != wantSum {
		t.Fatalf("checksum %x, want %x", got[0], wantSum)
	}
	wg.Wait()
}

func TestDialNoListener(t *testing.T) {
	n := New(Config{})
	if _, err := n.Dial("cli", netip.MustParseAddrPort("10.9.9.9:1")); !errors.Is(err, transport.ErrNoRoute) {
		t.Fatalf("err = %v", err)
	}
}

func TestListenerClose(t *testing.T) {
	n := New(Config{})
	l, _ := n.Listen("srv", 0)
	done := make(chan error, 1)
	go func() {
		_, err := l.Accept()
		done <- err
	}()
	time.Sleep(5 * time.Millisecond)
	l.Close()
	if err := <-done; !errors.Is(err, transport.ErrClosed) {
		t.Fatalf("err = %v", err)
	}
	// Port is released: listen again on same address.
	if _, err := n.Listen("srv", l.Addr().Port()); err != nil {
		t.Fatalf("relisten: %v", err)
	}
}

func TestStreamWriteAfterCloseFails(t *testing.T) {
	n := New(Config{})
	l, _ := n.Listen("srv", 0)
	go func() {
		s, _ := l.Accept()
		if s != nil {
			s.Close()
		}
	}()
	c, err := n.Dial("cli", l.Addr())
	if err != nil {
		t.Fatal(err)
	}
	// Wait for peer close to propagate, then writes eventually fail.
	deadline := time.Now().Add(time.Second)
	for time.Now().Before(deadline) {
		if _, err := c.Write(make([]byte, 64<<10)); err != nil {
			if !errors.Is(err, transport.ErrClosed) {
				t.Fatalf("err = %v", err)
			}
			return
		}
	}
	t.Fatal("writes to a closed peer never failed")
}

func TestBackpressure(t *testing.T) {
	n := New(Config{QueueLen: 2})
	a, _ := n.OpenDatagram("a", 0)
	b, _ := n.OpenDatagram("b", 0)
	// Fill the queue; the third send must block until we drain.
	for i := 0; i < 2; i++ {
		if err := a.SendTo([]byte{byte(i)}, b.LocalAddr()); err != nil {
			t.Fatal(err)
		}
	}
	blocked := make(chan error, 1)
	go func() { blocked <- a.SendTo([]byte{9}, b.LocalAddr()) }()
	select {
	case err := <-blocked:
		t.Fatalf("third send did not block (err=%v)", err)
	case <-time.After(20 * time.Millisecond):
	}
	if _, _, err := b.Recv(time.Second); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-blocked:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(time.Second):
		t.Fatal("send remained blocked after drain")
	}
}

func TestLatencyDeliveryToClosedEndpointCountsLost(t *testing.T) {
	n := New(Config{Latency: 20 * time.Millisecond})
	a, err := n.OpenDatagram("a", 0)
	if err != nil {
		t.Fatal(err)
	}
	b, err := n.OpenDatagram("b", 0)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	if err := a.SendTo([]byte("in flight"), b.LocalAddr()); err != nil {
		t.Fatal(err)
	}
	// The datagram is scheduled but not yet delivered; closing the
	// destination now strands it mid-flight.
	b.Close()
	deadline := time.Now().Add(2 * time.Second)
	for n.Counters().DatagramsLost == 0 {
		if time.Now().After(deadline) {
			t.Fatal("datagram stranded by endpoint close was never counted as lost")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestNodeNamesIntern pins how nodes become addresses: an IP literal is
// itself (a 4-in-6 spelling unmapped), any other name takes the next free
// 10.0.0.0/8 address in first-use order — skipping one a literal already
// holds — and one node keeps one address across datagram and stream use.
func TestNodeNamesIntern(t *testing.T) {
	n := New(Config{})
	host := func(node string) netip.Addr {
		t.Helper()
		ep, err := n.OpenDatagram(node, 0)
		if err != nil {
			t.Fatal(err)
		}
		return ep.LocalAddr().Addr()
	}
	for _, c := range []struct{ node, want string }{
		{"a", "10.0.0.1"},
		{"10.0.0.2", "10.0.0.2"},
		{"b", "10.0.0.3"},
		{"a", "10.0.0.1"},
		{"::ffff:192.0.2.1", "192.0.2.1"},
		{"2001:db8::1", "2001:db8::1"},
	} {
		if got := host(c.node); got != netip.MustParseAddr(c.want) {
			t.Fatalf("node %q at %v, want %s", c.node, got, c.want)
		}
	}
	l, err := n.Listen("b", 0)
	if err != nil {
		t.Fatal(err)
	}
	if l.Addr().Addr() != netip.MustParseAddr("10.0.0.3") {
		t.Fatalf("listener on b at %v, want b's 10.0.0.3", l.Addr())
	}
	if fresh, _ := New(Config{}).OpenDatagram("b", 0); fresh.LocalAddr().Addr() != netip.MustParseAddr("10.0.0.1") {
		t.Fatalf("a fresh network's first name at %v: names intern per Network", fresh.LocalAddr())
	}
}

// TestLossDrawsGolden pins the loss model's draws: which of the first
// 10 000 single-fragment datagrams a Seed 1, LossRate 0.01 network drops.
// Every loss-rate experiment (Figures 7/8, the benchmark's lossy workload)
// replays exactly this sequence, so a change to the draws shows here
// before it shifts a measured curve.
func TestLossDrawsGolden(t *testing.T) {
	golden := []int{87, 151, 156, 211, 290, 538, 587, 635, 648, 723, 785, 906, 915, 1105, 1171, 1290, 1298, 1436, 1499, 1509, 1566, 1603, 1677, 1679, 1776, 1892, 1973, 2045, 2073, 2196, 2474, 2479, 2527, 2935, 2971, 3040, 3167, 3252, 3257, 3437, 3465, 3537, 3586, 3601, 3643, 3836, 3953, 3955, 4132, 4241, 4575, 4613, 4693, 4917, 5363, 5390, 5468, 5513, 5547, 5562, 5564, 5624, 5701, 6273, 6578, 6605, 6624, 6648, 6672, 6699, 6773, 6901, 7000, 7125, 7142, 7172, 7199, 7214, 7618, 7687, 7871, 8030, 8407, 8481, 9129, 9197, 9198, 9209, 9281, 9324, 9338, 9377, 9541, 9769, 9791, 9920, 9924, 9958, 9967}
	const sends = 10000
	n := New(Config{LossRate: 0.01, Seed: 1, QueueLen: sends})
	a, _ := n.OpenDatagram("a", 0)
	b, _ := n.OpenDatagram("b", 0)
	for i := 0; i < sends; i++ {
		if err := a.SendTo([]byte{byte(i >> 8), byte(i)}, b.LocalAddr()); err != nil {
			t.Fatal(err)
		}
	}
	var dropped []int
	next := 0
	for {
		p, _, err := b.Recv(noWait)
		if err != nil {
			break
		}
		for seq := int(p[0])<<8 | int(p[1]); next < seq; next++ {
			dropped = append(dropped, next)
		}
		next++
	}
	for ; next < sends; next++ {
		dropped = append(dropped, next)
	}
	if !slices.Equal(dropped, golden) {
		t.Fatalf("dropped %d datagrams %v\nwant %d %v", len(dropped), dropped, len(golden), golden)
	}
}
