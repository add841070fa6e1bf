package rudp

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/faultnet"
	"repro/internal/simnet"
	"repro/internal/transport"
)

func pair(t *testing.T, cfg simnet.Config) (*Endpoint, *Endpoint) {
	return faultPair(t, cfg, nil)
}

// faultPair is pair with faultnet between each endpoint and the wire, for
// the impairments simnet does not model; the two directions draw from
// different seeds.
func faultPair(t *testing.T, cfg simnet.Config, fault *faultnet.Config) (*Endpoint, *Endpoint) {
	t.Helper()
	n := simnet.New(cfg)
	var inner [2]transport.Datagram
	for i, node := range []string{"a", "b"} {
		ep, err := n.OpenDatagram(node, 0)
		if err != nil {
			t.Fatal(err)
		}
		inner[i] = ep
		if fault != nil {
			fc := *fault
			fc.Seed += int64(i)
			inner[i] = faultnet.Wrap(ep, fc)
		}
	}
	a, b := New(inner[0]), New(inner[1])
	t.Cleanup(func() { a.Close(); b.Close() })
	return a, b
}

func TestReliableRoundTrip(t *testing.T) {
	a, b := pair(t, simnet.Config{})
	msg := []byte("reliable datagram")
	if err := a.SendTo(msg, b.LocalAddr()); err != nil {
		t.Fatal(err)
	}
	got, from, err := b.Recv(time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, msg) || from != a.LocalAddr() {
		t.Fatalf("got %q from %v", got, from)
	}
}

func TestSeqLE(t *testing.T) {
	cases := []struct {
		a, b uint32
		want bool
	}{
		{1, 1, true},
		{1, 2, true},
		{2, 1, false},
		{0xFFFFFFFF, 0, true}, // wraparound
		{0, 0xFFFFFFFF, false},
	}
	for i, c := range cases {
		if got := seqLE(c.a, c.b); got != c.want {
			t.Errorf("case %d: seqLE(%d,%d) = %v", i, c.a, c.b, got)
		}
	}
}

func TestDeliveryUnderHeavyLoss(t *testing.T) {
	a, b := pair(t, simnet.Config{LossRate: 0.3, Seed: 11})
	const count = 200
	go func() {
		for i := 0; i < count; i++ {
			payload := []byte(fmt.Sprintf("msg-%04d", i))
			if err := a.SendTo(payload, b.LocalAddr()); err != nil {
				t.Errorf("send %d: %v", i, err)
				return
			}
		}
	}()
	for i := 0; i < count; i++ {
		got, _, err := b.Recv(5 * time.Second)
		if err != nil {
			t.Fatalf("recv %d: %v", i, err)
		}
		want := fmt.Sprintf("msg-%04d", i)
		if string(got) != want {
			t.Fatalf("out of order or corrupt: got %q want %q", got, want)
		}
	}
	// Nothing extra delivered (exactly-once).
	if extra, _, err := b.Recv(50 * time.Millisecond); err == nil {
		t.Fatalf("unexpected extra delivery %q", extra)
	}
}

func TestDeliveryUnderReorderAndDup(t *testing.T) {
	a, b := faultPair(t, simnet.Config{}, &faultnet.Config{ReorderRate: 0.4, DupRate: 0.3, Seed: 5})
	const count = 100
	go func() {
		for i := 0; i < count; i++ {
			if err := a.SendTo([]byte{byte(i)}, b.LocalAddr()); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for i := 0; i < count; i++ {
		got, _, err := b.Recv(5 * time.Second)
		if err != nil {
			t.Fatalf("recv %d: %v", i, err)
		}
		if got[0] != byte(i) {
			t.Fatalf("msg %d: got %d", i, got[0])
		}
	}
	if _, _, err := b.Recv(50 * time.Millisecond); err == nil {
		t.Fatal("duplicate delivered")
	}
}

func TestBidirectional(t *testing.T) {
	a, b := pair(t, simnet.Config{LossRate: 0.1, Seed: 3})
	const count = 50
	errc := make(chan error, 2)
	go func() {
		for i := 0; i < count; i++ {
			if err := a.SendTo([]byte{1, byte(i)}, b.LocalAddr()); err != nil {
				errc <- err
				return
			}
		}
		errc <- nil
	}()
	go func() {
		for i := 0; i < count; i++ {
			if err := b.SendTo([]byte{2, byte(i)}, a.LocalAddr()); err != nil {
				errc <- err
				return
			}
		}
		errc <- nil
	}()
	for i := 0; i < count; i++ {
		if got, _, err := a.Recv(5 * time.Second); err != nil || got[0] != 2 || got[1] != byte(i) {
			t.Fatalf("a recv %d: %v %v", i, got, err)
		}
		if got, _, err := b.Recv(5 * time.Second); err != nil || got[0] != 1 || got[1] != byte(i) {
			t.Fatalf("b recv %d: %v %v", i, got, err)
		}
	}
	for i := 0; i < 2; i++ {
		if err := <-errc; err != nil {
			t.Fatal(err)
		}
	}
}

func TestFlush(t *testing.T) {
	a, b := pair(t, simnet.Config{LossRate: 0.2, Seed: 9})
	for i := 0; i < 32; i++ {
		if err := a.SendTo(make([]byte, 100), b.LocalAddr()); err != nil {
			t.Fatal(err)
		}
	}
	if err := a.Flush(5 * time.Second); err != nil {
		t.Fatalf("Flush: %v", err)
	}
}

func TestWindowBackpressure(t *testing.T) {
	// 100% loss: no ACKs ever, so at most windowSize sends proceed.
	n := simnet.New(simnet.Config{LossRate: 1.0})
	ia, _ := n.OpenDatagram("a", 0)
	ib, _ := n.OpenDatagram("b", 0)
	a, b := New(ia), New(ib)
	defer a.Close()
	defer b.Close()
	sent := make(chan int, 1)
	go func() {
		i := 0
		for ; i < windowSize+10; i++ {
			if err := a.SendTo([]byte("x"), b.LocalAddr()); err != nil {
				break
			}
		}
		sent <- i
	}()
	select {
	case n := <-sent:
		t.Fatalf("sender never blocked (sent %d)", n)
	case <-time.After(100 * time.Millisecond):
		// Blocked as expected.
	}
}

func TestPeerDeadAfterRetries(t *testing.T) {
	if testing.Short() {
		t.Skip("retry exhaustion takes seconds")
	}
	n := simnet.New(simnet.Config{LossRate: 1.0})
	ia, _ := n.OpenDatagram("a", 0)
	ib, _ := n.OpenDatagram("b", 0)
	a, b := New(ia), New(ib)
	defer a.Close()
	defer b.Close()
	if err := a.SendTo([]byte("doomed"), b.LocalAddr()); err != nil {
		t.Fatal(err)
	}
	if err := a.Flush(30 * time.Second); !errors.Is(err, ErrPeerDead) {
		t.Fatalf("Flush err = %v, want ErrPeerDead", err)
	}
}

func TestMaxDatagramReservesHeader(t *testing.T) {
	a, b := pair(t, simnet.Config{})
	if a.MaxDatagram() != transport.MaxDatagramSize-dataTrailerLen {
		t.Fatalf("MaxDatagram = %d", a.MaxDatagram())
	}
	if err := a.SendTo(make([]byte, a.MaxDatagram()+1), b.LocalAddr()); !errors.Is(err, transport.ErrTooLarge) {
		t.Fatalf("err = %v", err)
	}
}

func TestCloseUnblocksRecv(t *testing.T) {
	n := simnet.New(simnet.Config{})
	ia, _ := n.OpenDatagram("a", 0)
	a := New(ia)
	done := make(chan error, 1)
	go func() {
		_, _, err := a.Recv(0)
		done <- err
	}()
	time.Sleep(10 * time.Millisecond)
	a.Close()
	select {
	case err := <-done:
		if !errors.Is(err, transport.ErrClosed) {
			t.Fatalf("err = %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Recv did not unblock")
	}
}

// TestTimeoutNeverHidesDeliveredMessage: a receive whose deadline has
// already passed when a message sits in the delivery queue must return the
// message. select picks at random among ready cases, so without the last
// look after the timer fires about half of these iterations report
// ErrTimeout for a message rudp promised to deliver.
func TestTimeoutNeverHidesDeliveredMessage(t *testing.T) {
	n := simnet.New(simnet.Config{})
	ia, _ := n.OpenDatagram("a", 0)
	a := New(ia)
	defer a.Close()
	fired := make(chan time.Time)
	close(fired) // a timer that expired before the wait began
	var p [1][]byte
	var from [1]transport.Addr
	for i := 0; i < 1000; i++ {
		a.dq.put([]message{{payload: []byte{byte(i)}}})
		n, err := a.dq.popWait(p[:], from[:], fired)
		if err != nil || n != 1 || p[0][0] != byte(i) {
			t.Fatalf("iteration %d: popWait = %d, %v, %v with a message delivered", i, n, p[0], err)
		}
	}
	if _, err := a.dq.popWait(p[:], from[:], fired); !errors.Is(err, transport.ErrTimeout) {
		t.Fatalf("empty queue, expired timer: %v; want ErrTimeout", err)
	}
}

func TestManyMessagesRandomSizes(t *testing.T) {
	a, b := pair(t, simnet.Config{LossRate: 0.05, Seed: 21})
	rng := rand.New(rand.NewSource(4))
	const count = 100
	var sent [][]byte
	for i := 0; i < count; i++ {
		p := make([]byte, 1+rng.Intn(8000))
		rng.Read(p)
		sent = append(sent, p)
	}
	go func() {
		for _, p := range sent {
			if err := a.SendTo(p, b.LocalAddr()); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for i := 0; i < count; i++ {
		got, _, err := b.Recv(5 * time.Second)
		if err != nil {
			t.Fatalf("recv %d: %v", i, err)
		}
		if !bytes.Equal(got, sent[i]) {
			t.Fatalf("msg %d corrupted (len %d vs %d)", i, len(got), len(sent[i]))
		}
	}
}

// failingInner wraps a transport.Datagram and fails every SendTo after the
// first `allow` calls, simulating a transport that degrades mid-connection.
type failingInner struct {
	transport.Datagram
	allow atomic.Int32
}

var errInjected = errors.New("injected send failure")

func (f *failingInner) SendTo(p []byte, to transport.Addr) error {
	if f.allow.Add(-1) < 0 {
		return errInjected
	}
	return f.Datagram.SendTo(p, to)
}

// SendBatch routes the burst through SendTo, so the promoted batch method
// cannot bypass the injected failure.
func (f *failingInner) SendBatch(pkts [][]byte, to transport.Addr) (int, error) {
	for i, p := range pkts {
		if err := f.SendTo(p, to); err != nil {
			return i, err
		}
	}
	return len(pkts), nil
}

func TestSendErrorsCounted(t *testing.T) {
	n := simnet.New(simnet.Config{})
	ia, err := n.OpenDatagram("a", 0)
	if err != nil {
		t.Fatal(err)
	}
	ib, err := n.OpenDatagram("b", 0)
	if err != nil {
		t.Fatal(err)
	}
	fa := &failingInner{Datagram: ia}
	fa.allow.Store(1)                 // the initial DATA transmission goes through
	fb := &failingInner{Datagram: ib} // every ACK fails
	a, b := New(fa), New(fb)
	t.Cleanup(func() { a.Close(); b.Close() })

	if err := a.SendTo([]byte("once"), b.LocalAddr()); err != nil {
		t.Fatal(err)
	}
	// Delivery is unaffected: only the reverse (ACK) and retransmit legs
	// fail, and those have no caller to hand an error to.
	if _, _, err := b.Recv(time.Second); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for b.SendErrors() == 0 || a.SendErrors() == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("send failures not counted: a=%d (retransmits), b=%d (acks)",
				a.SendErrors(), b.SendErrors())
		}
		time.Sleep(5 * time.Millisecond)
	}
}
