package rudp

import (
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/simnet"
	"repro/internal/transport"
)

// TestSnapshotCountsLossRecovery is the satellite regression test for the
// Snapshot accessor: a lossy run must show the retransmissions that saved
// it, with the documented relation between retransmit and RTO-expiry counts
// and zero transport-send failures on a healthy inner endpoint.
func TestSnapshotCountsLossRecovery(t *testing.T) {
	a, b := pair(t, simnet.Config{LossRate: 0.3, Seed: 11})
	const count = 100
	go func() {
		for i := 0; i < count; i++ {
			if err := a.SendTo([]byte(fmt.Sprintf("msg-%03d", i)), b.LocalAddr()); err != nil {
				t.Errorf("send %d: %v", i, err)
				return
			}
		}
	}()
	for i := 0; i < count; i++ {
		if _, _, err := b.Recv(5 * time.Second); err != nil {
			t.Fatalf("recv %d: %v", i, err)
		}
	}
	if err := a.Flush(5 * time.Second); err != nil {
		t.Fatal(err)
	}

	s := a.Snapshot()
	if s.Retransmits == 0 {
		t.Fatalf("30%% loss produced no retransmits: %+v", s)
	}
	// Every retransmission is triggered by an RTO expiry or a fast
	// retransmit; expiries can exceed their share only by fatal
	// (retries-exhausted) events, of which a delivered run has none.
	if s.RTOExpirations+s.FastRetransmits != s.Retransmits {
		t.Fatalf("RTO expirations %d + fast retransmits %d != retransmits %d on a surviving run",
			s.RTOExpirations, s.FastRetransmits, s.Retransmits)
	}
	if s.AckSendFailures != 0 || s.RetransmitSendFailures != 0 {
		t.Fatalf("healthy transport charged with send failures: %+v", s)
	}
	if a.SendErrors() != 0 {
		t.Fatalf("SendErrors = %d, want 0", a.SendErrors())
	}
	// The receiver only acknowledges; it has nothing to retransmit.
	if rb := b.Snapshot(); rb.Retransmits != 0 {
		t.Fatalf("receiver snapshot shows retransmits: %+v", rb)
	}
}

// flakySend wraps a transport, rejecting every send while fail is set —
// the shape of a NIC outage the rudp counters must make visible.
type flakySend struct {
	transport.Datagram
	fail atomic.Bool
}

func (d *flakySend) SendTo(p []byte, to transport.Addr) error {
	if d.fail.Load() {
		return errors.New("injected transport failure")
	}
	return d.Datagram.SendTo(p, to)
}

// SendBatch routes the burst through SendTo, so the promoted batch method
// cannot bypass the injected failure.
func (d *flakySend) SendBatch(pkts [][]byte, to transport.Addr) (int, error) {
	for i, p := range pkts {
		if err := d.SendTo(p, to); err != nil {
			return i, err
		}
	}
	return len(pkts), nil
}

func TestSnapshotCountsAckSendFailures(t *testing.T) {
	n := simnet.New(simnet.Config{})
	ia, err := n.OpenDatagram("a", 0)
	if err != nil {
		t.Fatal(err)
	}
	ib, err := n.OpenDatagram("b", 0)
	if err != nil {
		t.Fatal(err)
	}
	flaky := &flakySend{Datagram: ib}
	flaky.fail.Store(true)
	a, b := New(ia), New(flaky)
	t.Cleanup(func() { a.Close(); b.Close() })

	if err := a.SendTo([]byte("needs an ack"), b.LocalAddr()); err != nil {
		t.Fatal(err)
	}
	// Delivery succeeds — only the ACK path is down.
	if _, _, err := b.Recv(2 * time.Second); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for b.Snapshot().AckSendFailures == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("ACK send failures never counted: %+v", b.Snapshot())
		}
		time.Sleep(time.Millisecond)
	}
	if b.SendErrors() == 0 {
		t.Fatal("SendErrors must reflect ACK failures")
	}

	// Heal the transport: the sender's next retransmission gets acked and
	// the exchange completes, having been counted on both sides.
	flaky.fail.Store(false)
	if err := a.Flush(5 * time.Second); err != nil {
		t.Fatalf("flush after transport healed: %v", err)
	}
	if s := a.Snapshot(); s.Retransmits == 0 {
		t.Fatalf("sender never retransmitted while ACKs were failing: %+v", s)
	}
}
