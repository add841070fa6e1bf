package rudp

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"repro/internal/simnet"
	"repro/internal/transport"
)

// irnPair builds a rudp pair over a clean simnet with a send hook on a's
// transport, under an explicit Config shared by both ends (the receiver's
// config decides the SACK bitmap width it advertises).
func irnPair(t *testing.T, cfg Config) (*hookEP, *Endpoint, *Endpoint) {
	t.Helper()
	n := simnet.New(simnet.Config{})
	ia, err := n.OpenDatagram("a", 0)
	if err != nil {
		t.Fatal(err)
	}
	ib, err := n.OpenDatagram("b", 0)
	if err != nil {
		t.Fatal(err)
	}
	ha := &hookEP{Datagram: ia}
	a, b := NewConfig(ha, cfg), NewConfig(ib, cfg)
	t.Cleanup(func() { a.Close(); b.Close() })
	return ha, a, b
}

// dropSeq installs a hook dropping the first `times` transmissions of seq
// on h; later retransmissions pass through.
func dropSeq(h *hookEP, seq uint32, times int) {
	dropped := 0
	h.set(func(p []byte, to transport.Addr) []byte {
		if dropped < times && isData(p) && dataSeq(p) == seq {
			dropped++
			return nil
		}
		return p
	})
}

// dropOneSeq drops only the first transmission of seq.
func dropOneSeq(h *hookEP, seq uint32) { dropSeq(h, seq, 1) }

// fillWindow sends windowSize messages from a to b, receives them all at b
// in order, and flushes a.
func fillWindow(t *testing.T, a, b *Endpoint) {
	t.Helper()
	done := make(chan error, 1)
	go func() {
		for i := 0; i < windowSize; i++ {
			if err := a.SendTo([]byte(fmt.Sprintf("w-%02d", i)), b.LocalAddr()); err != nil {
				done <- err
				return
			}
		}
		done <- a.Flush(10 * time.Second)
	}()
	for i := 0; i < windowSize; i++ {
		p, _, err := b.Recv(5 * time.Second)
		if err != nil {
			t.Fatalf("Recv %d: %v", i, err)
		}
		if want := fmt.Sprintf("w-%02d", i); string(p) != want {
			t.Fatalf("message %d = %q, want %q", i, p, want)
		}
	}
	if err := <-done; err != nil {
		t.Fatalf("send/flush: %v", err)
	}
}

// TestSACKCoversFullWindow is the regression test for the 32-bit-bitmap /
// 64-packet-window mismatch. The window is filled, only the second packet
// is lost, and every later packet is delivered and buffered out of order.
// With the widened 64-bit bitmap every buffered packet is SACK-visible, so
// recovery must resend exactly the one hole — one retransmission total,
// and the receiver must never see a duplicate DATA. (The legacy 32-bit
// advertisement could not acknowledge packets beyond cum+32, so the sender
// retransmitted data the peer already held; EXPERIMENTS.md records that
// A/B.)
func TestSACKCoversFullWindow(t *testing.T) {
	t.Run("IRN", func(t *testing.T) {
		ha, a, b := irnPair(t, Config{})
		dropOneSeq(ha, 2)
		fillWindow(t, a, b)
		s := a.Snapshot()
		if s.Retransmits != 1 {
			t.Fatalf("Retransmits = %d, want exactly 1 (the single hole)", s.Retransmits)
		}
		if rb := b.Snapshot(); rb.SpuriousRexmits != 0 {
			t.Fatalf("receiver saw %d duplicate DATA; full-window SACK must prevent spurious resends", rb.SpuriousRexmits)
		}
	})
}

// TestFastRetransmitBeatsRTO pins the SACK-driven path: with one hole and a
// stream of later arrivals, recovery must come from fast retransmit (enough
// sequence numbers SACKed above the hole), not from waiting out the
// retransmission timer.
func TestFastRetransmitBeatsRTO(t *testing.T) {
	ha, a, b := irnPair(t, Config{})
	dropOneSeq(ha, 2)
	fillWindow(t, a, b)
	s := a.Snapshot()
	if s.FastRetransmits != 1 {
		t.Fatalf("FastRetransmits = %d, want 1", s.FastRetransmits)
	}
	if s.RTOExpirations != 0 {
		t.Fatalf("RTOExpirations = %d; the hole should have been repaired before any timer fired", s.RTOExpirations)
	}
}

// TestWaitSendSlotReusesTimer pins the blocked-send allocation fix: the
// historical code burned a fresh time.After timer every wait iteration, so
// a sender stuck behind a full window generated garbage proportional to
// how long it was blocked. One timer, carried in the send scratch, must
// serve every wait — zero allocations per iteration after the first — and
// must come back stopped and drained whichever way a wait ended.
func TestWaitSendSlotReusesTimer(t *testing.T) {
	a, _ := pair(t, simnet.Config{})
	sc := new(sendScratch)
	wait := make(chan struct{}, 1) // never pulsed at first: every wait runs to its tick
	if !a.waitSendSlot(wait, sc) || sc.tm == nil {
		t.Fatalf("first wait: tm=%v", sc.tm)
	}
	first := sc.tm
	allocs := testing.AllocsPerRun(10, func() {
		if !a.waitSendSlot(wait, sc) {
			t.Error("wait reported endpoint closed")
		}
	})
	if sc.tm != first {
		t.Fatal("waitSendSlot replaced the timer instead of reusing it")
	}
	if allocs != 0 {
		t.Fatalf("blocked-send wait allocates %v per iteration, want 0", allocs)
	}
	// A wait ended by a pulse leaves the timer stopped with nothing in its
	// channel, so the next wait still runs its full interval.
	wait <- struct{}{}
	if !a.waitSendSlot(wait, sc) {
		t.Fatal("pulsed wait reported endpoint closed")
	}
	select {
	case <-sc.tm.C:
		t.Fatal("timer channel not drained after a pulsed wait")
	default:
	}
	start := time.Now()
	a.waitSendSlot(wait, sc)
	if el := time.Since(start); el < tickInterval*2 {
		t.Fatalf("wait after a pulsed wait returned in %v: a stale tick was left behind", el)
	}
}

// TestSACKHighestWrap pins the recovery horizon arithmetic across the
// 32-bit sequence wrap: the highest SACKed seq derived from (cum, bitmap)
// must be computed in serial arithmetic, not plain comparison.
func TestSACKHighestWrap(t *testing.T) {
	cases := []struct {
		cum    uint32
		bitmap uint64
		want   uint32
		ok     bool
	}{
		{cum: 10, bitmap: 0, want: 0, ok: false},
		{cum: 10, bitmap: 1, want: 11, ok: true},                              // lowest bit = cum+1
		{cum: 10, bitmap: 1 << 63, want: 74, ok: true},                        // full window span
		{cum: ^uint32(0) - 5, bitmap: 1 << 9, want: 4, ok: true},              // crosses 2^32
		{cum: ^uint32(0), bitmap: 1, want: 0, ok: true},                       // lands exactly on 0
		{cum: ^uint32(0) - 2, bitmap: (1 << 5) | (1 << 2), want: 3, ok: true}, // highest bit wins
	}
	for _, c := range cases {
		got, ok := sackHighest(c.cum, c.bitmap)
		if got != c.want || ok != c.ok {
			t.Errorf("sackHighest(%#x, %#x) = (%d, %v), want (%d, %v)", c.cum, c.bitmap, got, ok, c.want, c.ok)
		}
	}
}

// TestFastRetransmitAcrossWrap drops one packet straddling the 2^32
// sequence wrap and requires selective recovery to still resend exactly
// that hole: the seq−cum−1 bitmap offsets, the SACK horizon, and the
// recovery-guard comparisons all operate across the wrap during this run.
func TestFastRetransmitAcrossWrap(t *testing.T) {
	const start = ^uint32(0) - 31 // window slides 2^32−32 … 32
	ha, a, b := irnPair(t, Config{})
	peerField(t, a, b.LocalAddr(), func(ps *peerState) {
		ps.nextSeq, ps.ackedTo = start, start-1
		// The NewReno recovery guard compares against ackedTo in serial
		// arithmetic; its zero value sits a half-space away from seqs near
		// the wrap, so a conversation starting there must carry it along.
		ps.ccRecover = start - 1
	})
	peerField(t, b, a.LocalAddr(), func(ps *peerState) { ps.expected = start })

	dropOneSeq(ha, ^uint32(0)) // the last seq before the wrap
	fillWindow(t, a, b)
	s := a.Snapshot()
	if s.Retransmits != 1 || s.FastRetransmits != 1 {
		t.Fatalf("Retransmits = %d, FastRetransmits = %d; want exactly one fast-retransmitted hole across the wrap", s.Retransmits, s.FastRetransmits)
	}
	if rb := b.Snapshot(); rb.SpuriousRexmits != 0 {
		t.Fatalf("receiver saw %d duplicate DATA across the wrap", rb.SpuriousRexmits)
	}
}

// TestECNMarkDrivesDecrease pins the congestion-signal loop end to end:
// marking every DATA packet on the wire must surface as receiver-side mark
// counts, echoed congestion bits on ACKs, and at least one multiplicative
// decrease at the sender — with cwnd never collapsing below its floor and
// the transfer still completing.
func TestECNMarkDrivesDecrease(t *testing.T) {
	ha, a, b := irnPair(t, Config{})
	ha.set(func(p []byte, to transport.Addr) []byte {
		if isData(p) {
			q := append([]byte(nil), p...)
			if MarkCongestion(q) {
				return q
			}
		}
		return p
	})
	fillWindow(t, a, b)
	if rb := b.Snapshot(); rb.ECNMarks == 0 {
		t.Fatalf("receiver counted no ECN marks: %+v", rb)
	}
	s := a.Snapshot()
	if s.MDEvents == 0 {
		t.Fatalf("sender never decreased cwnd despite every packet marked: %+v", s)
	}
	if s.Cwnd < minCwnd {
		t.Fatalf("cwnd gauge %d fell below the floor %d", s.Cwnd, minCwnd)
	}
	if s.Retransmits != 0 {
		t.Fatalf("marking is not loss; %d retransmits on a clean wire", s.Retransmits)
	}
}

// TestMarkCongestionRejectsNonData pins MarkCongestion's guards: ACK
// frames and runts must be left untouched.
func TestMarkCongestionRejectsNonData(t *testing.T) {
	ack := appendAck(nil, 7, 0, 41, 0b101)
	want := bytes.Clone(ack)
	if MarkCongestion(ack) {
		t.Fatal("MarkCongestion accepted an ACK frame")
	}
	if !bytes.Equal(ack, want) {
		t.Fatal("MarkCongestion mutated a rejected frame")
	}
	if MarkCongestion(make([]byte, dataTrailerLen-1)) {
		t.Fatal("MarkCongestion accepted a runt shorter than the DATA trailer")
	}
	// A damaged DATA frame stays damaged: re-stamping its CRC would make the
	// receiver accept the damage.
	bad := AppendData(nil, 7, 1, []byte("payload"))
	bad[0] ^= 1
	if MarkCongestion(bad) {
		t.Fatal("MarkCongestion re-stamped a frame whose CRC did not verify")
	}
}
