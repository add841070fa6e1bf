package faultnet

import (
	"bytes"
	"net/netip"
	"testing"
	"time"

	"repro/internal/transport"
)

// captureEP is a stub inner Datagram that records every packet handed to
// the wire, copying so later caller-side mutations are visible as bugs.
type captureEP struct {
	sent  [][]byte
	dests []transport.Addr
}

func (c *captureEP) SendTo(p []byte, to transport.Addr) error {
	cp := make([]byte, len(p))
	copy(cp, p)
	c.sent = append(c.sent, cp)
	c.dests = append(c.dests, to)
	return nil
}
func (c *captureEP) Recv(time.Duration) ([]byte, transport.Addr, error) {
	return nil, transport.Addr{}, transport.ErrTimeout
}
func (c *captureEP) SendBatch(pkts [][]byte, to transport.Addr) (int, error) {
	for _, p := range pkts {
		c.SendTo(p, to)
	}
	return len(pkts), nil
}
func (c *captureEP) RecvBatch([][]byte, []transport.Addr, time.Duration) (int, error) {
	return 0, transport.ErrTimeout
}
func (c *captureEP) Recycle([]byte)                {}
func (c *captureEP) RecvPoolStats() (int64, int64) { return 0, 0 }
func (c *captureEP) LocalAddr() transport.Addr     { return netip.MustParseAddrPort("10.0.0.1:1") }
func (c *captureEP) MaxDatagram() int              { return transport.MaxDatagramSize }
func (c *captureEP) PathMTU() int                  { return transport.DefaultMTU }
func (c *captureEP) Close() error                  { return nil }

var peer = netip.MustParseAddrPort("10.0.0.2:7")

// driveScript pushes a fixed single-goroutine schedule through a fresh
// Endpoint and returns the wire transcript plus the decision log.
func driveScript(seed int64) (*captureEP, *Log) {
	inner := &captureEP{}
	ep := Wrap(inner, Config{
		Seed:        seed,
		GE:          &GEParams{PGoodToBad: 0.1, PBadToGood: 0.4, LossGood: 0.01, LossBad: 0.6},
		ReorderRate: 0.15,
		DupRate:     0.1,
		CorruptRate: 0.1,
	})
	for i := 0; i < 200; i++ {
		p := bytes.Repeat([]byte{byte(i)}, 32+i%64)
		ep.SendTo(p, peer)
	}
	ep.ReleaseHeld()
	ep.Close()
	return inner, ep.Log()
}

// TestDeterministicReplay pins the tentpole property: the same seed driving
// the same serialized schedule produces bit-for-bit the same decision log
// and the same wire transcript. A different seed must diverge (or the
// fingerprint is vacuous).
func TestDeterministicReplay(t *testing.T) {
	in1, log1 := driveScript(42)
	in2, log2 := driveScript(42)
	if log1.Fingerprint() != log2.Fingerprint() {
		t.Fatalf("same seed, different logs: %x vs %x", log1.Fingerprint(), log2.Fingerprint())
	}
	if log1.Total() != log2.Total() {
		t.Fatalf("same seed, different event counts: %d vs %d", log1.Total(), log2.Total())
	}
	if len(in1.sent) != len(in2.sent) {
		t.Fatalf("same seed, different wire transcripts: %d vs %d packets", len(in1.sent), len(in2.sent))
	}
	for i := range in1.sent {
		if !bytes.Equal(in1.sent[i], in2.sent[i]) {
			t.Fatalf("wire packet %d differs between same-seed runs", i)
		}
	}
	_, log3 := driveScript(43)
	if log3.Fingerprint() == log1.Fingerprint() {
		t.Fatal("different seeds produced identical fingerprints")
	}
}

// TestGEBurstLoss checks the two-state model actually bursts: with a sticky
// bad state the loss pattern must contain a run of consecutive drops longer
// than independent Bernoulli loss at the same average rate plausibly yields.
func TestGEBurstLoss(t *testing.T) {
	inner := &captureEP{}
	ep := Wrap(inner, Config{
		Seed: 11,
		GE:   &GEParams{PGoodToBad: 0.05, PBadToGood: 0.1, LossGood: 0, LossBad: 1.0},
	})
	const n = 2000
	for i := 0; i < n; i++ {
		ep.SendTo([]byte{byte(i)}, peer)
	}
	drops, maxRun, run := 0, 0, 0
	for _, ev := range ep.Log().Events() {
		switch ev.Op {
		case OpDropGE:
			drops++
			run++
			if run > maxRun {
				maxRun = run
			}
		case OpDeliver:
			run = 0
		}
	}
	if drops == 0 {
		t.Fatal("GE model dropped nothing")
	}
	if maxRun < 5 {
		t.Fatalf("longest loss burst is %d packets; the two-state model should produce dense bursts", maxRun)
	}
	if delivered := len(inner.sent); delivered+drops != n {
		t.Fatalf("accounting: %d delivered + %d dropped != %d sent", delivered, drops, n)
	}
}

func TestPartitionAndHeal(t *testing.T) {
	inner := &captureEP{}
	ep := Wrap(inner, Config{Seed: 1})
	other := netip.MustParseAddrPort("10.0.0.3:8")
	ep.PartitionTo(peer)
	ep.SendTo([]byte("to-peer"), peer)   // swallowed
	ep.SendTo([]byte("to-other"), other) // unaffected
	if len(inner.sent) != 1 || !bytes.Equal(inner.sent[0], []byte("to-other")) {
		t.Fatalf("partition to one peer must not affect others: wire=%q", inner.sent)
	}
	ep.Heal(peer)
	ep.SendTo([]byte("after-heal"), peer)
	if len(inner.sent) != 2 || !bytes.Equal(inner.sent[1], []byte("after-heal")) {
		t.Fatalf("healed path must deliver: wire=%q", inner.sent)
	}
}

func TestAckBlackhole(t *testing.T) {
	inner := &captureEP{}
	ep := Wrap(inner, Config{
		Seed: 1,
		Classify: func(p []byte) Class {
			if len(p) > 0 && p[0] == 2 {
				return ClassAck
			}
			return ClassData
		},
	})
	ep.SetAckBlackhole(true)
	ep.SendTo([]byte{2, 0, 0}, peer) // ACK: swallowed
	ep.SendTo([]byte{1, 0, 0}, peer) // data: passes
	ep.SetAckBlackhole(false)
	ep.SendTo([]byte{2, 0, 0}, peer) // ACK again: passes now
	if len(inner.sent) != 2 {
		t.Fatalf("blackhole delivered %d packets, want 2", len(inner.sent))
	}
	if inner.sent[0][0] != 1 || inner.sent[1][0] != 2 {
		t.Fatalf("wrong packets survived the ACK blackhole: % x", inner.sent)
	}
}

func TestMTUShrinkBlackholesOversized(t *testing.T) {
	inner := &captureEP{}
	ep := Wrap(inner, Config{Seed: 1})
	big := make([]byte, 1200)
	if err := ep.SendTo(big, peer); err != nil || len(inner.sent) != 1 {
		t.Fatalf("pre-shrink send failed: %v, wire=%d", err, len(inner.sent))
	}
	ep.SetMTU(576)
	if got := ep.PathMTU(); got != 576 {
		t.Fatalf("PathMTU = %d after shrink, want 576", got)
	}
	if err := ep.SendTo(big, peer); err != nil {
		t.Fatalf("oversized send must be silently blackholed, got %v", err)
	}
	ep.SendTo(make([]byte, 500), peer) // fits: passes
	if len(inner.sent) != 2 {
		t.Fatalf("wire saw %d packets, want 2 (oversized one blackholed)", len(inner.sent))
	}
	ep.SetMTU(0)
	if got := ep.PathMTU(); got != transport.DefaultMTU {
		t.Fatalf("PathMTU = %d after restore, want %d", got, transport.DefaultMTU)
	}
}

// TestReorderHoldAndRelease pins the reorder mechanism: a held packet goes
// out after later sends, and the held copy is independent of the caller's
// buffer (which rudp recycles and rewrites immediately).
func TestReorderHoldAndRelease(t *testing.T) {
	inner := &captureEP{}
	ep := Wrap(inner, Config{Seed: 5, ReorderRate: 1.0, ReorderSpan: 1})
	first := bytes.Repeat([]byte{0xAA}, 64)
	ep.SendTo(first, peer)
	if len(inner.sent) != 0 || ep.HeldCount() != 1 {
		t.Fatalf("first packet should be held: wire=%d held=%d", len(inner.sent), ep.HeldCount())
	}
	for i := range first {
		first[i] = 0xFF // caller recycles its buffer; the held copy must not see this
	}
	second := bytes.Repeat([]byte{0xBB}, 64)
	ep.SendTo(second, peer) // releases the held first packet, then holds second
	ep.ReleaseHeld()
	if len(inner.sent) != 2 {
		t.Fatalf("wire saw %d packets, want 2", len(inner.sent))
	}
	if inner.sent[0][0] != 0xAA {
		t.Fatalf("held copy was corrupted by caller reuse: % x", inner.sent[0][:4])
	}
	if inner.sent[1][0] != 0xBB {
		t.Fatalf("release order wrong: % x", inner.sent[1][:4])
	}
}

func TestCorruptionFlipsExactlyOneBit(t *testing.T) {
	inner := &captureEP{}
	ep := Wrap(inner, Config{Seed: 9, CorruptRate: 1.0})
	orig := bytes.Repeat([]byte{0x55}, 128)
	ep.SendTo(orig, peer)
	if len(inner.sent) != 1 {
		t.Fatalf("corrupt leg must still deliver, wire=%d", len(inner.sent))
	}
	if bytes.Equal(orig, inner.sent[0]) {
		t.Fatal("corrupt leg delivered identical bytes")
	}
	diff := 0
	for i := range orig {
		if orig[i] != inner.sent[0][i] {
			diff++
		}
	}
	if diff != 1 {
		t.Fatalf("%d bytes differ, want exactly 1", diff)
	}
	if orig[0] != 0x55 {
		t.Fatal("corrupt leg mutated the caller's buffer instead of a copy")
	}
}

func TestDupDeliversTwiceFromOneSend(t *testing.T) {
	inner := &captureEP{}
	ep := Wrap(inner, Config{Seed: 3, DupRate: 1.0})
	ep.SendTo([]byte("once"), peer)
	if len(inner.sent) != 2 {
		t.Fatalf("dup leg delivered %d copies, want 2", len(inner.sent))
	}
	if !bytes.Equal(inner.sent[0], inner.sent[1]) {
		t.Fatal("duplicate differs from original")
	}
}

func TestSendBatchPerPacketVerdicts(t *testing.T) {
	inner := &captureEP{}
	ep := Wrap(inner, Config{
		Seed: 21,
		GE:   &GEParams{PGoodToBad: 1.0, PBadToGood: 0, LossBad: 0.5},
	})
	pkts := make([][]byte, 64)
	for i := range pkts {
		pkts[i] = []byte{byte(i)}
	}
	n, err := ep.SendBatch(pkts, peer)
	if err != nil || n != len(pkts) {
		t.Fatalf("SendBatch = %d, %v", n, err)
	}
	if len(inner.sent) == 0 || len(inner.sent) == len(pkts) {
		t.Fatalf("batch must get per-packet verdicts: %d/%d delivered", len(inner.sent), len(pkts))
	}
}

func TestClosedEndpointRejectsSends(t *testing.T) {
	ep := Wrap(&captureEP{}, Config{Seed: 1})
	ep.Close()
	if err := ep.SendTo([]byte("x"), peer); err != transport.ErrClosed {
		t.Fatalf("SendTo after Close = %v, want ErrClosed", err)
	}
}
