package telemetry

import (
	"fmt"
	"net/netip"
	"sync"
	"testing"
)

// testPeer stands in for transport.Addr, which this package cannot import:
// any comparable, self-rendering key interns.
type testPeer struct {
	node string
	port uint16
}

func (p testPeer) String() string { return fmt.Sprintf("%s:%d", p.node, p.port) }

func TestRingRecordAndDrain(t *testing.T) {
	r := NewRing(64)
	tok := PeerToken(testPeer{"trace-test-a", 7})
	r.Record(EvSend, tok, 100, 1)
	r.Record(EvRecv, tok, 100, 1)
	r.Record(EvDrop, 0, 42, DropLoss)

	evs := r.Drain()
	if len(evs) != 3 {
		t.Fatalf("drained %d events, want 3", len(evs))
	}
	for i, e := range evs {
		if e.Seq != uint64(i+1) {
			t.Fatalf("event %d seq = %d, want %d", i, e.Seq, i+1)
		}
	}
	if evs[0].Type != EvSend || evs[1].Type != EvRecv || evs[2].Type != EvDrop {
		t.Fatalf("types = %v %v %v", evs[0].Type, evs[1].Type, evs[2].Type)
	}
	if evs[0].Peer != "trace-test-a:7" {
		t.Fatalf("peer round trip failed: %v", evs[0].Peer)
	}
	if evs[2].Bytes != 42 || evs[2].Arg != DropLoss {
		t.Fatalf("drop event = %+v", evs[2])
	}
	if evs[2].Peer != "" {
		t.Fatalf("token 0 must decode to no peer, got %q", evs[2].Peer)
	}

	// Drain consumes: a second drain returns only newer events.
	if again := r.Drain(); len(again) != 0 {
		t.Fatalf("second drain returned %d events", len(again))
	}
	r.Record(EvRetransmit, 0, 9, 5)
	evs = r.Drain()
	if len(evs) != 1 || evs[0].Seq != 4 || evs[0].Type != EvRetransmit {
		t.Fatalf("post-drain event = %+v", evs)
	}
}

func TestRingWrapAccountsOverwritten(t *testing.T) {
	r := NewRing(64) // minimum/rounded capacity: exactly 64 slots
	const n = 200
	for i := 0; i < n; i++ {
		r.Record(EvSend, 0, i, uint32(i))
	}
	evs := r.Drain()
	if len(evs) != r.Cap() {
		t.Fatalf("drained %d events, want capacity %d", len(evs), r.Cap())
	}
	// The survivors are the newest Cap() events, oldest first.
	if evs[0].Seq != n-uint64(r.Cap())+1 || evs[len(evs)-1].Seq != n {
		t.Fatalf("seq range [%d,%d], want [%d,%d]",
			evs[0].Seq, evs[len(evs)-1].Seq, n-r.Cap()+1, n)
	}
	if got := r.Overwritten(); got != n-uint64(r.Cap()) {
		t.Fatalf("overwritten = %d, want %d", got, n-r.Cap())
	}
	if r.Cursor() != n {
		t.Fatalf("cursor = %d, want %d", r.Cursor(), n)
	}
}

func TestRingNilIsDisabled(t *testing.T) {
	var r *Ring
	r.Record(EvSend, 0, 1, 0) // must not panic
}

// TestRingConcurrent drives recorders through wrap while a drainer runs —
// under -race this exercises the seqlock-style stamp discipline; torn or
// overwritten entries are accounted, never corrupt.
func TestRingConcurrent(t *testing.T) {
	r := NewRing(128)
	const (
		workers = 4
		per     = 5000
	)
	var wg sync.WaitGroup
	done := make(chan struct{})
	var drained []Event
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			drained = append(drained, r.Drain()...)
			select {
			case <-done:
				drained = append(drained, r.Drain()...)
				return
			default:
			}
		}
	}()
	var rec sync.WaitGroup
	for w := 0; w < workers; w++ {
		rec.Add(1)
		go func(w int) {
			defer rec.Done()
			for i := 0; i < per; i++ {
				r.Record(EvSend, 0, i, uint32(w))
			}
		}(w)
	}
	rec.Wait()
	close(done)
	wg.Wait()

	seen := make(map[uint64]bool, len(drained))
	for _, e := range drained {
		if e.Seq == 0 || e.Seq > workers*per {
			t.Fatalf("impossible seq %d", e.Seq)
		}
		if seen[e.Seq] {
			t.Fatalf("seq %d drained twice", e.Seq)
		}
		seen[e.Seq] = true
	}
	// Conservation: every recorded event was drained, overwritten, or torn.
	total := uint64(len(drained)) + r.Overwritten() + r.torn.Load()
	if total != workers*per {
		t.Fatalf("drained %d + overwritten %d + torn %d != recorded %d",
			len(drained), r.Overwritten(), r.torn.Load(), workers*per)
	}
}

func TestPeerTokenStable(t *testing.T) {
	a := testPeer{"trace-test-stable", 1}
	t1 := PeerToken(a)
	t2 := PeerToken(a)
	if t1 == 0 || t1 != t2 {
		t.Fatalf("tokens %d, %d", t1, t2)
	}
	if got := PeerOf(t1); got != a.String() {
		t.Fatalf("PeerOf(%d) = %v, want %v", t1, got, a)
	}
	if b := PeerToken(testPeer{"trace-test-stable", 2}); b == t1 {
		t.Fatal("distinct addrs shared a token")
	}
	if got := PeerOf(1 << 30); got != "" {
		t.Fatalf("unknown token resolved to %v", got)
	}
}

func TestEventTypeString(t *testing.T) {
	for ty, want := range map[EventType]string{
		EvSend: "SEND", EvRecv: "RECV", EvRetransmit: "RETRANSMIT",
		EvDrop: "DROP", EvWriteRecord: "WRITE_RECORD", EvCRCFail: "CRC_FAIL",
		EvNone: "NONE", EventType(200): "NONE",
	} {
		if got := ty.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", ty, got, want)
		}
	}
}

// TestSampledOneInSampleEvery: any SampleEvery consecutive MSNs — across
// the 32-bit wrap too — hold exactly one sampled message.
func TestSampledOneInSampleEvery(t *testing.T) {
	for _, start := range []uint32{1, 1000, 1<<32 - 40} {
		n := 0
		for i := uint32(0); i < SampleEvery; i++ {
			if Sampled(start + i) {
				n++
			}
		}
		if n != 1 {
			t.Fatalf("MSNs %d..%d+%d: %d sampled, want 1", start, start, SampleEvery-1, n)
		}
	}
}

// BenchmarkRecord prices one Record, what the success path pays for a
// traced message (the interning lookup plus the Record), and what it pays
// per message once sampled 1 in SampleEvery.
func BenchmarkRecord(b *testing.B) {
	r := NewRing(DefaultTraceSize)
	peer := netip.MustParseAddrPort("10.0.0.2:7")
	tok := PeerToken(peer)
	b.Run("record", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			r.Record(EvSend, tok, 1024, uint32(i))
		}
	})
	b.Run("traced", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			r.Record(EvSend, PeerToken(peer), 1024, uint32(i))
		}
	})
	b.Run("sampled-1-in-64", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if msn := uint32(i); Sampled(msn) {
				r.Record(EvSend, PeerToken(peer), 1024, msn)
			}
		}
	})
}
