package ddp

import (
	"net/netip"
	"testing"

	"repro/internal/nio"
	"repro/internal/simnet"
	"repro/internal/transport"
)

// TestSendPathAllocFree pins the segmented send path — header encode,
// payload gather, CRC, batch hand-off, buffer recycle — at 0 allocs/op in
// steady state, the acceptance bar for the pooled datapath — over an LLP
// that takes the burst whole and over one that loops SendTo (rudp's shape).
func TestSendPathAllocFree(t *testing.T) {
	to := netip.MustParseAddrPort("10.0.0.2:2")
	for _, batch := range []bool{true, false} {
		name := "batch"
		var ep transport.Datagram
		if batch {
			ep = &discardBatchEP{discardEP{maxDgram: transport.MaxDatagramSize}}
		} else {
			name = "sendto"
			ep = &discardEP{maxDgram: transport.MaxDatagramSize}
		}
		t.Run(name, func(t *testing.T) {
			ch := NewDatagramChannel(ep)
			vec := nio.VecOf(make([]byte, 256<<10)) // 5 segments at the 64K limit
			// Warm the pools: first sends legitimately allocate the slab.
			for i := 0; i < 4; i++ {
				if err := ch.SendUntagged(to, QNSend, 1, 0, vec); err != nil {
					t.Fatal(err)
				}
			}
			allocs := testing.AllocsPerRun(200, func() {
				if err := ch.SendUntagged(to, QNSend, 1, 0, vec); err != nil {
					t.Fatal(err)
				}
			})
			if allocs != 0 {
				t.Fatalf("segmented send allocates %.2f times per message, want 0", allocs)
			}
		})
	}
}

// TestSendStatsCounters verifies the new datapath counters: bursts issued,
// segments per burst, and pool hit rate.
func TestSendStatsCounters(t *testing.T) {
	ep := &discardBatchEP{discardEP{maxDgram: transport.MaxDatagramSize}}
	ch := NewDatagramChannel(ep)
	to := netip.MustParseAddrPort("10.0.0.2:2")
	vec := nio.VecOf(make([]byte, 256<<10)) // 5 segments per message (max payload 65485)
	for i := 0; i < 5; i++ {
		if err := ch.SendUntagged(to, QNSend, uint32(i), 0, vec); err != nil {
			t.Fatal(err)
		}
	}
	batches, segments, hits, misses := ch.SendStats()
	if segments != 25 {
		t.Fatalf("segments = %d, want 25", segments)
	}
	if batches != 10 {
		t.Fatalf("batches = %d, want 10 (maxBatchBytes holds four 64 KB segments: 4+1 per message)", batches)
	}
	if got := ep.batches.Load(); got != batches {
		t.Fatalf("endpoint saw %d bursts, channel counted %d", got, batches)
	}
	if misses == 0 || hits+misses != segments {
		t.Fatalf("pool stats %d hits / %d misses don't cover %d segment gets", hits, misses, segments)
	}
	// Steady state: everything after the first message's misses is a hit.
	if hits < segments-8 {
		t.Fatalf("pool hit count %d too low for %d segments", hits, segments)
	}
}

// TestBatchedSendOverSimnet runs the batched path over the real simulator
// end to end: a multi-segment message must arrive intact through
// SendBatch → putBatch → Recv → reassembly-ready segments.
func TestBatchedSendOverSimnet(t *testing.T) {
	net := simnet.New(simnet.Config{})
	a, err := net.OpenDatagram("a", 0)
	if err != nil {
		t.Fatal(err)
	}
	b, err := net.OpenDatagram("b", 0)
	if err != nil {
		t.Fatal(err)
	}
	ca, cb := NewDatagramChannel(a), NewDatagramChannel(b)
	defer ca.Close()
	defer cb.Close()

	msg := make([]byte, 200<<10)
	for i := range msg {
		msg[i] = byte(i * 31)
	}
	if err := ca.SendUntagged(cb.LocalAddr(), QNSend, 42, 0, nio.VecOf(msg)); err != nil {
		t.Fatal(err)
	}
	batches, segments, _, _ := ca.SendStats()
	if batches == 0 || segments < 4 {
		t.Fatalf("batched path not exercised: %d batches, %d segments", batches, segments)
	}
	got := make([]byte, len(msg))
	seen := 0
	for seen < len(msg) {
		seg, _, err := recvOne(cb, 2e9)
		if err != nil {
			t.Fatal(err)
		}
		if seg.MSN != 42 {
			t.Fatalf("MSN = %d, want 42", seg.MSN)
		}
		copy(got[seg.MO:], seg.Payload)
		seen += len(seg.Payload)
		cb.Recycle(seg.Raw)
	}
	for i := range msg {
		if got[i] != msg[i] {
			t.Fatalf("payload corrupt at byte %d", i)
		}
	}
}
