package simnet

import (
	"bytes"
	"testing"
	"time"

	"repro/internal/faultnet"
)

// TestDupLegBufferIndependence pins the pool-ownership contract under
// duplication: faultnet hands the wire the same caller buffer twice, and
// each delivery must be carried in its own pooled buffer, so a receiver that
// consumes and recycles the first copy — whose storage is then immediately
// reissued to a new send — cannot see the second copy's bytes change
// underneath it. A shared buffer here is exactly the double-delivery
// corruption the chaos harness's dup schedules target.
func TestDupLegBufferIndependence(t *testing.T) {
	n := New(Config{})
	raw, err := n.OpenDatagram("a", 0)
	if err != nil {
		t.Fatal(err)
	}
	a := faultnet.Wrap(raw, faultnet.Config{DupRate: 1.0, Seed: 7})
	b, err := n.OpenDatagram("b", 0)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	defer b.Close()

	orig := bytes.Repeat([]byte{0xAB}, 512)
	if err := a.SendTo(orig, b.addr); err != nil {
		t.Fatal(err)
	}
	// The queue now holds the original and its duplicate. Consume and
	// recycle the first copy, then force its storage back into service with
	// a fresh send of different bytes.
	first, _, err := b.Recv(time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first, orig) {
		t.Fatalf("first copy corrupted: % x...", first[:8])
	}
	b.Recycle(first)
	junk := bytes.Repeat([]byte{0xEE}, 512)
	if err := a.SendTo(junk, b.addr); err != nil {
		t.Fatal(err)
	}
	// The duplicate of the original must still read back intact: it may not
	// alias the recycled (and now rewritten) first buffer.
	second, _, err := b.Recv(time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(second, orig) {
		t.Fatalf("duplicate shares storage with the recycled first copy: got % x..., want % x...",
			second[:8], orig[:8])
	}
	b.Recycle(second)
	// Drain the junk send and its duplicate so the endpoint quiesces clean.
	for i := 0; i < 2; i++ {
		p, _, err := b.Recv(time.Second)
		if err != nil {
			t.Fatal(err)
		}
		b.Recycle(p)
	}
}

// TestPktBufBalanceAtQuiesce pins the pool get/put accounting itself: a
// drained, fully-recycled exchange must leave the packet pools balanced —
// the invariant the chaos harness checks after every schedule.
func TestPktBufBalanceAtQuiesce(t *testing.T) {
	gets0, puts0 := PktBufBalance()
	held0 := gets0 - puts0

	n := New(Config{})
	raw, err := n.OpenDatagram("a", 0)
	if err != nil {
		t.Fatal(err)
	}
	a := faultnet.Wrap(raw, faultnet.Config{DupRate: 0.5, Seed: 3})
	b, err := n.OpenDatagram("b", 0)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	defer b.Close()

	const msgs = 64
	for i := 0; i < msgs; i++ {
		if err := a.SendTo([]byte{byte(i)}, b.addr); err != nil {
			t.Fatal(err)
		}
	}
	delivered := n.Counters().DatagramsSent // every copy faultnet sent crossed the wire
	for i := int64(0); i < delivered; i++ {
		p, _, err := b.Recv(time.Second)
		if err != nil {
			t.Fatal(err)
		}
		b.Recycle(p)
	}
	gets1, puts1 := PktBufBalance()
	if held := gets1 - puts1; held != held0 {
		t.Fatalf("pool balance drifted: %d buffers outstanding before, %d after a fully-recycled run",
			held0, held)
	}
}

// TestPktBufRoundTripAllocFree: a packet buffer taken from and handed back
// to either size class costs no allocation — the pools hold the arrays'
// own pointers, so a Put boxes nothing.
func TestPktBufRoundTripAllocFree(t *testing.T) {
	for _, n := range []int{100, smallPktBuf + 1} {
		putPktBuf(getPktBuf(n)) // warm the class
		if allocs := testing.AllocsPerRun(100, func() { putPktBuf(getPktBuf(n)) }); allocs != 0 {
			t.Errorf("%d-byte buffer: get+put allocates %.1f times, want 0", n, allocs)
		}
	}
}
