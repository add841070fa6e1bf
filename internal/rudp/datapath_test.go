package rudp

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"repro/internal/crcx"
	"repro/internal/nio"
	"repro/internal/transport"
)

// ackFields decodes an ACK frame the tests read off a raw endpoint.
func ackFields(t *testing.T, p []byte) (cum uint32, sack uint64) {
	t.Helper()
	if tf, ok := frameType(p); !ok || !IsAckPacket(p) || tf&typeMask != typeAck {
		t.Fatalf("not a valid ACK frame: %x", p)
	}
	return nio.U32(p), nio.U64(p[4:])
}

// recvAcks collects the ACK frames that reach raw until it has been quiet
// for the given time.
func recvAcks(raw *memEP, quiet time.Duration) [][]byte {
	var acks [][]byte
	for {
		p, _, err := raw.Recv(quiet)
		if err != nil {
			return acks
		}
		acks = append(acks, bytes.Clone(p))
		raw.Recycle(p)
	}
}

// dataBurst frames seqs [first, first+n) of one conversation.
func dataBurst(epoch byte, first uint32, n int, size int) [][]byte {
	pkts := make([][]byte, n)
	for i := range pkts {
		payload := bytes.Repeat([]byte{byte(first) + byte(i)}, size)
		pkts[i] = AppendData(nil, epoch, first+uint32(i), payload)
	}
	return pkts
}

// TestOneAckPerBurst pins the coalescing: however many DATA one inner
// receive burst carries from a peer, that peer gets exactly one ACK for it —
// and a burst that interleaves two peers yields exactly two, not one per
// run of same-source packets.
func TestOneAckPerBurst(t *testing.T) {
	net := newMemNet()
	x, y := net.open(), net.open()
	ib := net.open()
	b := New(ib)
	defer b.Close()
	defer x.Close()
	defer y.Close()

	if _, err := x.SendBatch(dataBurst(7, 1, recvBurst, 64), ib.addr); err != nil {
		t.Fatal(err)
	}
	acks := recvAcks(x, 100*time.Millisecond)
	if len(acks) != 1 {
		t.Fatalf("%d in-order DATA in one burst drew %d ACKs, want 1", recvBurst, len(acks))
	}
	if cum, sack := ackFields(t, acks[0]); cum != recvBurst || sack != 0 {
		t.Fatalf("ACK = cum %d sack %#x, want cum %d and no SACK", cum, sack, recvBurst)
	}

	// x and y alternate inside one burst: four runs, two peers.
	xs, ys := dataBurst(7, recvBurst+1, 2, 64), dataBurst(9, 1, 2, 64)
	net.inject(ib,
		[][]byte{xs[0], ys[0], xs[1], ys[1]},
		[]transport.Addr{x.addr, y.addr, x.addr, y.addr})
	ax, ay := recvAcks(x, 100*time.Millisecond), recvAcks(y, 100*time.Millisecond)
	if len(ax) != 1 || len(ay) != 1 {
		t.Fatalf("a burst from two peers drew %d+%d ACKs, want 1+1", len(ax), len(ay))
	}
	if cum, _ := ackFields(t, ax[0]); cum != recvBurst+2 {
		t.Fatalf("x's ACK cum = %d, want %d: it must describe the whole burst", cum, recvBurst+2)
	}
	if cum, _ := ackFields(t, ay[0]); cum != 2 {
		t.Fatalf("y's ACK cum = %d, want 2", cum)
	}
	if s := b.Snapshot(); s.AcksSent != 3 || s.RecvBursts != 2 || s.RecvDatagrams != recvBurst+4 {
		t.Fatalf("AcksSent %d RecvBursts %d RecvDatagrams %d; want 3, 2, %d", s.AcksSent, s.RecvBursts, s.RecvDatagrams, recvBurst+4)
	}
	for i := 0; i < recvBurst+4; i++ {
		p, _, err := b.Recv(time.Second)
		if err != nil {
			t.Fatalf("delivery %d: %v", i, err)
		}
		b.Recycle(p)
	}
}

// TestLossInferredFromSackContent pins the loss rule: a hole is lost when
// dupAckThresh sequence numbers above it are SACKed, whatever number of ACK
// frames said so. One coalesced ACK carrying all three triggers exactly one
// fast retransmit of the hole; repeating it triggers no second one; and an
// ACK that SACKs fewer — what reordering without loss looks like — triggers
// none.
func TestLossInferredFromSackContent(t *testing.T) {
	net := newMemNet()
	ia, raw := net.open(), net.open()
	a := New(ia)
	defer a.Close()
	defer raw.Close()

	// Park the retransmission timer far out, so that on a loaded host no RTO
	// expiry mixes its resends into the ones counted below.
	peerField(t, a, raw.addr, func(ps *peerState) { ps.srtt = maxRTO })

	const n = 6
	for i := 0; i < n; i++ {
		if err := a.SendTo([]byte{byte(i)}, raw.addr); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < n; i++ {
		p, _, err := raw.Recv(time.Second)
		if err != nil || !isData(p) || dataSeq(p) != uint32(i+1) {
			t.Fatalf("first transmission %d: %x, %v", i, p, err)
		}
		raw.Recycle(p)
	}
	ack := func(cum uint32, sacked ...uint32) {
		var bitmap uint64
		for _, s := range sacked {
			bitmap |= 1 << (s - cum - 1)
		}
		if err := raw.SendTo(appendAck(nil, 9, 0, cum, bitmap), ia.addr); err != nil {
			t.Fatal(err)
		}
	}
	rexmits := func() []uint32 {
		var seqs []uint32
		for {
			p, _, err := raw.Recv(20 * time.Millisecond)
			if err != nil {
				return seqs
			}
			seqs = append(seqs, dataSeq(p))
			raw.Recycle(p)
		}
	}

	// seq 2 is a hole under two SACKed seqs: reordering, not loss.
	ack(1, 3, 4)
	if got := rexmits(); len(got) != 0 {
		t.Fatalf("two SACKed seqs above a hole retransmitted %v; the threshold is %d", got, dupAckThresh)
	}
	// One ACK now shows three above it.
	ack(1, 3, 4, 5)
	if got := rexmits(); len(got) != 1 || got[0] != 2 {
		t.Fatalf("one ACK SACKing three seqs above the hole retransmitted %v, want exactly [2]", got)
	}
	ack(1, 3, 4, 5)
	ack(1, 3, 4, 5, 6)
	if got := rexmits(); len(got) != 0 {
		t.Fatalf("the hole was fast-retransmitted again: %v", got)
	}
	s := a.Snapshot()
	if s.FastRetransmits != 1 || s.Retransmits != 1 || s.RTOExpirations != 0 {
		t.Fatalf("FastRetransmits %d Retransmits %d RTOExpirations %d; want 1, 1, 0", s.FastRetransmits, s.Retransmits, s.RTOExpirations)
	}
	ack(n)
	if err := a.Flush(time.Second); err != nil {
		t.Fatal(err)
	}
}

// TestAcksLeaveBeforeDeliveryWhenQueueFull pins the ordering that keeps a
// slow consumer from stalling the sender's window: with the delivery queue
// all but full, a burst that does not fit is still acknowledged in full at
// once; the receive loop blocks only afterwards, and nothing is lost or
// reordered when the consumer finally drains.
func TestAcksLeaveBeforeDeliveryWhenQueueFull(t *testing.T) {
	net := newMemNet()
	raw, ib := net.open(), net.open()
	b := New(ib)
	defer b.Close()
	defer raw.Close()

	const room = 3 // what the last burst will find free
	seq := uint32(1)
	for left := deliveryDepth - room; left > 0; {
		k := min(left, recvBurst)
		if _, err := raw.SendBatch(dataBurst(7, seq, k, 8), ib.addr); err != nil {
			t.Fatal(err)
		}
		seq, left = seq+uint32(k), left-k
	}
	deadline := time.Now().Add(5 * time.Second)
	for cum := uint32(0); cum != seq-1; {
		p, _, err := raw.Recv(time.Until(deadline))
		if err != nil {
			t.Fatalf("filling the queue: acknowledged to %d of %d: %v", cum, seq-1, err)
		}
		cum, _ = ackFields(t, p)
		raw.Recycle(p)
	}

	if _, err := raw.SendBatch(dataBurst(7, seq, recvBurst, 8), ib.addr); err != nil {
		t.Fatal(err)
	}
	last := seq + recvBurst - 1
	p, _, err := raw.Recv(2 * time.Second)
	if err != nil {
		t.Fatalf("no ACK for a burst that found the delivery queue full: %v", err)
	}
	if cum, _ := ackFields(t, p); cum != last {
		t.Fatalf("ACK cum = %d, want %d: the whole burst is acknowledged before any of it is queued", cum, last)
	}
	raw.Recycle(p)

	for want := uint32(1); want <= last; want++ {
		p, _, err := b.Recv(2 * time.Second)
		if err != nil {
			t.Fatalf("delivery %d of %d: %v", want, last, err)
		}
		if len(p) != 8 || p[0] != byte(want) {
			t.Fatalf("delivery %d carries %x", want, p)
		}
		b.Recycle(p)
	}
}

// TestInnerPoolBalanced pins buffer ownership end to end: the payload handed
// up is the inner endpoint's own buffer — or, under a quarter of it, a
// copy-break buffer from the endpoint's class pools — Recycle returns each
// to its own pool, and every buffer this layer is still holding when a
// conversation ends — parked in a reassembly ring, waiting in the delivery
// queue, or a sent frame awaiting its ACK — goes back too, whether the end
// is Close, eviction, or the peer starting over under a new epoch.
func TestInnerPoolBalanced(t *testing.T) {
	open := func(t *testing.T, cfg Config) (*memNet, *memEP, *memEP, *Endpoint) {
		net := newMemNet()
		raw, ib := net.open(), net.open()
		b := NewConfig(ib, cfg)
		t.Cleanup(func() { b.Close(); raw.Close() })
		return net, raw, ib, b
	}
	// settled waits for the receive loop to have dealt with everything sent
	// so far: k datagrams.
	settled := func(t *testing.T, b *Endpoint, k int64) {
		t.Helper()
		for deadline := time.Now().Add(2 * time.Second); b.Snapshot().RecvDatagrams < k; {
			if time.Now().After(deadline) {
				t.Fatalf("receive loop saw %d of %d datagrams", b.Snapshot().RecvDatagrams, k)
			}
			time.Sleep(time.Millisecond)
		}
	}
	balanced := func(t *testing.T, ib *memEP, b *Endpoint) {
		t.Helper()
		if out := ib.pool.Outstanding(); out != 0 {
			t.Fatalf("inner receive pool: %d buffers never came back", out)
		}
		if out := b.PoolOutstanding(); out != 0 {
			t.Fatalf("endpoint's own pools: %d buffers never came back", out)
		}
	}
	// held reports how many buffers the receiver holds: inner buffers
	// handed up in place, or copy-break buffers, by payload size.
	held := func(ib *memEP, b *Endpoint) int64 { return ib.pool.Outstanding() + b.PoolOutstanding() }

	for _, c := range []struct {
		prefix string
		size   int
		capOf  int
	}{
		{"", memBuf / 2, memBuf},                       // ≥ a quarter of the buffer: handed up uncopied
		{"copy-break: ", 100, classCap(classFor(100))}, // under a quarter: copied into a class buffer
	} {
		size := c.size
		t.Run(c.prefix+"recv and recycle", func(t *testing.T) {
			_, raw, ib, b := open(t, Config{})
			const n = 3 * recvBurst
			for i := 0; i < n; i += recvBurst {
				raw.SendBatch(dataBurst(7, uint32(i+1), recvBurst, size), ib.addr)
			}
			for i := 0; i < n; i++ {
				p, _, err := b.Recv(time.Second)
				if err != nil {
					t.Fatal(err)
				}
				if cap(p) != c.capOf {
					t.Fatalf("payload capacity %d, want %d", cap(p), c.capOf)
				}
				b.Recycle(p)
			}
			settled(t, b, n)
			balanced(t, ib, b)
			if h, m := b.RecvPoolStats(); h+m != n {
				t.Fatalf("RecvPoolStats = %d+%d, want the inner pool's %d gets", h, m, n)
			}
		})

		t.Run(c.prefix+"close with buffers parked and queued", func(t *testing.T) {
			_, raw, ib, b := open(t, Config{})
			// seqs 1-2 wait in the delivery queue; 4-6 park behind the hole at 3.
			raw.SendBatch(append(dataBurst(7, 1, 2, size), dataBurst(7, 4, 3, size)...), ib.addr)
			settled(t, b, 5)
			if out := held(ib, b); out != 5 {
				t.Fatalf("%d buffers held before Close, want 5 (2 queued, 3 parked)", out)
			}
			b.Close()
			balanced(t, ib, b)
		})

		t.Run(c.prefix+"eviction", func(t *testing.T) {
			_, raw, ib, b := open(t, Config{})
			raw.SendBatch(dataBurst(7, 2, 3, size), ib.addr) // all parked behind seq 1
			settled(t, b, 3)
			ent := b.tab.Lookup(raw.addr)
			if ent == nil {
				t.Fatal("peer missing")
			}
			ent.Unlock()
			b.evictEntry(ent)
			balanced(t, ib, b)
		})

		t.Run(c.prefix+"idle eviction", func(t *testing.T) {
			_, raw, ib, b := open(t, Config{IdleEvict: 20 * time.Millisecond})
			raw.SendBatch(dataBurst(7, 2, 3, size), ib.addr)
			for deadline := time.Now().Add(3 * time.Second); b.Peers() != 0 || b.Snapshot().RecvDatagrams == 0; {
				if time.Now().After(deadline) {
					t.Fatal("idle peer never evicted")
				}
				time.Sleep(10 * time.Millisecond)
			}
			balanced(t, ib, b)
		})

		t.Run(c.prefix+"epoch re-adoption", func(t *testing.T) {
			_, raw, ib, b := open(t, Config{})
			raw.SendBatch(dataBurst(7, 2, 3, size), ib.addr) // parked under epoch 7
			settled(t, b, 3)
			raw.SendBatch(dataBurst(8, 1, 1, size), ib.addr) // the peer starts over
			p, _, err := b.Recv(time.Second)
			if err != nil || p[0] != 1 {
				t.Fatalf("new conversation's first message: %x, %v", p, err)
			}
			b.Recycle(p)
			if p, _, err := b.Recv(20 * time.Millisecond); err == nil {
				t.Fatalf("stale epoch delivered %x", p)
			}
			balanced(t, ib, b)
		})
	}

	// The send side: frames in a window the peer never acknowledges, and
	// frames drawn from FramePool for a send that cannot happen, all go back.
	t.Run("framed send buffers: close", func(t *testing.T) {
		net := newMemNet()
		ia, silent := net.open(), net.open() // silent never acknowledges
		a := New(ia)
		defer silent.Close()
		if _, err := a.SendBatch(dataBurst(7, 1, 4, 100), silent.addr); err != nil {
			t.Fatal(err)
		}
		frames := [][]byte{a.FramePool().Get()[:50], a.FramePool().Get()[:60]}
		crcs := []uint32{crcx.Checksum(frames[0]), crcx.Checksum(frames[1])}
		if n, err := a.SendFrames(frames, crcs, silent.addr); n != 2 || err != nil {
			t.Fatalf("SendFrames = %d, %v", n, err)
		}
		if out := a.PoolOutstanding(); out != 6 {
			t.Fatalf("%d frames outstanding with 6 unacknowledged, want 6", out)
		}
		a.Close()
		if out := a.PoolOutstanding(); out != 0 {
			t.Fatalf("%d frames outstanding after Close", out)
		}
		late := [][]byte{a.FramePool().Get()[:10]}
		if _, err := a.SendFrames(late, []uint32{0}, silent.addr); err != transport.ErrClosed {
			t.Fatalf("SendFrames after Close: %v, want ErrClosed", err)
		}
		if out := a.PoolOutstanding(); out != 0 {
			t.Fatalf("a frame SendFrames refused stayed out of the pool (%d outstanding)", out)
		}
	})
}

// TestSteadyStateAllocFree pins the datapath's allocation count over an
// allocation-free inner endpoint: SendTo → RecvBatch → Recycle allocates
// nothing at all, on either side, ACK traffic included, whether the payload
// fills at least a quarter of the inner buffer and is handed up in it, or is
// smaller and copied into a buffer from its class pool — the big buffer
// does not travel with it.
func TestSteadyStateAllocFree(t *testing.T) {
	net := newMemNet()
	ia, ib := net.open(), net.open()
	a, b := New(ia), New(ib)
	defer a.Close()
	defer b.Close()
	pkts := make([][]byte, 1)
	froms := make([]transport.Addr, 1)
	roundTrip := func(payload []byte) func() {
		return func() {
			if err := a.SendTo(payload, ib.addr); err != nil {
				t.Fatal(err)
			}
			if n, err := b.RecvBatch(pkts, froms, 0); n != 1 || err != nil {
				t.Fatalf("RecvBatch = %d, %v", n, err)
			}
			b.Recycle(pkts[0])
		}
	}
	for _, c := range []struct {
		name   string
		size   int
		allocs float64
		capOf  func(n int) int
	}{
		{"quarter of the buffer or more: uncopied", memBuf/4 - dataTrailerLen, 0, func(int) int { return memBuf }},
		{"under a quarter: compacted", memBuf/4 - dataTrailerLen - 1, 0, func(n int) int { return classCap(classFor(n)) }},
	} {
		t.Run(c.name, func(t *testing.T) {
			rt := roundTrip(make([]byte, c.size))
			for i := 0; i < 4*windowSize; i++ { // warm: pools, scratch, cwnd
				rt()
			}
			if got := testing.AllocsPerRun(500, rt); got != c.allocs {
				t.Fatalf("%.2f allocs per message, want %.0f", got, c.allocs)
			}
			if got, want := cap(pkts[0]), c.capOf(c.size); got != want {
				t.Fatalf("delivered payload has capacity %d, want %d", got, want)
			}
		})
	}
	if err := a.Flush(time.Second); err != nil {
		t.Fatal(err)
	}
	if out := ia.pool.Outstanding() + ib.pool.Outstanding(); out != 0 {
		t.Fatalf("%d inner buffers outstanding after the run", out)
	}
	if out := a.PoolOutstanding() + b.PoolOutstanding(); out != 0 {
		t.Fatalf("%d frame or class buffers outstanding after the run", out)
	}
}

// TestSendBatchReachesInnerAsBatch pins the send side: a burst handed to
// SendBatch is framed under one lock and crosses the inner seam as one
// SendBatch call per window stretch, not one call per datagram.
func TestSendBatchReachesInnerAsBatch(t *testing.T) {
	net := newMemNet()
	ia, ib := net.open(), net.open()
	cb := &countingBatches{Datagram: ia}
	a, b := New(cb), New(ib)
	defer a.Close()
	defer b.Close()
	burst := make([][]byte, initialCwnd)
	for i := range burst {
		burst[i] = []byte(fmt.Sprintf("m-%02d", i))
	}
	if n, err := a.SendBatch(burst, ib.addr); n != len(burst) || err != nil {
		t.Fatalf("SendBatch = %d, %v", n, err)
	}
	if calls, pkts := cb.calls, cb.pkts; calls != 1 || pkts != len(burst) {
		t.Fatalf("a burst that fits the window crossed the inner seam in %d calls carrying %d datagrams, want 1 and %d", calls, pkts, len(burst))
	}
	for i := range burst {
		p, _, err := b.Recv(time.Second)
		if err != nil || !bytes.Equal(p, burst[i]) {
			t.Fatalf("message %d: %q, %v", i, p, err)
		}
		b.Recycle(p)
	}
}

// countingBatches counts the DATA-carrying SendBatch calls that reach the
// inner endpoint (ACKs go through SendTo).
type countingBatches struct {
	transport.Datagram
	calls, pkts int
}

func (c *countingBatches) SendBatch(pkts [][]byte, to transport.Addr) (int, error) {
	c.calls++
	c.pkts += len(pkts)
	return c.Datagram.SendBatch(pkts, to)
}
