package ddp

import (
	"fmt"
	"net/netip"
	"sync"
	"testing"
	"time"

	"repro/internal/crcx"
	"repro/internal/nio"
	"repro/internal/transport"
)

// replayEP is a feeder endpoint for receive-path benchmarks: it serves
// pre-encoded datagrams from a fixed ring through RecvBatch, Recycle and
// RecvPoolStats, so the full batched path is exercised with the wire taken
// out of the measurement. Buffers recycle through a
// freelist, so a warmed feeder allocates nothing.
type replayEP struct {
	discardEP
	mu     sync.Mutex
	free   [][]byte // recycled buffers, ready to serve again
	hits   int64
	misses int64
	proto  []byte // one encoded datagram, copied into fresh buffers

	corruptEvery int   // if > 0, flip the CRC trailer on every Nth datagram
	served       int64 // datagrams handed out, for the corruption cadence
}

func newReplayEP(pkt []byte) *replayEP {
	return &replayEP{discardEP: discardEP{maxDgram: transport.MaxDatagramSize}, proto: pkt}
}

func (r *replayEP) next() []byte {
	var buf []byte
	if n := len(r.free); n > 0 {
		buf = r.free[n-1]
		r.free = r.free[:n-1]
		r.hits++
	} else {
		r.misses++
		buf = make([]byte, len(r.proto))
		copy(buf, r.proto)
	}
	// Recycled buffers may carry a trailer corrupted by a previous round;
	// restore it, then corrupt on cadence.
	copy(buf[len(buf)-4:], r.proto[len(r.proto)-4:])
	r.served++
	if r.corruptEvery > 0 && r.served%int64(r.corruptEvery) == 0 {
		buf[len(buf)-1] ^= 0xff
	}
	return buf
}

func (r *replayEP) Recv(timeout time.Duration) ([]byte, transport.Addr, error) {
	r.mu.Lock()
	buf := r.next()
	r.mu.Unlock()
	return buf, netip.MustParseAddrPort("10.0.0.2:9"), nil
}

func (r *replayEP) RecvBatch(pkts [][]byte, froms []transport.Addr, timeout time.Duration) (int, error) {
	from := netip.MustParseAddrPort("10.0.0.2:9")
	r.mu.Lock()
	for i := range pkts {
		pkts[i] = r.next()
		froms[i] = from
	}
	r.mu.Unlock()
	return len(pkts), nil
}

func (r *replayEP) Recycle(p []byte) {
	r.mu.Lock()
	r.free = append(r.free, p)
	r.mu.Unlock()
}

func (r *replayEP) RecvPoolStats() (hits, misses int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.hits, r.misses
}

// encodeSegment builds one wire datagram: header, payload, CRC32C trailer.
func encodeSegment(payload []byte) []byte {
	proto := &Segment{QN: QNSend, MSN: 1, MsgLen: uint32(len(payload)), Last: true}
	pkt := AppendHeader(nil, proto)
	pkt = append(pkt, payload...)
	return nio.PutU32(pkt, crcx.Checksum(pkt))
}

// BenchmarkUDRecvPath measures the batched receive path — burst pull,
// CRC32C verify, parse, recycle — against a replay feeder, swept across
// batch sizes. Run with -benchmem: the acceptance target is 0 allocs/op.
func BenchmarkUDRecvPath(b *testing.B) {
	const size = 32 << 10
	for _, burst := range []int{1, 8, 32} {
		b.Run(fmt.Sprintf("burst=%d", burst), func(b *testing.B) {
			ep := newReplayEP(encodeSegment(make([]byte, size)))
			ch := NewDatagramChannel(ep)
			segs := make([]Segment, burst)
			froms := make([]transport.Addr, burst)
			// Warm the feeder's freelist and the channel scratch pool.
			for i := 0; i < 4; i++ {
				n, err := ch.RecvBatch(segs, froms, 0)
				if err != nil {
					b.Fatal(err)
				}
				for j := 0; j < n; j++ {
					ch.Recycle(segs[j].Raw)
				}
			}
			b.SetBytes(int64(size))
			b.ResetTimer()
			n := 0
			for n < b.N {
				k, err := ch.RecvBatch(segs, froms, 0)
				if err != nil {
					b.Fatal(err)
				}
				for i := 0; i < k; i++ {
					ch.Recycle(segs[i].Raw)
				}
				n += k
			}
		})
	}
}

// BenchmarkUDRecvPathLoss sweeps corruption rates through the batched
// receive path: CRC failures take the drop path (count, recycle, continue)
// while the rest of the burst is still delivered. Throughput is reported
// over valid segments only.
func BenchmarkUDRecvPathLoss(b *testing.B) {
	const size = 32 << 10
	const burst = 8
	for _, loss := range []struct {
		name  string
		every int
	}{
		{"loss=0%", 0},
		{"loss=1%", 100},
		{"loss=10%", 10},
	} {
		b.Run(loss.name, func(b *testing.B) {
			ep := newReplayEP(encodeSegment(make([]byte, size)))
			ep.corruptEvery = loss.every
			ch := NewDatagramChannel(ep)
			segs := make([]Segment, burst)
			froms := make([]transport.Addr, burst)
			for i := 0; i < 4; i++ {
				n, err := ch.RecvBatch(segs, froms, 0)
				if err != nil {
					b.Fatal(err)
				}
				for j := 0; j < n; j++ {
					ch.Recycle(segs[j].Raw)
				}
			}
			b.SetBytes(int64(size))
			b.ResetTimer()
			n := 0
			for n < b.N {
				k, err := ch.RecvBatch(segs, froms, 0)
				if err != nil {
					b.Fatal(err)
				}
				for i := 0; i < k; i++ {
					ch.Recycle(segs[i].Raw)
				}
				n += k
			}
			b.StopTimer()
			// Guard against a silently non-corrupting feeder — but only
			// once enough datagrams passed for the cadence to trigger
			// (the framework's b.N=1 sizing run serves just a few).
			if loss.every > 0 && ep.served > int64(loss.every) && ch.crcFail.Load() == 0 {
				b.Fatal("corrupting feeder produced no CRC failures")
			}
		})
	}
}

// TestRecvPathAllocFree pins the batched receive path at 0 allocs/op in
// steady state — the acceptance bar for the pooled receive datapath.
func TestRecvPathAllocFree(t *testing.T) {
	ep := newReplayEP(encodeSegment(make([]byte, 4096)))
	ch := NewDatagramChannel(ep)
	segs := make([]Segment, 8)
	froms := make([]transport.Addr, 8)
	drain := func() {
		n, err := ch.RecvBatch(segs, froms, 0)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < n; i++ {
			ch.Recycle(segs[i].Raw)
		}
	}
	for i := 0; i < 4; i++ {
		drain() // warm feeder freelist and scratch pool
	}
	if allocs := testing.AllocsPerRun(200, drain); allocs != 0 {
		t.Fatalf("batched receive allocates %.2f times per burst, want 0", allocs)
	}
}
