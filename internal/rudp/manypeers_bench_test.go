package rudp

import (
	"errors"
	"fmt"
	"net/netip"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/transport"
)

// ackStub is a transport.Datagram that synthesizes a cumulative ACK for
// every 8th sequence number handed to SendTo. It isolates the endpoint's
// own demux and bookkeeping cost: there is no wire, no peer process, and
// no loss, so the benchmark below measures exactly the per-send table
// lookup, window accounting, and timer arming — the paths the sharded
// peer table exists to scale.
//
// The 1-in-8 thinning is protocol-correct (a cumulative ack clears every
// seq below it) and deliberate: acking every packet would make the
// endpoint's single receive loop the measured bottleneck instead of the
// send-side demux. 8 ≪ windowSize, so windows stay shallow and senders
// almost never block on window space. The un-acked tail of each peer's
// final stride retransmits until the run ends — which is fair game, since
// it exercises the retransmit scheduler's scaling too (the old code
// scanned every peer under the global mutex each 2ms tick).
type ackStub struct {
	acks chan stubAck
	done chan struct{}
}

type stubAck struct {
	pkt  []byte
	from transport.Addr
}

const ackEvery = 8

func newAckStub() *ackStub {
	return &ackStub{
		acks: make(chan stubAck, 1<<15),
		done: make(chan struct{}),
	}
}

func (s *ackStub) SendTo(p []byte, to transport.Addr) error {
	if !isData(p) {
		return nil // ACKs from the endpoint under test are discarded
	}
	seq := dataSeq(p)
	if seq%ackEvery != 0 {
		return nil
	}
	ack := appendAck(make([]byte, 0, ackLen), p[len(p)-epochBack], 0, seq, 0)
	select {
	case s.acks <- stubAck{pkt: ack, from: to}:
	case <-s.done:
	}
	return nil
}

func (s *ackStub) Recv(timeout time.Duration) ([]byte, transport.Addr, error) {
	var tch <-chan time.Time
	if timeout > 0 {
		t := time.NewTimer(timeout)
		defer t.Stop()
		tch = t.C
	}
	select {
	case a := <-s.acks:
		return a.pkt, a.from, nil
	case <-tch:
		return nil, transport.Addr{}, transport.ErrTimeout
	case <-s.done:
		return nil, transport.Addr{}, transport.ErrClosed
	}
}

// The batch half of the seam, as loops over the two calls above.
func (s *ackStub) SendBatch(pkts [][]byte, to transport.Addr) (int, error) {
	for i, p := range pkts {
		if err := s.SendTo(p, to); err != nil {
			return i, err
		}
	}
	return len(pkts), nil
}

func (s *ackStub) RecvBatch(pkts [][]byte, froms []transport.Addr, timeout time.Duration) (int, error) {
	var err error
	pkts[0], froms[0], err = s.Recv(timeout)
	if err != nil {
		return 0, err
	}
	return 1, nil
}

func (s *ackStub) Recycle([]byte)                {}
func (s *ackStub) RecvPoolStats() (int64, int64) { return 0, 0 }

func (s *ackStub) LocalAddr() transport.Addr { return netip.MustParseAddrPort("10.0.0.1:1") }

// MaxDatagram is kept small so the endpoint's wire-buffer pool deals in
// 2KB buffers: the benchmark sends 32-byte payloads, and 64KB size-class
// buffers would make allocator zeroing — identical in any table design —
// the dominant per-op cost instead of the demux under test.
func (s *ackStub) MaxDatagram() int { return 2048 }
func (s *ackStub) PathMTU() int     { return 1500 }
func (s *ackStub) Close() error {
	select {
	case <-s.done:
	default:
		close(s.done)
	}
	return nil
}

// BenchmarkRudpManyPeers sweeps concurrent senders across a growing peer
// population through one Endpoint — the many-logical-endpoints-over-one-QP
// shape of the paper's scalability argument. Run with -cpu to vary sender
// parallelism; ops/s must grow with cores instead of flatlining on a
// global endpoint mutex (EXPERIMENTS.md records the before/after).
//
// ErrPeerDead is retried, not fatal: a peer whose un-acked tail stride
// exhausted retries is evicted by contract, and the retry simply starts
// its fresh conversation — the eviction/readmission path is part of what
// scales (or does not).
func BenchmarkRudpManyPeers(b *testing.B) {
	for _, peers := range []int{1, 16, 256, 1024, 10240} {
		b.Run(fmt.Sprintf("peers=%d", peers), func(b *testing.B) {
			st := newAckStub()
			e := New(st)
			defer e.Close()
			addrs := make([]transport.Addr, peers)
			for i := range addrs {
				addrs[i] = netip.AddrPortFrom(netip.AddrFrom4([4]byte{10, 1, byte(i >> 8), byte(i)}), uint16(i%60000)+1)
			}
			payload := make([]byte, 32)
			var next atomic.Uint64
			var failed atomic.Value
			var revived atomic.Int64
			b.ReportAllocs()
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				for pb.Next() {
					i := next.Add(1)
					to := addrs[i%uint64(peers)]
					err := e.SendTo(payload, to)
					if errors.Is(err, ErrPeerDead) {
						revived.Add(1)
						err = e.SendTo(payload, to)
					}
					if err != nil {
						failed.Store(err)
						return
					}
				}
			})
			b.StopTimer()
			if err := failed.Load(); err != nil {
				b.Fatal(err)
			}
			if n := revived.Load(); n > 0 {
				b.ReportMetric(float64(n), "revives")
			}
		})
	}
}
