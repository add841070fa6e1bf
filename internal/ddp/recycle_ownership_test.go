package ddp

import (
	"net/netip"
	"testing"
	"time"

	"repro/internal/crcx"
	"repro/internal/nio"
	"repro/internal/transport"
)

// scriptedEP is a stub LLP that hands RecvBatch one prepared burst and
// records every Recycle by buffer identity, so the test can prove each
// delivered buffer is returned exactly once no matter which path disposed of
// it (corrupt-drop inside parseBatch vs. consumer recycle after delivery).
type scriptedEP struct {
	burst    [][]byte
	served   bool
	recycled map[*byte]int
}

func (s *scriptedEP) SendTo(p []byte, to transport.Addr) error { return nil }
func (s *scriptedEP) Recv(timeout time.Duration) ([]byte, transport.Addr, error) {
	return nil, transport.Addr{}, transport.ErrClosed
}
func (s *scriptedEP) SendBatch(pkts [][]byte, to transport.Addr) (int, error) {
	return len(pkts), nil
}
func (s *scriptedEP) RecvPoolStats() (int64, int64) { return 0, 0 }
func (s *scriptedEP) LocalAddr() transport.Addr     { return netip.MustParseAddrPort("10.0.0.1:1") }
func (s *scriptedEP) MaxDatagram() int              { return 65507 }
func (s *scriptedEP) PathMTU() int                  { return 1500 }
func (s *scriptedEP) Close() error                  { return nil }

func (s *scriptedEP) RecvBatch(pkts [][]byte, froms []transport.Addr, timeout time.Duration) (int, error) {
	if s.served {
		return 0, transport.ErrTimeout
	}
	s.served = true
	n := copy(pkts, s.burst)
	for i := 0; i < n; i++ {
		froms[i] = netip.MustParseAddrPort("10.0.0.2:9")
	}
	return n, nil
}

func (s *scriptedEP) Recycle(p []byte) {
	if len(p) == 0 {
		return
	}
	s.recycled[&p[0]]++
}

// TestCorruptDropRecyclesExactlyOnce pins the receive burst's buffer
// ownership under corruption: parseBatch recycles a CRC-failed datagram
// itself, the consumer recycles delivered ones, and no buffer may travel
// back to the pool twice — a double-put would hand one backing array to two
// future receives (the bug class the chaos harness's corruption schedules
// exist to flush out).
func TestCorruptDropRecyclesExactlyOnce(t *testing.T) {
	good := func(msn uint32, body string) []byte {
		pkt := AppendHeader(nil, &Segment{QN: QNSend, MSN: msn, MsgLen: uint32(len(body)), Last: true})
		pkt = append(pkt, body...)
		return nio.PutU32(pkt, crcx.Checksum(pkt))
	}
	bad := func(msn uint32, body string) []byte {
		pkt := AppendHeader(nil, &Segment{QN: QNSend, MSN: msn, MsgLen: uint32(len(body)), Last: true})
		pkt = append(pkt, body...)
		return nio.PutU32(pkt, 0xdeadbeef)
	}
	ep := &scriptedEP{
		burst:    [][]byte{bad(1, "junk"), good(2, "keep"), bad(3, "junk2"), good(4, "keep2")},
		recycled: make(map[*byte]int),
	}
	want := make(map[*byte]bool, len(ep.burst))
	for _, p := range ep.burst {
		want[&p[0]] = true
	}

	ch := NewDatagramChannel(ep)
	defer ch.Close()
	segs := make([]Segment, 8)
	froms := make([]transport.Addr, 8)
	n, err := ch.RecvBatch(segs, froms, time.Second)
	if err != nil || n != 2 {
		t.Fatalf("RecvBatch = %d, %v; want 2 valid segments", n, err)
	}
	for i := 0; i < n; i++ {
		ch.Recycle(segs[i].Raw)
	}

	if len(ep.recycled) != len(ep.burst) {
		t.Fatalf("%d distinct buffers recycled, want all %d", len(ep.recycled), len(ep.burst))
	}
	for ptr, times := range ep.recycled {
		if !want[ptr] {
			t.Fatalf("foreign buffer %p recycled", ptr)
		}
		if times != 1 {
			t.Fatalf("buffer %p recycled %d times, want exactly once", ptr, times)
		}
	}
}
