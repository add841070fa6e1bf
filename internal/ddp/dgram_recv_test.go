package ddp

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"repro/internal/nio"
	"repro/internal/simnet"
	"repro/internal/transport"
)

func recvPair(t *testing.T) (ca, cb *DatagramChannel) {
	t.Helper()
	net := simnet.New(simnet.Config{})
	a, err := net.OpenDatagram("a", 0)
	if err != nil {
		t.Fatal(err)
	}
	b, err := net.OpenDatagram("b", 0)
	if err != nil {
		t.Fatal(err)
	}
	ca, cb = NewDatagramChannel(a), NewDatagramChannel(b)
	t.Cleanup(func() { ca.Close(); cb.Close() })
	return ca, cb
}

// TestRecvBatchBurstOverSimnet: a burst of sent messages comes back up in
// batches — fewer RecvBatch calls than segments — CRC-checked, with the
// receive counters live.
func TestRecvBatchBurstOverSimnet(t *testing.T) {
	ca, cb := recvPair(t)
	const count = 24
	for i := 0; i < count; i++ {
		msg := bytes.Repeat([]byte{byte(i)}, 600)
		if err := ca.SendUntagged(cb.LocalAddr(), QNSend, uint32(i), 0, nio.VecOf(msg)); err != nil {
			t.Fatal(err)
		}
	}
	segs := make([]Segment, 16)
	froms := make([]transport.Addr, 16)
	got := 0
	calls := 0
	for got < count {
		n, err := cb.RecvBatch(segs, froms, 2*time.Second)
		if err != nil {
			t.Fatalf("after %d: %v", got, err)
		}
		calls++
		for i := 0; i < n; i++ {
			if froms[i] != ca.LocalAddr() {
				t.Fatalf("from = %v", froms[i])
			}
			want := bytes.Repeat([]byte{byte(segs[i].MSN)}, 600)
			if !bytes.Equal(segs[i].Payload, want) {
				t.Fatalf("MSN %d payload corrupt", segs[i].MSN)
			}
			cb.Recycle(segs[i].Raw)
		}
		got += n
	}
	if calls >= count {
		t.Fatalf("%d RecvBatch calls for %d segments — no batching happened", calls, count)
	}
	batches, segments, recycled, _, _ := cb.RecvStats()
	if batches != int64(calls) || segments != count || recycled != count {
		t.Fatalf("RecvStats = %d batches, %d segments, %d recycled; want %d/%d/%d",
			batches, segments, recycled, calls, count, count)
	}
}

// TestRecvBatchDropsCorrupt: a datagram with a flipped byte fails CRC and
// is silently dropped (and counted); valid traffic in the same burst still
// arrives.
func TestRecvBatchDropsCorrupt(t *testing.T) {
	ca, cb := recvPair(t)
	// One valid message.
	if err := ca.SendUntagged(cb.LocalAddr(), QNSend, 1, 0, nio.VecOf([]byte("good"))); err != nil {
		t.Fatal(err)
	}
	// One corrupt datagram injected below DDP.
	raw := AppendHeader(nil, &Segment{QN: QNSend, MSN: 2, MsgLen: 3, Last: true})
	raw = append(raw, 'b', 'a', 'd')
	raw = nio.PutU32(raw, 0xdeadbeef) // wrong CRC
	if err := ca.Endpoint().SendTo(raw, cb.LocalAddr()); err != nil {
		t.Fatal(err)
	}
	segs := make([]Segment, 8)
	froms := make([]transport.Addr, 8)
	got := 0
	deadline := time.Now().Add(2 * time.Second)
	for got < 1 && time.Now().Before(deadline) {
		n, err := cb.RecvBatch(segs, froms, 200*time.Millisecond)
		if err != nil {
			if errors.Is(err, transport.ErrTimeout) {
				continue
			}
			t.Fatal(err)
		}
		for i := 0; i < n; i++ {
			if string(segs[i].Payload) != "good" {
				t.Fatalf("corrupt datagram surfaced: %+v", segs[i])
			}
			cb.Recycle(segs[i].Raw)
			got++
		}
	}
	if got != 1 {
		t.Fatal("valid message lost")
	}
	if n := cb.crcFail.Load(); n != 1 {
		t.Fatalf("crcFail = %d, want 1", n)
	}
}

// TestRecvBatchZeroCap: zero-length destination slices return immediately.
func TestRecvBatchZeroCap(t *testing.T) {
	_, cb := recvPair(t)
	if n, err := cb.RecvBatch(nil, nil, time.Millisecond); n != 0 || err != nil {
		t.Fatalf("n=%d err=%v", n, err)
	}
}
