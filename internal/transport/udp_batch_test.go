package transport

import (
	"bytes"
	"errors"
	"fmt"
	"testing"
	"time"
)

func udpPair(t testing.TB) (a, b *UDPEndpoint) {
	t.Helper()
	a, err := ListenUDP("127.0.0.1", 0)
	if err != nil {
		t.Skipf("no loopback UDP: %v", err)
	}
	b, err = ListenUDP("127.0.0.1", 0)
	if err != nil {
		a.Close()
		t.Fatal(err)
	}
	t.Cleanup(func() { a.Close(); b.Close() })
	return a, b
}

// TestUDPRecvBatch: one RecvBatch call blocks for the first datagram, then
// drains whatever else the socket already holds, without waiting for the
// batch to fill.
func TestUDPRecvBatch(t *testing.T) {
	a, b := udpPair(t)
	const count = 5
	sent := make(map[string]bool)
	for i := 0; i < count; i++ {
		msg := []byte(fmt.Sprintf("burst-%d", i))
		sent[string(msg)] = false
		if err := a.SendTo(msg, b.LocalAddr()); err != nil {
			t.Fatal(err)
		}
	}
	pkts := make([][]byte, 8)
	froms := make([]Addr, 8)
	got := 0
	for got < count {
		n, err := b.RecvBatch(pkts, froms, 2*time.Second)
		if err != nil {
			t.Fatalf("after %d: %v", got, err)
		}
		if n < 1 {
			t.Fatalf("RecvBatch returned %d with nil error", n)
		}
		for i := 0; i < n; i++ {
			if froms[i] != a.LocalAddr() {
				t.Fatalf("from = %v, want %v", froms[i], a.LocalAddr())
			}
			seen, ok := sent[string(pkts[i])]
			if !ok || seen {
				t.Fatalf("unexpected or duplicate packet %q", pkts[i])
			}
			sent[string(pkts[i])] = true
			b.Recycle(pkts[i])
		}
		got += n
	}
	// The drain must not have waited for a full batch of 8.
	if _, err := b.RecvBatch(pkts, froms, 50*time.Millisecond); !errors.Is(err, ErrTimeout) {
		t.Fatalf("empty socket: err = %v", err)
	}
}

// TestUDPRecvBatchPoolRoundTrip: recycled receive buffers come back out of
// the pool, and RecvPoolStats sees the hits.
func TestUDPRecvBatchPoolRoundTrip(t *testing.T) {
	a, b := udpPair(t)
	var ps RecvPoolStats = b

	msg := bytes.Repeat([]byte{7}, 512)
	for i := 0; i < 8; i++ {
		if err := a.SendTo(msg, b.LocalAddr()); err != nil {
			t.Fatal(err)
		}
		pkt, _, err := b.Recv(2 * time.Second)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(pkt, msg) {
			t.Fatalf("payload corrupt on round %d", i)
		}
		b.Recycle(pkt)
	}
	hits, misses := ps.RecvPoolStats()
	if hits+misses < 8 {
		t.Fatalf("pool stats %d+%d don't cover 8 receives", hits, misses)
	}
	if hits == 0 {
		t.Fatalf("no pool hits after recycling every buffer (misses=%d)", misses)
	}
}

// TestUDPRecvAllocFree pins the pooled single-datagram receive path at
// 0 allocs/op in steady state: pooled buffer, source as a value.
func TestUDPRecvAllocFree(t *testing.T) {
	a, b := udpPair(t)
	msg := bytes.Repeat([]byte{3}, 1024)
	// Warm: first receive populates the buffer pool.
	for i := 0; i < 4; i++ {
		if err := a.SendTo(msg, b.LocalAddr()); err != nil {
			t.Fatal(err)
		}
		pkt, _, err := b.Recv(2 * time.Second)
		if err != nil {
			t.Fatal(err)
		}
		b.Recycle(pkt)
	}
	// Pre-queue the datagrams in the socket buffer so the measured closure
	// is receive-only.
	const runs = 100
	dst := b.LocalAddr()
	for i := 0; i < runs+1; i++ { // +1: AllocsPerRun's warm-up call
		if err := a.SendTo(msg, dst); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(runs, func() {
		pkt, _, err := b.Recv(2 * time.Second)
		if err != nil {
			t.Fatal(err)
		}
		b.Recycle(pkt)
	})
	if allocs != 0 {
		t.Fatalf("Recv allocates %.2f times per datagram, want 0", allocs)
	}
}

// BenchmarkUDPRecvBatch measures the batched UDP receive path over
// loopback. Run with -benchmem: the acceptance target is 0 allocs/op on
// the receive side (the sender's cost is excluded via a feeder goroutine).
func BenchmarkUDPRecvBatch(b *testing.B) {
	for _, burst := range []int{1, 8, 32} {
		b.Run(fmt.Sprintf("burst=%d", burst), func(b *testing.B) {
			src, dst := udpPair(b)
			msg := bytes.Repeat([]byte{5}, 1024)
			stop := make(chan struct{})
			done := make(chan struct{})
			go func() {
				defer close(done)
				dstAddr := dst.LocalAddr()
				feed := make([][]byte, 64)
				for i := range feed {
					feed[i] = msg
				}
				for {
					select {
					case <-stop:
						return
					default:
					}
					// Feed ahead; the socket buffer bounds the backlog.
					_, _ = src.SendBatch(feed, dstAddr)
				}
			}()
			pkts := make([][]byte, burst)
			froms := make([]Addr, burst)
			b.SetBytes(int64(len(msg)))
			b.ResetTimer()
			n := 0
			for n < b.N {
				k, err := dst.RecvBatch(pkts, froms, 2*time.Second)
				if err != nil {
					b.Fatal(err)
				}
				for i := 0; i < k; i++ {
					dst.Recycle(pkts[i])
				}
				n += k
			}
			b.StopTimer()
			close(stop)
			<-done
		})
	}
}
