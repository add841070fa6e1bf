package ddp

import (
	"fmt"
	"net/netip"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/nio"
	"repro/internal/transport"
)

// discardEP is a sink Datagram endpoint: SendTo accepts and drops every
// packet. It isolates the send path's own cost (segmentation, CRC, buffer
// management) from any real or simulated wire below it. Its SendBatch is a
// loop over SendTo — the shape of a per-datagram LLP such as rudp.
type discardEP struct {
	maxDgram int
	pkts     atomic.Int64
	batches  atomic.Int64
}

func (d *discardEP) SendTo(p []byte, to transport.Addr) error {
	d.pkts.Add(1)
	return nil
}

func (d *discardEP) Recv(timeout time.Duration) ([]byte, transport.Addr, error) {
	return nil, transport.Addr{}, transport.ErrTimeout
}

func (d *discardEP) SendBatch(pkts [][]byte, to transport.Addr) (int, error) {
	for _, p := range pkts {
		d.SendTo(p, to)
	}
	return len(pkts), nil
}

func (d *discardEP) RecvBatch([][]byte, []transport.Addr, time.Duration) (int, error) {
	return 0, transport.ErrTimeout
}

func (d *discardEP) Recycle([]byte)                {}
func (d *discardEP) RecvPoolStats() (int64, int64) { return 0, 0 }

func (d *discardEP) LocalAddr() transport.Addr { return netip.MustParseAddrPort("10.0.0.1:1") }
func (d *discardEP) MaxDatagram() int          { return d.maxDgram }
func (d *discardEP) PathMTU() int              { return transport.DefaultMTU }
func (d *discardEP) Close() error              { return nil }

// discardBatchEP accepts whole batches in one step, the way simnet and the
// UDP endpoint do.
type discardBatchEP struct{ discardEP }

func (d *discardBatchEP) SendBatch(pkts [][]byte, to transport.Addr) (int, error) {
	d.pkts.Add(int64(len(pkts)))
	d.batches.Add(1)
	return len(pkts), nil
}

// BenchmarkUDSendPath measures the segmented UD send path end to end —
// header encode, payload copy, CRC32C, and hand-off to the LLP — against a
// discard endpoint. Run with -benchmem: the acceptance target is ~0
// allocs/op (EXPERIMENTS.md records the trajectory).
func BenchmarkUDSendPath(b *testing.B) {
	sizes := []int{1 << 10, 64 << 10, 512 << 10}
	for _, batch := range []bool{false, true} {
		label := "sendto"
		if batch {
			label = "batch"
		}
		for _, size := range sizes {
			b.Run(fmt.Sprintf("%s/%d", label, size), func(b *testing.B) {
				var ep transport.Datagram
				if batch {
					ep = &discardBatchEP{discardEP{maxDgram: transport.MaxDatagramSize}}
				} else {
					ep = &discardEP{maxDgram: transport.MaxDatagramSize}
				}
				ch := NewDatagramChannel(ep)
				vec := nio.VecOf(make([]byte, size))
				to := netip.MustParseAddrPort("10.0.0.2:2")
				b.SetBytes(int64(size))
				b.ResetTimer()
				for b.Loop() {
					if err := ch.SendUntagged(to, QNSend, 1, 0, vec); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkUDSendPathParallel measures concurrent posters sharing one
// channel — the contention case the pooled datapath exists for: without a
// shared send buffer, posters must not serialize on each other's wire I/O.
func BenchmarkUDSendPathParallel(b *testing.B) {
	const size = 64 << 10
	ep := &discardBatchEP{discardEP{maxDgram: transport.MaxDatagramSize}}
	ch := NewDatagramChannel(ep)
	to := netip.MustParseAddrPort("10.0.0.2:2")
	b.SetBytes(size)
	b.RunParallel(func(pb *testing.PB) {
		vec := nio.VecOf(make([]byte, size))
		for pb.Next() {
			if err := ch.SendUntagged(to, QNSend, 1, 0, vec); err != nil {
				b.Fatal(err)
			}
		}
	})
}
