package msg

import (
	"fmt"
	"net/netip"
	"sync/atomic"
	"testing"

	"repro/internal/transport"
)

// BenchmarkMsgManyPeers drives parallel eager sends across a growing peer
// population through one message endpoint. The discard transport and an
// effectively infinite credit window keep the wire and flow control out of
// the measurement: what remains is the per-send peer-ledger lookup, the
// exact structure the sharded peer table replaces. ops/s at high -cpu must
// scale with the peer count spreading contention, not collapse on a global
// peer-map mutex (EXPERIMENTS.md records the before/after).
func BenchmarkMsgManyPeers(b *testing.B) {
	for _, peers := range []int{1, 16, 256, 1024, 10240} {
		b.Run(fmt.Sprintf("peers=%d", peers), func(b *testing.B) {
			e, err := Open(newDiscardEP(), Config{
				EagerCredits: 1 << 30, // never stall against the discard sink
				RecvDepth:    4,
				Handler:      func(Message) {},
			})
			if err != nil {
				b.Fatal(err)
			}
			defer e.Close()
			addrs := make([]transport.Addr, peers)
			for i := range addrs {
				addrs[i] = netip.AddrPortFrom(netip.AddrFrom4([4]byte{10, 1, byte(i >> 8), byte(i)}), uint16(i%60000)+1)
			}
			payload := make([]byte, 512)
			var next atomic.Uint64
			var failed atomic.Value
			b.ReportAllocs()
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				for pb.Next() {
					i := next.Add(1)
					if err := e.Send(addrs[i%uint64(peers)], payload); err != nil {
						failed.Store(err)
						return
					}
				}
			})
			b.StopTimer()
			if err := failed.Load(); err != nil {
				b.Fatal(err)
			}
		})
	}
}
