package simnet

import (
	"sync"
	"sync/atomic"
)

// Packet-buffer pools: a real stack services its datapath from fixed
// receive rings rather than allocating per packet, and at small message
// sizes allocator pressure would otherwise dominate the datagram path's
// cost. Two size classes cover the workloads: MTU-and-below (SIP, media
// frames) and full 64 KB datagram segments.
const (
	smallPktBuf = 2 << 10
	largePktBuf = 64<<10 + 512
)

// Pool hit/miss accounting, mirroring nio.Pool.Stats: gets counts every
// getPktBuf, misses the ones that had to allocate (sync.Pool New or an
// oversized request). DatagramEndpoint re-exports these through
// transport.RecvPoolStats so the layer above can surface them as telemetry.
// puts counts every size-class buffer returned through putPktBuf, so the
// chaos harness can assert the gets == puts balance at quiesce.
var pktBufGets, pktBufMisses, pktBufPuts atomic.Int64

// The pools hold pointers to the arrays themselves, not to slice headers: a
// buffer goes back as its own array pointer, so a Put boxes nothing.
var smallPool = sync.Pool{New: func() any {
	pktBufMisses.Add(1)
	return new([smallPktBuf]byte)
}}
var largePool = sync.Pool{New: func() any {
	pktBufMisses.Add(1)
	return new([largePktBuf]byte)
}}

// getPktBuf returns a buffer of length n backed by a pooled array when n
// fits a size class.
//
//diwarp:acquire
func getPktBuf(n int) []byte {
	pktBufGets.Add(1)
	switch {
	case n <= smallPktBuf:
		return smallPool.Get().(*[smallPktBuf]byte)[:n]
	case n <= largePktBuf:
		return largePool.Get().(*[largePktBuf]byte)[:n]
	default:
		pktBufMisses.Add(1)
		return make([]byte, n)
	}
}

// putPktBuf recycles a buffer obtained from getPktBuf. Foreign buffers
// (wrong capacity) are dropped silently, per transport.Recycler's contract.
func putPktBuf(p []byte) {
	switch cap(p) {
	case smallPktBuf:
		pktBufPuts.Add(1)
		smallPool.Put((*[smallPktBuf]byte)(p[:smallPktBuf]))
	case largePktBuf:
		pktBufPuts.Add(1)
		largePool.Put((*[largePktBuf]byte)(p[:largePktBuf]))
	}
}

// pktBufStats reports the packet pools' cumulative hit/miss counters.
func pktBufStats() (hits, misses int64) {
	m := pktBufMisses.Load()
	return pktBufGets.Load() - m, m
}

// PktBufBalance reports the packet pools' cumulative get and put counters.
// Oversized (unpooled) gets are excluded from the get count so the two sides
// compare like-for-like: at quiesce, with every delivered datagram consumed
// and recycled, gets - puts is the number of pooled buffers still held —
// the chaos harness's leak invariant. The counters are process-global
// (shared by every simnet Network), so checkers compare deltas.
func PktBufBalance() (gets, puts int64) {
	// Oversized requests bump both gets and misses but never reach a pool;
	// they can never be Put back. They are indistinguishable here from
	// size-class allocation misses, which DO get recycled, so callers that
	// need an exact balance must avoid >64 KB datagrams (the chaos harness
	// does). All size-class traffic balances exactly.
	return pktBufGets.Load(), pktBufPuts.Load()
}
