package nio

import (
	"sync"
	"sync/atomic"
)

// The idle bound is a byte budget, not a buffer count: a pool retains up to
// idleBudgetBytes/size free buffers, clamped to [minIdleBufs, maxIdleBufs].
// At the 64 KB datagram size that is 512 idle buffers — ~32 MB, a bounded
// slab like an RNIC's receive ring. Smaller size classes get proportionally
// more buffers for the same memory: a 2 KB pool retains 16384, which is
// what a many-peer endpoint needs — with thousands of peers each holding a
// few un-acked window buffers, a fixed 256-buffer bound degenerates into
// drop-on-Put / allocate-on-Get churn at exactly the scale the sharded
// peer tables are built for.
const (
	idleBudgetBytes = 32 << 20
	minIdleBufs     = 64
	maxIdleBufs     = 1 << 16

	// poolStripes is the number of independent free lists (power of two).
	// A single free-list mutex serializes every Get/Put in the process;
	// with per-peer locking upstream, that one lock would be the last
	// global serialization point left on the datapath.
	poolStripes = 8
)

func idleBound(size int) int {
	n := idleBudgetBytes / size
	if n < minIdleBufs {
		n = minIdleBufs
	}
	if n > maxIdleBufs {
		n = maxIdleBufs
	}
	return n
}

// Pool hands out fixed-capacity byte buffers and recycles them, bounding the
// allocation rate of the datapath. It is safe for concurrent use.
//
// A Pool models the receive-buffer slab an RNIC would carve out of host
// memory: Get always returns a zero-length slice with the pool's capacity so
// stale payload bytes can never leak between messages.
//
// The free lists are mutex-guarded stacks of slice headers rather than a
// sync.Pool: storing a []byte in an interface (or re-boxing a *[]byte on
// every Put) costs one 24-byte allocation per recycle, which would defeat
// the zero-alloc send path. The stack is striped poolStripes ways so
// concurrent senders on different peers do not collide on one lock; the
// Put counter doubles as the stripe selector, spreading returns
// round-robin, and Get probes from the stripe of the latest Put backwards
// (see TryGet).
type Pool struct {
	size    int
	maxIdle int // per-stripe bound
	gets    atomic.Int64
	misses  atomic.Int64
	puts    atomic.Int64
	// hint is where a run of Gets with no Put between them last found a
	// buffer: the Put count it saw, shifted left 3, and the number of
	// stripes it probed back from the latest Put's. Stale once a Put lands.
	hint atomic.Uint64

	stripes [poolStripes]poolStripe

	guard poolGuard // double-put detector, active under -tags pooldebug only
}

type poolStripe struct {
	mu   sync.Mutex
	free [][]byte
	_    [32]byte // pad to a cache line so stripes do not false-share
}

// NewPool returns a pool of buffers with capacity size bytes.
func NewPool(size int) *Pool {
	if size <= 0 {
		panic("nio: NewPool size must be positive")
	}
	per := idleBound(size) / poolStripes
	if per < 1 {
		per = 1
	}
	return &Pool{size: size, maxIdle: per}
}

// Fill stocks the free lists with the buffers slab cuts into (len(slab) /
// BufSize of them), so an owner that is about to Get many buffers at once —
// a receive ring posted at start-up — pays for one allocation instead of
// one per buffer. The buffers are ordinary pool buffers from then on; the
// slab stays reachable for as long as any of them is. Fill counts as neither
// Get nor Put, and stops at the idle bound like Put does.
func (pl *Pool) Fill(slab []byte) {
	for i := 0; (i+1)*pl.size <= len(slab); i++ {
		b := slab[i*pl.size : i*pl.size : (i+1)*pl.size]
		s := &pl.stripes[i&(poolStripes-1)]
		s.mu.Lock()
		if len(s.free) < pl.maxIdle {
			s.free = append(s.free, b)
		}
		s.mu.Unlock()
	}
}

// BufSize reports the capacity of buffers handed out by the pool.
func (pl *Pool) BufSize() int { return pl.size }

// Get returns an empty buffer with the pool's capacity.
func (pl *Pool) Get() []byte {
	b, _ := pl.TryGet()
	return b
}

// TryGet is Get, additionally reporting whether the buffer was served from
// a free list (hit) or had to be allocated (miss). Datapaths that export
// their own hit/miss telemetry use it to count without re-deriving deltas
// from Stats.
func (pl *Pool) TryGet() ([]byte, bool) {
	pl.gets.Add(1)
	// Start at the stripe the most recent Put pushed onto and walk back
	// through the stripes earlier Puts used: LIFO across stripes, so the
	// buffer handed out is the cache-hot one, and a pool cycling one buffer
	// takes one stripe lock per Get. A run of Gets with no Put between
	// them — draining a filled pool — resumes where the previous one hit
	// (hint) instead of re-probing the stripes it emptied. On a miss, sweep
	// them all before paying for an allocation — a nearly-empty pool must
	// still find the buffers it does have (and the recycle invariant
	// depends on it).
	last := uint64(pl.puts.Load())
	skip := uint64(0)
	if h := pl.hint.Load(); h>>3 == last {
		skip = h & (poolStripes - 1)
	}
	for i := skip; i < skip+poolStripes; i++ {
		s := &pl.stripes[(last-i)&(poolStripes-1)]
		s.mu.Lock()
		if n := len(s.free); n > 0 {
			b := s.free[n-1]
			s.free[n-1] = nil
			s.free = s.free[:n-1]
			s.mu.Unlock()
			if i != skip {
				pl.hint.Store(last<<3 | i&(poolStripes-1))
			}
			pl.guard.onGet(b)
			return b[:0], true
		}
		s.mu.Unlock()
	}
	pl.misses.Add(1)
	b := make([]byte, 0, pl.size)
	pl.guard.onGet(b)
	return b, false
}

// Put recycles a buffer previously returned by Get. Buffers of foreign
// capacity are dropped so the pool's size invariant holds; so are buffers
// beyond the idle bound, to keep the slab's memory footprint fixed.
func (pl *Pool) Put(b []byte) {
	if cap(b) != pl.size {
		return
	}
	pl.guard.onPut(b)
	s := &pl.stripes[uint64(pl.puts.Add(1))&(poolStripes-1)]
	s.mu.Lock()
	if len(s.free) < pl.maxIdle {
		s.free = append(s.free, b[:0])
	}
	s.mu.Unlock()
}

// Stats reports the pool's hit/miss counters: hits are Gets served from a
// recycled buffer, misses are Gets that had to allocate. Their ratio is the
// datapath's pool hit rate.
func (pl *Pool) Stats() (hits, misses int64) {
	m := pl.misses.Load()
	return pl.gets.Load() - m, m
}

// Outstanding reports how many buffers have been handed out by Get and not
// yet returned through Put (foreign-capacity Puts are not counted on either
// side). At quiesce a leak-free datapath reads 0: the invariant the chaos
// harness asserts after every schedule.
func (pl *Pool) Outstanding() int64 {
	return pl.gets.Load() - pl.puts.Load()
}

// idle reports the total buffers currently parked across all free lists
// (test and telemetry helper; takes every stripe lock).
func (pl *Pool) idle() int {
	n := 0
	for i := range pl.stripes {
		s := &pl.stripes[i]
		s.mu.Lock()
		n += len(s.free)
		s.mu.Unlock()
	}
	return n
}
