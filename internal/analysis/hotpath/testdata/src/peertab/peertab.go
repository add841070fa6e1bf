// Package peertab mirrors the sharded peer table's datapath lookup
// (internal/peertab, DESIGN.md §4.12): shard selection is pure hash
// arithmetic and the read path is one atomic snapshot load plus one read of
// an immutable map — no lock, no allocation. The key is an address value
// (netip.AddrPort's shape: the IP as two words, and a port), hashed as
// words. The fixture pins that this idiom stays clean under the hotpath
// contract and that the tempting shortcuts (keying by a rendered string,
// locking the stripe on the read path, doing the copy-on-write insert
// inline instead of outlining it) are flagged.
package peertab

import (
	"fmt"
	"sync"
	"sync/atomic"
)

type addr struct {
	hi, lo uint64
	port   uint16
}

type entry struct {
	key  addr
	hits int
}

type shard struct {
	mu   sync.Mutex
	snap atomic.Pointer[map[addr]*entry]
}

type table struct {
	shards []shard
	mask   uint32
}

// hashAddr is the word-mixing shape of peertab.HashAddr: pure integer
// arithmetic over the value, no byte loop.
//
//diwarp:hotpath
func hashAddr(a addr) uint32 {
	return uint32(mix64(a.lo ^ uint64(a.port)<<48 ^ mix64(a.hi)))
}

//diwarp:hotpath
func mix64(x uint64) uint64 {
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	return x ^ x>>33
}

// badRenderedKey keys the peer by its rendering — the string address this
// table's callers no longer carry: formatting allocates and boxes.
//
//diwarp:hotpath
func badRenderedKey(a addr) string {
	return fmt.Sprintf("%x:%x:%d", a.hi, a.lo, a.port) // want `calls fmt.Sprintf` `boxes` `boxes` `boxes`
}

// goodGet is the real Get shape: mask-select the stripe, one atomic load,
// one map read from the immutable snapshot. Clean.
//
//diwarp:hotpath
func (t *table) goodGet(a addr) *entry {
	s := &t.shards[hashAddr(a)&t.mask]
	return (*s.snap.Load())[a]
}

// goodTouch mutates through the entry pointer the snapshot handed out —
// still no locks or allocation on the fast path.
//
//diwarp:hotpath
func (t *table) goodTouch(a addr) bool {
	e := t.goodGet(a)
	if e == nil {
		return false
	}
	e.hits++
	return true
}

// badLockedGet guards the read path with the stripe lock — the global-mutex
// demux this table exists to kill.
//
//diwarp:hotpath
func (t *table) badLockedGet(a addr) *entry {
	s := &t.shards[hashAddr(a)&t.mask]
	s.mu.Lock() // want `takes a lock via sync method Lock`
	var snap map[addr]*entry
	if p := s.snap.Load(); p != nil {
		snap = *p
	}
	e := snap[a]
	s.mu.Unlock()
	return e
}

// badInlineCreate performs the copy-on-write insert on the annotated path:
// the map copy and the new entry both allocate. The real code outlines this
// into the unannotated GetOrCreate slow path.
//
//diwarp:hotpath
func (t *table) badInlineCreate(a addr) *entry {
	s := &t.shards[hashAddr(a)&t.mask]
	old := *s.snap.Load()
	if e := old[a]; e != nil {
		return e
	}
	next := make(map[addr]*entry, len(old)+1) // want `allocates with make`
	for k, v := range old {
		next[k] = v
	}
	e := &entry{key: a} // want `heap-allocates &composite literal`
	next[a] = e
	s.snap.Store(&next)
	return e
}
