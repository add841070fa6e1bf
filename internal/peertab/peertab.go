// Package peertab is the sharded connection manager under every per-peer
// table in the stack. The paper's UD-based iWARP removes per-connection QP
// state so one QP serves arbitrarily many peers (§III); RDMAvisor draws the
// consequence for software: the demux from packet source to peer state must
// cost O(1) and contend on nothing, or the single QP just trades kernel
// state for a user-space lock convoy. Before this package, rudp, msg, and
// core each guarded a flat `map[addr]*state` with one endpoint-wide mutex —
// every send, every ACK, and every retransmit tick serialized all peers.
//
// The table is striped N ways by a caller-supplied hash (HashAddr for a
// peer, so one address computes one shard everywhere). Each shard separates
// its two concerns:
//
//   - Structural changes (insert, evict) take the shard mutex and publish a
//     new immutable snapshot map (copy-on-write). They are rare: once per
//     peer lifetime, not once per packet. Per-message state — a transfer,
//     a tracker, an outstanding request — does not belong in a peer table:
//     it would pay a snapshot copy per message and count as a peer in the
//     occupancy and eviction metrics. Its owner keeps it in a plain map
//     under one lock.
//   - The hot lookup loads the snapshot through an atomic pointer and
//     indexes a map no writer will ever mutate: no lock, no retry loop,
//     zero allocations (pinned by TestGetAllocFree and the hotpath
//     analyzer).
//
// Per-peer state lives in the Entry and is guarded by the Entry's own
// mutex, so two peers never contend once looked up. The shard lock orders
// strictly before the entry lock (declared via //diwarp:lockafter); callers
// must therefore never take a shard-structural operation while holding an
// entry lock — mark state under the entry lock, unlock, then Evict.
//
// Eviction discipline: an entry leaves the table in two steps — its `gone`
// flag flips under the entry lock (the linearization point; exactly one
// caller wins), then the shard removes it from the snapshot. Readers that
// looked up an entry before it went must lock it and check Gone before
// trusting it; Lookup and GetOrCreate wrap that retry loop.
package peertab

import (
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/telemetry"
)

// DefaultShards is the stripe count when Options.Shards is zero. 64 shards
// keep the COW insert cost trivial at typical peer counts while leaving
// lock contention negligible at 8–16 cores; soak-scale tables (100k+
// peers) raise it so each snapshot copy stays small.
const DefaultShards = 64

// ErrCapacity reports an insert rejected by Options.Capacity. The caller
// owns admission policy: rudp surfaces it from SendTo, the UD demux drops
// the packet. Rejections count in diwarp_peertab_admission_rejects_total.
var ErrCapacity = errors.New("peertab: table at capacity")

// Options configures a Table.
type Options struct {
	// Shards is the stripe count, rounded up to a power of two.
	// Zero selects DefaultShards.
	Shards int
	// Capacity bounds the table's total entry count; GetOrCreate returns
	// ErrCapacity beyond it. Zero means unbounded. The bound is checked
	// against a table-wide atomic outside any global lock, so concurrent
	// inserts on distinct shards may overshoot by at most Shards-1
	// entries — a bounded, harmless slack for an admission limit.
	Capacity int
}

// Entry is one peer's slot in a Table. Key and V are set before the entry
// is published and never change; V's fields are guarded by the entry lock
// (callers with internal atomics may bypass it where they document so).
type Entry[K comparable, V any] struct {
	Key K
	V   V

	// lastUsed is the Touch timestamp (unix nanos) EvictIdle compares
	// against. Atomic so hot-path readers can stamp it without the lock.
	lastUsed atomic.Int64

	// mu guards V and gone. It orders after the owning shard's mutex:
	// GetOrCreate and EvictIdle lock entries while holding shard.mu, so
	// taking shard.mu while holding an entry lock would deadlock.
	//diwarp:lockafter shard.mu
	mu   sync.Mutex
	gone bool
}

// Lock acquires the entry's state lock.
func (e *Entry[K, V]) Lock() { e.mu.Lock() }

// Unlock releases the entry's state lock.
func (e *Entry[K, V]) Unlock() { e.mu.Unlock() }

// Gone reports whether the entry has been evicted. Callers must hold the
// entry lock; a true result means the entry is (or is about to be) absent
// from the table and any state in V is orphaned — re-lookup the key.
func (e *Entry[K, V]) Gone() bool { return e.gone }

// Touch stamps the entry's idle clock. Hot paths call it with a timestamp
// they already have; EvictIdle treats the entry as busy until IdleFor
// exceeds the eviction threshold.
//
//diwarp:hotpath
func (e *Entry[K, V]) Touch(now int64) { e.lastUsed.Store(now) }

// IdleFor returns how long ago the entry was last touched.
func (e *Entry[K, V]) IdleFor(now time.Time) time.Duration {
	return time.Duration(now.UnixNano() - e.lastUsed.Load())
}

// shard is one stripe: a mutex serializing structural changes and an
// atomic pointer to the current immutable snapshot map.
type shard[K comparable, V any] struct {
	mu    sync.Mutex
	snap  atomic.Pointer[map[K]*Entry[K, V]]
	count atomic.Int64 // len of current snapshot, for imbalance telemetry
}

// Table is an N-way striped peer table. See the package comment for the
// locking and eviction discipline.
type Table[K comparable, V any] struct {
	hash   func(K) uint32
	shards []shard[K, V]
	mask   uint32
	cap    int
	len    atomic.Int64

	occupancy *telemetry.Gauge   // diwarp_peertab_occupancy
	shardMax  *telemetry.Gauge   // diwarp_peertab_shard_max
	shardMin  *telemetry.Gauge   // diwarp_peertab_shard_min
	evicted   *telemetry.Counter // diwarp_peertab_evictions_total
	rejected  *telemetry.Counter // diwarp_peertab_admission_rejects_total
}

// New builds a table striped by hash. The hash must be deterministic for a
// key's lifetime; peer-keyed tables use HashAddr (see hash.go), so one peer
// hashes identically at every layer.
func New[K comparable, V any](hash func(K) uint32, opts Options) *Table[K, V] {
	n := opts.Shards
	if n <= 0 {
		n = DefaultShards
	}
	// Round up to a power of two so shard selection is a mask, not a mod.
	pow := 1
	for pow < n {
		pow <<= 1
	}
	t := &Table[K, V]{
		hash:      hash,
		shards:    make([]shard[K, V], pow),
		mask:      uint32(pow - 1),
		cap:       opts.Capacity,
		occupancy: telemetry.Default.Gauge("diwarp_peertab_occupancy"),
		shardMax:  telemetry.Default.Gauge("diwarp_peertab_shard_max"),
		shardMin:  telemetry.Default.Gauge("diwarp_peertab_shard_min"),
		evicted:   telemetry.Default.Counter("diwarp_peertab_evictions_total"),
		rejected:  telemetry.Default.Counter("diwarp_peertab_admission_rejects_total"),
	}
	empty := make(map[K]*Entry[K, V])
	for i := range t.shards {
		t.shards[i].snap.Store(&empty)
	}
	return t
}

// shardFor selects the stripe for a key.
//
//diwarp:hotpath
func (t *Table[K, V]) shardFor(k K) *shard[K, V] {
	return &t.shards[t.hash(k)&t.mask]
}

// Get returns the entry for k from the current snapshot, or nil. This is
// the datapath lookup: one atomic load and one read of an immutable map —
// no lock, no allocation. The entry may have been evicted concurrently;
// callers that mutate state must Lock and check Gone (or use Lookup).
//
//diwarp:hotpath
func (t *Table[K, V]) Get(k K) *Entry[K, V] {
	return (*t.shardFor(k).snap.Load())[k]
}

// Lookup returns the entry for k locked and alive, or nil if absent. It
// absorbs the evict race: a hit that went gone before the lock landed is
// retried against the snapshot, which the evictor is guaranteed to update
// without needing this entry's lock.
func (t *Table[K, V]) Lookup(k K) *Entry[K, V] {
	for {
		e := t.Get(k)
		if e == nil {
			return nil
		}
		e.mu.Lock()
		if !e.gone {
			//diwarp:ignore unlockcheck: lock hand-off is the contract — the caller receives the entry locked and alive, and must Unlock it
			return e
		}
		e.mu.Unlock()
	}
}

// GetOrCreate returns the live entry for k, creating it if absent. init,
// if non-nil, runs on a new entry before it becomes visible to any other
// goroutine (no lock needed inside). The returned entry is NOT locked and
// — like Get's result — may go stale; mutating callers should use
// LockOrCreate. created reports whether this call inserted the entry.
func (t *Table[K, V]) GetOrCreate(k K, init func(*Entry[K, V])) (e *Entry[K, V], created bool, err error) {
	if e := t.Get(k); e != nil {
		return e, false, nil
	}
	s := t.shardFor(k)
	s.mu.Lock()
	defer s.mu.Unlock()
	old := *s.snap.Load()
	if e := old[k]; e != nil {
		// Re-check under the shard lock: a racing insert may have won. A
		// gone entry still in the snapshot (evictor between flag and
		// removal) is replaced here rather than returned, so callers'
		// retry loops terminate.
		e.mu.Lock()
		gone := e.gone
		e.mu.Unlock()
		if !gone {
			return e, false, nil
		}
	}
	if t.cap > 0 && int(t.len.Load()) >= t.cap {
		t.rejected.Inc()
		return nil, false, ErrCapacity
	}
	e = &Entry[K, V]{Key: k}
	e.lastUsed.Store(time.Now().UnixNano())
	if init != nil {
		init(e)
	}
	next := make(map[K]*Entry[K, V], len(old)+1)
	for kk, vv := range old {
		if kk == k {
			continue // the gone entry detected above
		}
		next[kk] = vv
	}
	next[k] = e
	s.snap.Store(&next)
	s.count.Store(int64(len(next)))
	t.len.Add(int64(len(next) - len(old)))
	t.occupancy.Add(int64(len(next) - len(old)))
	t.updateImbalance()
	return e, true, nil
}

// LockOrCreate is GetOrCreate with the evict race absorbed: the returned
// entry is locked and alive. The caller must Unlock it.
func (t *Table[K, V]) LockOrCreate(k K, init func(*Entry[K, V])) (e *Entry[K, V], created bool, err error) {
	for {
		e, created, err = t.GetOrCreate(k, init)
		if err != nil {
			return nil, false, err
		}
		e.mu.Lock()
		if !e.gone {
			//diwarp:ignore unlockcheck: lock hand-off is the contract — the caller receives the entry locked and alive, and must Unlock it
			return e, created, nil
		}
		e.mu.Unlock()
	}
}

// Evict removes k's current entry. Returns the evicted entry, or nil if k
// was absent (or already being evicted by another caller).
func (t *Table[K, V]) Evict(k K) *Entry[K, V] {
	e := t.Get(k)
	if e == nil || !t.EvictEntry(e) {
		return nil
	}
	return e
}

// EvictEntry removes exactly the entry e (not whatever currently maps to
// e.Key — a peer that died and was re-admitted must not have its fresh
// state torn down by a stale evictor). Exactly one caller wins the gone
// transition and gets true. The caller must NOT hold the entry lock: the
// flag flip takes it, and shard removal follows after it is released
// (shard.mu orders before Entry.mu).
func (t *Table[K, V]) EvictEntry(e *Entry[K, V]) bool {
	e.mu.Lock()
	if e.gone {
		e.mu.Unlock()
		return false
	}
	e.gone = true
	e.mu.Unlock()
	t.remove(e)
	t.evicted.Inc()
	return true
}

// remove deletes e from its shard's snapshot if still present. The
// pointer comparison makes removal idempotent against GetOrCreate having
// already replaced a gone entry.
func (t *Table[K, V]) remove(e *Entry[K, V]) {
	s := t.shardFor(e.Key)
	s.mu.Lock()
	defer s.mu.Unlock()
	old := *s.snap.Load()
	if old[e.Key] != e {
		return
	}
	next := make(map[K]*Entry[K, V], len(old)-1)
	for kk, vv := range old {
		if vv != e {
			next[kk] = vv
		}
	}
	s.snap.Store(&next)
	s.count.Store(int64(len(next)))
	t.len.Add(-1)
	t.occupancy.Add(-1)
	t.updateImbalance()
}

// Range calls f for each entry in the table's current snapshots, stopping
// early if f returns false. Entries are visited unlocked; f must Lock and
// check Gone before mutating. The iteration is a consistent view per
// shard, not across shards — the same guarantee a scrape of a live table
// can promise.
func (t *Table[K, V]) Range(f func(*Entry[K, V]) bool) {
	for i := range t.shards {
		for _, e := range *t.shards[i].snap.Load() {
			if !f(e) {
				return
			}
		}
	}
}

// EvictIdle scans for entries idle longer than olderThan and evicts each
// one shouldEvict approves. shouldEvict runs under the entry lock and is
// where the owner tears down per-peer resources (recycle window buffers,
// disarm retransmit timers, wake blocked senders) — returning false vetoes
// the eviction (e.g. packets still unacknowledged). Returns the number
// evicted.
func (t *Table[K, V]) EvictIdle(olderThan time.Duration, shouldEvict func(*Entry[K, V]) bool) int {
	now := time.Now()
	cutoff := now.Add(-olderThan).UnixNano()
	evicted := 0
	for i := range t.shards {
		for _, e := range *t.shards[i].snap.Load() {
			if e.lastUsed.Load() > cutoff {
				continue
			}
			e.mu.Lock()
			if e.gone || e.lastUsed.Load() > cutoff || (shouldEvict != nil && !shouldEvict(e)) {
				e.mu.Unlock()
				continue
			}
			e.gone = true
			e.mu.Unlock()
			t.remove(e)
			t.evicted.Inc()
			evicted++
		}
	}
	return evicted
}

// Clear evicts every entry, calling teardown (if non-nil) under each
// entry's lock. For endpoint Close paths.
func (t *Table[K, V]) Clear(teardown func(*Entry[K, V])) {
	for i := range t.shards {
		for _, e := range *t.shards[i].snap.Load() {
			e.mu.Lock()
			if e.gone {
				e.mu.Unlock()
				continue
			}
			e.gone = true
			if teardown != nil {
				teardown(e)
			}
			e.mu.Unlock()
			t.remove(e)
			t.evicted.Inc()
		}
	}
}

// Len returns the current entry count.
func (t *Table[K, V]) Len() int { return int(t.len.Load()) }

// Stats is a point-in-time occupancy summary.
type Stats struct {
	Occupancy int // total entries
	Shards    int // stripe count
	ShardMax  int // most-loaded stripe
	ShardMin  int // least-loaded stripe
}

// Stats recomputes and returns the occupancy summary, refreshing the
// imbalance gauges as a side effect.
func (t *Table[K, V]) Stats() Stats {
	max, min := t.updateImbalance()
	return Stats{
		Occupancy: t.Len(),
		Shards:    len(t.shards),
		ShardMax:  int(max),
		ShardMin:  int(min),
	}
}

// updateImbalance refreshes the shard max/min gauges from the per-shard
// counters. O(Shards) atomic loads on the structural-change path — cheap
// against a copy-on-write insert, and never on the packet path.
func (t *Table[K, V]) updateImbalance() (max, min int64) {
	min = int64(^uint64(0) >> 1)
	for i := range t.shards {
		n := t.shards[i].count.Load()
		if n > max {
			max = n
		}
		if n < min {
			min = n
		}
	}
	t.shardMax.Set(max)
	t.shardMin.Set(min)
	return max, min
}
