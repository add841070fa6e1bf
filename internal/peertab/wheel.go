package peertab

import (
	"sync"
	"sync/atomic"
	"time"
)

// Wheel is a hashed timer wheel for per-peer retransmit deadlines. It
// replaces the O(peers)-under-one-lock retransmit scan: the tick visits
// only the slots whose time has come, and each slot holds only the peers
// whose next deadline hashes there. With W slots of granularity g, a
// deadline within the W·g horizon is filed in exactly the slot that fires
// at its RTO; deadlines beyond the horizon wrap and are re-examined once
// per revolution (each scan checks the stored tick before declaring the key
// due, so a wrapped entry fires on time, never early).
//
// A deadline is filed, and popped, by tick: the first tick boundary at or
// after it. The sweep of tick t therefore pops everything filed for t, and
// a key fires within one granularity after its deadline and never before.
// (Popping by nanosecond instead left a key whose deadline fell later inside
// the tick being swept sitting behind the cursor for a whole revolution.)
//
// Concurrency contract: all Arm/Disarm calls for one key must be
// serialized by the key's owner (in rudp, the peer's Entry lock), and
// Advance must be called from a single goroutine (the tick loop). Slot
// mutexes order after the entry lock — Arm/Disarm run with the entry lock
// held — so Advance must NEVER lock an entry while holding a slot mutex;
// it collects due keys under the slot lock and returns them for the
// caller to process lock-free of the wheel.
type Wheel[K comparable] struct {
	granularity time.Duration
	slots       []wslot[K]
	mask        int64
	// lastTick is the most recent tick index Advance has swept or is
	// sweeping: Advance publishes a tick BEFORE it locks that tick's slot.
	// Arm reads it to clamp already-expired deadlines forward into the next
	// sweep — filing them at their literal tick would park them behind the
	// cursor for a full revolution — and reads it again under the slot lock:
	// if it still precedes the chosen tick, the sweep of that tick has not
	// taken the slot lock yet and will see the filing.
	lastTick atomic.Int64
}

type wslot[K comparable] struct {
	// mu guards m. Ordered after the owning peer's entry lock: rudp arms
	// and disarms while holding Entry.mu.
	//diwarp:lockafter Entry.mu
	mu sync.Mutex
	m  map[K]int64 // key → tick the key is due at; nil until first armed
}

// Fired is one key popped by Advance, tagged with the slot it came from so
// the owner can detect stale pops (the key was disarmed and re-armed into
// a different slot between the pop and the owner taking its entry lock).
type Fired[K comparable] struct {
	Key  K
	Slot int
}

// NewWheel builds a wheel with the given slot count (rounded up to a power
// of two) and tick granularity.
func NewWheel[K comparable](slots int, granularity time.Duration) *Wheel[K] {
	pow := 1
	for pow < slots {
		pow <<= 1
	}
	w := &Wheel[K]{
		granularity: granularity,
		slots:       make([]wslot[K], pow),
		mask:        int64(pow - 1),
	}
	w.lastTick.Store(time.Now().UnixNano() / int64(granularity))
	return w
}

// Arm files k to fire at deadline and returns the slot index the caller
// must remember for Disarm. Caller holds k's owner lock.
func (w *Wheel[K]) Arm(k K, deadline time.Time) int {
	g := int64(w.granularity)
	tick := (deadline.UnixNano() + g - 1) / g
	for {
		if last := w.lastTick.Load(); tick <= last {
			tick = last + 1
		}
		slot := int(tick & w.mask)
		s := &w.slots[slot]
		s.mu.Lock()
		if w.lastTick.Load() >= tick {
			// The cursor reached this tick between the read above and the
			// lock: its sweep may already be past this slot. File later.
			s.mu.Unlock()
			continue
		}
		if s.m == nil {
			// Slot maps are made on first use: a wheel is built per endpoint,
			// and most of its slots never hold a key.
			s.m = make(map[K]int64)
		}
		s.m[k] = tick
		s.mu.Unlock()
		return slot
	}
}

// Disarm removes k from slot. A no-op if Advance already popped it —
// exactly the idempotence the evict-mid-tick race needs. Caller holds k's
// owner lock.
func (w *Wheel[K]) Disarm(k K, slot int) {
	s := &w.slots[slot]
	s.mu.Lock()
	delete(s.m, k)
	s.mu.Unlock()
}

// Advance sweeps every slot between the previous sweep and now, popping
// keys whose tick has come and appending them to buf (reused across ticks to
// keep the loop alloc-free at steady state). Keys with wrapped deadlines
// (filed more than one revolution out) stay put for a later sweep.
// Single-caller: the owner's tick loop.
func (w *Wheel[K]) Advance(now time.Time, buf []Fired[K]) []Fired[K] {
	nowTick := now.UnixNano() / int64(w.granularity)
	last := w.lastTick.Load()
	if nowTick <= last {
		return buf
	}
	// A long stall (suspended VM, stopped world) may owe more ticks than
	// the wheel has slots; one full revolution covers them all.
	from := last + 1
	if nowTick-from >= int64(len(w.slots)) {
		from = nowTick - int64(len(w.slots)) + 1
	}
	for t := from; t <= nowTick; t++ {
		w.lastTick.Store(t) // before the slot lock: see Arm
		slot := int(t & w.mask)
		s := &w.slots[slot]
		s.mu.Lock()
		for k, due := range s.m {
			if due <= nowTick {
				delete(s.m, k)
				buf = append(buf, Fired[K]{Key: k, Slot: slot})
			}
		}
		s.mu.Unlock()
	}
	return buf
}

// Armed returns the number of keys currently filed — the quiesce invariant
// for eviction tests: a clean shutdown leaves zero armed timers.
func (w *Wheel[K]) Armed() int {
	n := 0
	for i := range w.slots {
		s := &w.slots[i]
		s.mu.Lock()
		n += len(s.m)
		s.mu.Unlock()
	}
	return n
}
