package peertab

import (
	"errors"
	"fmt"
	"net/netip"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

type testVal struct {
	n     int
	freed bool
}

func newTestTable(opts Options) *Table[string, testVal] {
	return New[string, testVal](hashString, opts)
}

// hashString stripes the tests' string-keyed tables: FNV-1a by hand.
func hashString(k string) uint32 {
	h := uint32(2166136261)
	for i := 0; i < len(k); i++ {
		h = (h ^ uint32(k[i])) * 16777619
	}
	return h
}

func TestGetOrCreateAndGet(t *testing.T) {
	tab := newTestTable(Options{Shards: 4})
	e, created, err := tab.GetOrCreate("a", func(e *Entry[string, testVal]) { e.V.n = 7 })
	if err != nil || !created {
		t.Fatalf("first create: created=%v err=%v", created, err)
	}
	if e.V.n != 7 || e.Key != "a" {
		t.Fatalf("init not applied: %+v", e)
	}
	e2, created, err := tab.GetOrCreate("a", nil)
	if err != nil || created || e2 != e {
		t.Fatalf("second create returned created=%v e2==e %v err=%v", created, e2 == e, err)
	}
	if g := tab.Get("a"); g != e {
		t.Fatal("Get missed the inserted entry")
	}
	if g := tab.Get("missing"); g != nil {
		t.Fatal("Get invented an entry")
	}
	if tab.Len() != 1 {
		t.Fatalf("Len = %d, want 1", tab.Len())
	}
}

func TestEvictEntryExactlyOnce(t *testing.T) {
	tab := newTestTable(Options{})
	e, _, _ := tab.GetOrCreate("a", nil)
	if !tab.EvictEntry(e) {
		t.Fatal("first evict lost")
	}
	if tab.EvictEntry(e) {
		t.Fatal("second evict won too")
	}
	if tab.Get("a") != nil || tab.Len() != 0 {
		t.Fatal("entry still visible after evict")
	}
	e.Lock()
	if !e.Gone() {
		t.Fatal("evicted entry not marked gone")
	}
	e.Unlock()
}

// TestEvictEntryIsPointerExact pins the re-admission race: evicting a
// stale entry must not tear down the fresh entry that replaced it under
// the same key.
func TestEvictEntryIsPointerExact(t *testing.T) {
	tab := newTestTable(Options{})
	old, _, _ := tab.GetOrCreate("a", nil)
	tab.EvictEntry(old)
	fresh, created, _ := tab.GetOrCreate("a", nil)
	if !created || fresh == old {
		t.Fatal("re-admission did not create a fresh entry")
	}
	if tab.EvictEntry(old) {
		t.Fatal("stale evictor won against an already-gone entry")
	}
	if tab.Get("a") != fresh {
		t.Fatal("fresh entry was collateral damage of the stale evict")
	}
}

// TestLockOrCreateSkipsGone pins the retry loop: an entry that went gone
// between the snapshot read and the lock must not be returned.
func TestLockOrCreateSkipsGone(t *testing.T) {
	tab := newTestTable(Options{})
	old, _, _ := tab.GetOrCreate("a", nil)
	tab.EvictEntry(old)
	e, created, err := tab.LockOrCreate("a", nil)
	if err != nil {
		t.Fatal(err)
	}
	if e == old || !created {
		t.Fatal("LockOrCreate returned the gone entry")
	}
	if e.Gone() {
		t.Fatal("returned entry is gone")
	}
	e.Unlock()
}

func TestCapacity(t *testing.T) {
	tab := newTestTable(Options{Shards: 2, Capacity: 3})
	for i := 0; i < 3; i++ {
		if _, _, err := tab.GetOrCreate(fmt.Sprint(i), nil); err != nil {
			t.Fatal(err)
		}
	}
	_, _, err := tab.GetOrCreate("overflow", nil)
	if !errors.Is(err, ErrCapacity) {
		t.Fatalf("admission beyond capacity: err=%v", err)
	}
	// Existing keys stay reachable at capacity.
	if _, created, err := tab.GetOrCreate("1", nil); err != nil || created {
		t.Fatalf("existing key rejected at capacity: created=%v err=%v", created, err)
	}
	// Eviction frees a slot.
	tab.Evict("0")
	if _, _, err := tab.GetOrCreate("overflow", nil); err != nil {
		t.Fatalf("admission after evict: %v", err)
	}
}

func TestEvictIdle(t *testing.T) {
	tab := newTestTable(Options{})
	a, _, _ := tab.GetOrCreate("a", nil)
	b, _, _ := tab.GetOrCreate("b", nil)
	past := time.Now().Add(-time.Hour).UnixNano()
	a.Touch(past)
	b.Touch(past)
	vetoed := 0
	n := tab.EvictIdle(time.Minute, func(e *Entry[string, testVal]) bool {
		if e.Key == "b" {
			vetoed++
			return false // still busy
		}
		e.V.freed = true
		return true
	})
	if n != 1 || vetoed != 1 {
		t.Fatalf("evicted %d vetoed %d, want 1/1", n, vetoed)
	}
	if tab.Get("a") != nil || tab.Get("b") == nil {
		t.Fatal("wrong entry evicted")
	}
	if !a.V.freed {
		t.Fatal("teardown callback did not run under the entry lock")
	}
	// A recent Touch protects the entry without the veto.
	b.Touch(time.Now().UnixNano())
	if n := tab.EvictIdle(time.Minute, nil); n != 0 {
		t.Fatalf("evicted %d recently-touched entries", n)
	}
}

func TestClear(t *testing.T) {
	tab := newTestTable(Options{})
	for i := 0; i < 10; i++ {
		tab.GetOrCreate(fmt.Sprint(i), nil)
	}
	torn := 0
	tab.Clear(func(e *Entry[string, testVal]) { torn++ })
	if torn != 10 || tab.Len() != 0 {
		t.Fatalf("Clear tore down %d of 10, Len=%d", torn, tab.Len())
	}
}

func TestStats(t *testing.T) {
	tab := newTestTable(Options{Shards: 4})
	for i := 0; i < 64; i++ {
		tab.GetOrCreate(fmt.Sprint(i), nil)
	}
	s := tab.Stats()
	if s.Occupancy != 64 || s.Shards != 4 {
		t.Fatalf("stats %+v", s)
	}
	if s.ShardMax < s.ShardMin || s.ShardMax == 0 {
		t.Fatalf("implausible imbalance: %+v", s)
	}
	if s.ShardMax > 2*64/4+16 {
		t.Fatalf("FNV spread badly skewed: max %d of 64 over 4 shards", s.ShardMax)
	}
}

// TestGetAllocFree pins the hot lookup at zero allocations — the property
// the hotpath analyzer enforces statically and the datapath depends on.
func TestGetAllocFree(t *testing.T) {
	tab := newTestTable(Options{})
	for i := 0; i < 100; i++ {
		tab.GetOrCreate(fmt.Sprint(i), nil)
	}
	var sink *Entry[string, testVal]
	allocs := testing.AllocsPerRun(1000, func() {
		sink = tab.Get("42")
	})
	if sink == nil {
		t.Fatal("lookup missed")
	}
	if allocs != 0 {
		t.Fatalf("Get allocates %.2f per lookup, want 0", allocs)
	}
}

// TestHammer races inserts, lookups, touches, and evicts across shards
// under -race. The invariants: a looked-up live entry is always the one
// the table maps its key to, and the final Len matches a serial count.
func TestHammer(t *testing.T) {
	tab := newTestTable(Options{Shards: 8})
	const keys = 64
	var wg sync.WaitGroup
	stop := make(chan struct{})
	var ops atomic.Int64
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				k := fmt.Sprint((g*31 + i) % keys)
				switch i % 4 {
				case 0, 1:
					e, _, err := tab.LockOrCreate(k, func(e *Entry[string, testVal]) { e.V.n = g })
					if err != nil {
						t.Error(err)
						return
					}
					e.V.n++
					e.Touch(time.Now().UnixNano())
					e.Unlock()
				case 2:
					if e := tab.Lookup(k); e != nil {
						if e.Gone() {
							t.Error("Lookup returned a gone entry")
							e.Unlock()
							return
						}
						e.Unlock()
					}
				case 3:
					if e := tab.Get(k); e != nil {
						tab.EvictEntry(e)
					}
				}
				ops.Add(1)
			}
		}(g)
	}
	time.Sleep(500 * time.Millisecond)
	close(stop)
	wg.Wait()
	if ops.Load() < 1000 {
		t.Fatalf("hammer barely ran: %d ops", ops.Load())
	}
	// Quiesce invariant: Len agrees with a serial scan.
	n := 0
	tab.Range(func(e *Entry[string, testVal]) bool { n++; return true })
	if n != tab.Len() {
		t.Fatalf("Len=%d but Range saw %d", tab.Len(), n)
	}
}

// TestHammerCapacity races admission against eviction under a tight bound
// and checks the occupancy never runs away past the documented slack.
func TestHammerCapacity(t *testing.T) {
	const cap = 32
	tab := newTestTable(Options{Shards: 4, Capacity: cap})
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				k := fmt.Sprint((g*17 + i) % (2 * cap))
				if _, _, err := tab.GetOrCreate(k, nil); err != nil {
					tab.Evict(fmt.Sprint(i % (2 * cap)))
				}
			}
		}(g)
	}
	time.Sleep(300 * time.Millisecond)
	close(stop)
	wg.Wait()
	if n := tab.Len(); n > cap+4 /* Shards-1 slack */ {
		t.Fatalf("occupancy %d blew past capacity %d + shard slack", n, cap)
	}
}

// TestHashAddr pins the one peer hash: an IPv4 address hashes the same
// through its fast path as its 4-in-6 spelling does through the 16-byte
// one, consecutive hosts and ports spread evenly over the stripes, and a
// hash costs no allocation.
func TestHashAddr(t *testing.T) {
	v4 := netip.MustParseAddrPort("10.1.2.3:4791")
	mapped := netip.AddrPortFrom(netip.AddrFrom16(v4.Addr().As16()), v4.Port())
	if mapped.Addr().Is4() || HashAddr(v4) != HashAddr(mapped) {
		t.Fatalf("HashAddr(%v) = %#x but HashAddr(%v) = %#x", v4, HashAddr(v4), mapped, HashAddr(mapped))
	}
	if HashAddr(v4) == HashAddr(netip.AddrPortFrom(v4.Addr(), v4.Port()+1)) {
		t.Fatal("the port does not reach the hash")
	}
	const stripes, hosts, ports = 64, 256, 16
	var load [stripes]int
	for h := 0; h < hosts; h++ {
		for p := 0; p < ports; p++ {
			ap := netip.AddrPortFrom(netip.AddrFrom4([4]byte{10, 0, byte(h >> 8), byte(h)}), uint16(49152+p))
			load[HashAddr(ap)%stripes]++
		}
	}
	mean := hosts * ports / stripes
	for i, n := range load {
		if n < mean/2 || n > mean*2 {
			t.Fatalf("stripe %d holds %d of %d addresses (mean %d): %v", i, n, hosts*ports, mean, load)
		}
	}
	v6 := netip.MustParseAddrPort("[2001:db8::1]:80")
	if n := testing.AllocsPerRun(100, func() { HashAddr(v4); HashAddr(v6) }); n != 0 {
		t.Fatalf("HashAddr allocates %.1f times", n)
	}
}
