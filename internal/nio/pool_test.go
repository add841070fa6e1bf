package nio

import (
	"testing"
	"time"
)

func TestPoolRecycleInvariant(t *testing.T) {
	pl := NewPool(128)
	a := pl.Get()
	if len(a) != 0 || cap(a) != 128 {
		t.Fatalf("Get: len=%d cap=%d, want 0/128", len(a), cap(a))
	}
	// Dirty the buffer, recycle it, and take it back out.
	a = append(a, 0xAA, 0xBB, 0xCC)
	first := &a[:1][0]
	pl.Put(a)
	b := pl.Get()
	if &b[:1][0] != first {
		t.Fatal("Get after Put must hand back the recycled buffer's storage")
	}
	if len(b) != 0 {
		t.Fatalf("recycled Get: len=%d, want 0 — stale payload bytes must not be visible", len(b))
	}
	if cap(b) != 128 {
		t.Fatalf("recycled Get: cap=%d, want 128", cap(b))
	}
}

func TestPoolDropsForeignCapacity(t *testing.T) {
	pl := NewPool(64)
	warm := pl.Get()
	pl.Put(warm) // one known-good buffer in the free list
	pl.Put(make([]byte, 0, 65))
	pl.Put(make([]byte, 0, 1))
	pl.Put(nil)
	if got := pl.Get(); cap(got) != 64 {
		t.Fatalf("pool handed out a foreign buffer of cap %d", cap(got))
	}
	if got := pl.Get(); cap(got) != 64 {
		t.Fatalf("pool handed out a foreign buffer of cap %d", cap(got))
	}
}

func TestPoolStats(t *testing.T) {
	pl := NewPool(32)
	a := pl.Get() // miss
	pl.Put(a)
	pl.Get() // hit
	pl.Get() // miss
	hits, misses := pl.Stats()
	if hits != 1 || misses != 2 {
		t.Fatalf("Stats = %d hits / %d misses, want 1/2", hits, misses)
	}
}

// TestPoolOutstanding pins the get/put balance counter the chaos harness's
// leak checker reads: it must track exactly the buffers held by consumers,
// and foreign-capacity Puts must not perturb it.
func TestPoolOutstanding(t *testing.T) {
	pl := NewPool(32)
	a, b := pl.Get(), pl.Get()
	if out := pl.Outstanding(); out != 2 {
		t.Fatalf("Outstanding = %d with two live buffers, want 2", out)
	}
	pl.Put(make([]byte, 0, 99)) // foreign: dropped, not a return
	if out := pl.Outstanding(); out != 2 {
		t.Fatalf("Outstanding = %d after foreign Put, want 2", out)
	}
	pl.Put(a)
	pl.Put(b)
	if out := pl.Outstanding(); out != 0 {
		t.Fatalf("Outstanding = %d at quiesce, want 0", out)
	}
}

func TestPoolIdleBound(t *testing.T) {
	const size = 64 << 10
	bound := idleBound(size) // 32 MB budget / 64 KB = 512
	pl := NewPool(size)
	bufs := make([][]byte, bound+16)
	for i := range bufs {
		bufs[i] = pl.Get()
	}
	for _, b := range bufs {
		pl.Put(b)
	}
	if idle := pl.idle(); idle != bound {
		t.Fatalf("free lists hold %d buffers, want the %d bound", idle, bound)
	}
}

// TestPoolIdleBoundScalesWithSize pins the byte-budget semantics: the idle
// bound is a memory budget, so small size classes retain proportionally more
// buffers. A many-peer endpoint with thousands of shallow windows depends on
// this — a fixed buffer-count bound would drop-and-reallocate on every
// window turn once outstanding buffers exceed it.
func TestPoolIdleBoundScalesWithSize(t *testing.T) {
	if small, large := idleBound(2048), idleBound(64<<10); small <= large {
		t.Fatalf("idleBound(2KB)=%d not larger than idleBound(64KB)=%d", small, large)
	}
	if got := idleBound(2048) * 2048; got > idleBudgetBytes {
		t.Fatalf("idle budget exceeded: %d bytes", got)
	}
	if b := idleBound(1); b != maxIdleBufs {
		t.Fatalf("tiny size class not clamped: %d", b)
	}
	if b := idleBound(1 << 30); b != minIdleBufs {
		t.Fatalf("huge size class not clamped: %d", b)
	}
}

// TestPoolGetPutAllocFree pins the recycle loop itself at zero allocations:
// if Put ever re-boxes the slice header (the sync.Pool failure mode), every
// pooled send would pay one allocation per segment.
func TestPoolGetPutAllocFree(t *testing.T) {
	pl := NewPool(256)
	pl.Put(pl.Get()) // warm: the one legitimate allocation
	allocs := testing.AllocsPerRun(1000, func() {
		b := pl.Get()
		b = append(b, 1, 2, 3)
		pl.Put(b)
	})
	if allocs != 0 {
		t.Fatalf("Get/Put cycle allocates %.2f times per run, want 0", allocs)
	}
}

// TestPoolGetIsLIFO: Get hands back the buffer of the most recent Put — the
// cache-hot one — by probing that Put's stripe first.
func TestPoolGetIsLIFO(t *testing.T) {
	pl := NewPool(64)
	a, b := pl.Get(), pl.Get()
	pl.Put(a)
	pl.Put(b)
	if got := pl.Get(); &got[:1][0] != &b[:1][0] {
		t.Fatal("Get after Put(a), Put(b) did not return b")
	}
	if got := pl.Get(); &got[:1][0] != &a[:1][0] {
		t.Fatal("second Get did not return a")
	}
}

// TestPoolGetTakesOneStripeLock: a pool cycling one buffer finds it in the
// first stripe Get probes. Every other stripe is held locked, so a Get that
// probed anywhere else first would block.
func TestPoolGetTakesOneStripeLock(t *testing.T) {
	pl := NewPool(64)
	pl.Put(pl.Get())
	for i := 0; i < 3*poolStripes; i++ {
		home := pl.puts.Load() & (poolStripes - 1) // the latest Put's stripe
		for j := range pl.stripes {
			if int64(j) != home {
				pl.stripes[j].mu.Lock()
			}
		}
		got := make(chan []byte, 1)
		go func() { got <- pl.Get() }()
		var b []byte
		select {
		case b = <-got:
		case <-time.After(5 * time.Second):
			t.Fatalf("cycle %d: Get probed a stripe other than the last Put's (%d)", i, home)
		}
		for j := range pl.stripes {
			if int64(j) != home {
				pl.stripes[j].mu.Unlock()
			}
		}
		pl.Put(b)
	}
	if _, misses := pl.Stats(); misses != 1 {
		t.Fatalf("%d misses cycling one buffer, want 1", misses)
	}
}

// TestPoolDrainResumesAtLastHit: Gets with no Put between them resume at
// the stripe the previous Get hit, not at an emptied stripe they would have
// to probe again. The emptied stripe is held locked, so a Get that probed
// it would block.
func TestPoolDrainResumesAtLastHit(t *testing.T) {
	pl := NewPool(64)
	pl.Fill(make([]byte, 2*poolStripes*64)) // two buffers per stripe
	pl.Get()
	pl.Get() // the latest Put's stripe (0: none yet) is now empty
	pl.Get() // walks back to stripe 7
	for j := 0; j < poolStripes-1; j++ {
		pl.stripes[j].mu.Lock()
	}
	got := make(chan []byte, 1)
	go func() { got <- pl.Get() }()
	select {
	case <-got:
	case <-time.After(5 * time.Second):
		t.Fatal("Get re-probed the stripes the drain had already passed")
	}
	for j := 0; j < poolStripes-1; j++ {
		pl.stripes[j].mu.Unlock()
	}
}

// BenchmarkPoolGetPutOne is the single-buffer Get/Put alternation a
// single-segment send puts its segment pool through: one stripe lock per
// Get, one per Put.
func BenchmarkPoolGetPutOne(b *testing.B) {
	pl := NewPool(2048)
	pl.Put(pl.Get())
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		pl.Put(pl.Get())
	}
}

// BenchmarkPoolDrainFilled is a receive ring posted at start-up: Fill a
// pool, then Get every buffer with no Put between them.
func BenchmarkPoolDrainFilled(b *testing.B) {
	const size, n = 2048, 256
	slab := make([]byte, n*size)
	for i := 0; i < b.N; i++ {
		pl := NewPool(size)
		pl.Fill(slab)
		for j := 0; j < n; j++ {
			pl.Get()
		}
	}
}

// TestPoolFill pins the slab entry point: the buffers cut from one
// allocation are ordinary pool buffers (full capacity, zero length, accepted
// back by Put), every one of them is served before the pool allocates, and
// filling moves neither side of the Get/Put ledger.
func TestPoolFill(t *testing.T) {
	const size, n = 512, 20
	p := NewPool(size)
	slab := make([]byte, n*size+7) // the odd tail is left alone
	p.Fill(slab)
	if out := p.Outstanding(); out != 0 {
		t.Fatalf("Outstanding = %d after Fill, want 0", out)
	}
	seen := make(map[*byte]bool)
	var bufs [][]byte
	for i := 0; i < n; i++ {
		b := p.Get()
		if len(b) != 0 || cap(b) != size {
			t.Fatalf("filled buffer %d: len %d cap %d", i, len(b), cap(b))
		}
		first := &b[:1][0]
		if seen[first] {
			t.Fatalf("buffer %d handed out twice", i)
		}
		seen[first] = true
		bufs = append(bufs, b)
	}
	if _, misses := p.Stats(); misses != 0 {
		t.Fatalf("%d Gets of %d filled buffers missed %d times", n, n, misses)
	}
	for _, b := range bufs {
		p.Put(b)
	}
	if out := p.Outstanding(); out != 0 {
		t.Fatalf("Outstanding = %d after returning every buffer", out)
	}
	if got := p.idle(); got != n {
		t.Fatalf("%d buffers idle after the round trip, want %d", got, n)
	}
}
