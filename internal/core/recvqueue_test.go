package iwarp

import (
	"errors"
	"testing"
)

// The posted-receive ring is shared by the UD and RC queue pairs; these
// tests pin it directly.

// TestRecvQueueFIFOAcrossWrap: WRs come out in posted order even when the
// head has wrapped round the fixed ring several times.
func TestRecvQueueFIFOAcrossWrap(t *testing.T) {
	const depth = 5
	q := newRecvQueue(depth)
	next, want := uint64(0), uint64(0)
	// Keep 3 posted while cycling 40 through, so head and tail cross the
	// ring's end at different times.
	for i := 0; i < 3; i++ {
		if err := q.post(RecvWR{ID: next}); err != nil {
			t.Fatal(err)
		}
		next++
	}
	for i := 0; i < 40; i++ {
		if err := q.post(RecvWR{ID: next}); err != nil {
			t.Fatalf("post %d: %v", next, err)
		}
		next++
		wr, ok := q.pop()
		if !ok || wr.ID != want {
			t.Fatalf("pop = %d, %v; want %d", wr.ID, ok, want)
		}
		want++
	}
	for ; want < next; want++ {
		if wr, ok := q.pop(); !ok || wr.ID != want {
			t.Fatalf("tail pop = %d, %v; want %d", wr.ID, ok, want)
		}
	}
	if _, ok := q.pop(); ok {
		t.Fatal("pop from an empty ring succeeded")
	}
}

// TestRecvQueueFullAtDepth: exactly depth WRs fit, the next is refused, and
// a pop makes room for exactly one more.
func TestRecvQueueFullAtDepth(t *testing.T) {
	const depth = 4
	q := newRecvQueue(depth)
	q.post(RecvWR{ID: 100}) // offset the head so the full ring straddles the end
	q.pop()
	for i := 0; i < depth; i++ {
		if err := q.post(RecvWR{ID: uint64(i)}); err != nil {
			t.Fatalf("post %d of %d: %v", i+1, depth, err)
		}
	}
	if err := q.post(RecvWR{ID: 99}); !errors.Is(err, ErrRecvQueueFull) {
		t.Fatalf("post past depth: %v, want ErrRecvQueueFull", err)
	}
	if n := q.len(); n != depth {
		t.Fatalf("len = %d, want %d", n, depth)
	}
	if wr, _ := q.pop(); wr.ID != 0 {
		t.Fatalf("pop = %d, want 0", wr.ID)
	}
	if err := q.post(RecvWR{ID: 4}); err != nil {
		t.Fatalf("post after a pop: %v", err)
	}
	if err := q.post(RecvWR{ID: 5}); !errors.Is(err, ErrRecvQueueFull) {
		t.Fatalf("second post after one pop: %v, want ErrRecvQueueFull", err)
	}
}

// TestRecvQueueDrainOrder: drain returns every posted WR oldest first,
// across the wrap, and leaves an empty queue that accepts posts again.
func TestRecvQueueDrainOrder(t *testing.T) {
	q := newRecvQueue(4)
	for i := uint64(0); i < 3; i++ {
		q.post(RecvWR{ID: i})
	}
	q.pop()
	q.pop()
	for i := uint64(3); i < 6; i++ { // ring now holds 2,3,4,5 from index 2
		if err := q.post(RecvWR{ID: i}); err != nil {
			t.Fatal(err)
		}
	}
	got := q.drain()
	if len(got) != 4 {
		t.Fatalf("drain returned %d WRs, want 4", len(got))
	}
	for i, wr := range got {
		if wr.ID != uint64(i+2) {
			t.Fatalf("drain[%d] = %d, want %d", i, wr.ID, i+2)
		}
	}
	if q.len() != 0 || len(q.drain()) != 0 {
		t.Fatal("queue not empty after drain")
	}
	if _, ok := q.pop(); ok {
		t.Fatal("pop after drain succeeded")
	}
	if err := q.post(RecvWR{ID: 7}); err != nil {
		t.Fatal(err)
	}
	if wr, _ := q.pop(); wr.ID != 7 {
		t.Fatalf("pop after drain and repost = %d, want 7", wr.ID)
	}
}

// TestRecvQueueCascadeWakeup: the avail channel holds one token, so a pop
// that leaves WRs behind must re-arm it for the next parked waiter, and the
// pop that takes the last WR must not.
func TestRecvQueueCascadeWakeup(t *testing.T) {
	q := newRecvQueue(4)
	q.post(RecvWR{ID: 1})
	q.post(RecvWR{ID: 2})
	<-q.avail // a waiter consumed the posts' one token
	q.pop()
	select {
	case <-q.avail:
	default:
		t.Fatal("pop left a WR queued but did not re-arm the wakeup")
	}
	q.pop()
	select {
	case <-q.avail:
		t.Fatal("pop of the last WR re-armed the wakeup")
	default:
	}
}

// TestRecvQueueCycleAllocFree: a steady post+pop cycle — the UD path's
// shape, one receive posted and consumed per message, so the queue empties
// every time — never allocates: the ring is the queue's only storage.
func TestRecvQueueCycleAllocFree(t *testing.T) {
	q := newRecvQueue(8)
	buf := make([]byte, 64)
	id := uint64(0)
	allocs := testing.AllocsPerRun(1000, func() {
		if err := q.post(RecvWR{ID: id, Buf: buf}); err != nil {
			t.Fatal(err)
		}
		id++
		if _, ok := q.pop(); !ok {
			t.Fatal("pop failed")
		}
	})
	if allocs != 0 {
		t.Fatalf("post+pop allocates %.2f times per cycle, want 0", allocs)
	}
}
