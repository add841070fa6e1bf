package simnet

import (
	"slices"
	"testing"

	"repro/internal/transport"
)

// queued lists the queue's packets by name, head first.
func queued(q *queue) []string {
	q.mu.Lock()
	defer q.mu.Unlock()
	var s []string
	for _, pk := range q.q[q.head:] {
		s = append(s, string(pk.payload))
	}
	return s
}

// pkt is a packet whose payload is its name.
func pkt(name string) packet { return packet{payload: []byte(name)} }

// TestQueueBurstCycleAllocFree: a queue that is never quite drained, fed
// and drained in steady bursts, reuses one backing array — the head index
// advances, and the live packets slide to the front when the array fills —
// so the cycle allocates nothing.
func TestQueueBurstCycleAllocFree(t *testing.T) {
	q := newQueue(64)
	burst := make([]packet, 16)
	pkts, froms := make([][]byte, 5), make([]transport.Addr, 5)
	if _, err := q.put(burst[:3]); err != nil { // a residue that is never popped
		t.Fatal(err)
	}
	cycle := func() {
		if _, err := q.put(burst); err != nil {
			t.Fatal(err)
		}
		for got := 0; got < len(burst); {
			n, err := q.pop(pkts[:min(len(pkts), len(burst)-got)], froms)
			if err != nil {
				t.Fatal(err)
			}
			got += n
		}
	}
	cycle()
	if allocs := testing.AllocsPerRun(200, cycle); allocs != 0 {
		t.Fatalf("steady put/pop burst cycle: %.1f allocs, want 0", allocs)
	}
	if n := len(queued(q)); n != 3 {
		t.Fatalf("%d packets queued after the cycles, want the residue of 3", n)
	}
}

// TestQueueOrderAcrossReuse: FIFO order and the capacity bound both hold
// while the head index is advanced and when the live packets slide to the
// front of the backing array.
func TestQueueOrderAcrossReuse(t *testing.T) {
	q := newQueue(4)
	pkts, froms := make([][]byte, 4), make([]transport.Addr, 4)
	put := func(ps ...packet) {
		t.Helper()
		if _, err := q.put(ps); err != nil {
			t.Fatal(err)
		}
	}
	want := func(s ...string) {
		t.Helper()
		if got := queued(q); !slices.Equal(got, s) {
			t.Fatalf("queued %v, want %v", got, s)
		}
	}
	put(pkt("a"), pkt("b"), pkt("c"))
	if n, _ := q.pop(pkts[:2], froms); n != 2 || string(pkts[0]) != "a" || string(pkts[1]) != "b" {
		t.Fatalf("popped %d %q, want a b", n, pkts[:n])
	}
	put(pkt("d")) // head advanced: appended behind c
	want("c", "d")
	put(pkt("e"), pkt("f")) // reuses the drained prefix: c d slide to the front
	want("c", "d", "e", "f")
	q.putDrop(pkt("g")) // at the bound: dropped
	want("c", "d", "e", "f")
	if n, _ := q.pop(pkts, froms); n != 4 {
		t.Fatalf("popped %d, want 4", n)
	}
	put(pkt("h"))
	want("h")
	q.close()
	if n, err := q.pop(pkts, froms); n != 1 || err != nil || string(pkts[0]) != "h" {
		t.Fatalf("after close popped %d %q %v, want h", n, pkts[:n], err)
	}
	if _, err := q.pop(pkts, froms); err != transport.ErrClosed {
		t.Fatalf("drained closed queue: %v, want ErrClosed", err)
	}
}
