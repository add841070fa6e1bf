package iwarp

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/faultnet"
	"repro/internal/memreg"
	"repro/internal/nio"
	"repro/internal/rudp"
	"repro/internal/simnet"
	"repro/internal/transport"
)

// newRDNode opens a UDQP over an rudp endpoint (the RD service).
func newRDNode(t *testing.T, net *simnet.Network, name string, cfg UDConfig) *udNode {
	t.Helper()
	ep, err := net.OpenDatagram(name, 0)
	if err != nil {
		t.Fatal(err)
	}
	nd := &udNode{pd: memreg.NewPD(), tbl: memreg.NewTable(), scq: NewCQ(0), rcq: NewCQ(0)}
	nd.qp, err = OpenUD(rudp.New(ep), nd.pd, nd.tbl, nd.scq, nd.rcq, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { nd.qp.Close() })
	return nd
}

// TestUDBlockOnRNRWaitsForPostRecv is the RNR regression test: a message
// arriving before any receive is posted must park on PostRecv's
// notification and complete as soon as a buffer appears — not spin, not
// drop.
func TestUDBlockOnRNRWaitsForPostRecv(t *testing.T) {
	net := simnet.New(simnet.Config{})
	a := newRDNode(t, net, "a", UDConfig{})
	b := newRDNode(t, net, "b", UDConfig{BlockOnRNR: true, ReassemblyTimeout: 5 * time.Second})

	msg := bytes.Repeat([]byte{0x5a}, 2000)
	if err := a.qp.PostSend(1, b.qp.LocalAddr(), nio.VecOf(msg)); err != nil {
		t.Fatal(err)
	}
	// Let the message arrive and the placement engine block on RNR.
	time.Sleep(50 * time.Millisecond)
	buf := make([]byte, 4096)
	if err := b.qp.PostRecv(7, buf); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	e, err := b.rcq.Poll(2 * time.Second)
	if err != nil {
		t.Fatalf("blocked message never delivered: %v", err)
	}
	if !e.Ok() || e.WRID != 7 || !bytes.Equal(buf[:e.ByteLen], msg) {
		t.Fatalf("CQE %+v", e)
	}
	// The notification must wake the engine promptly — this bound is ~3
	// orders of magnitude above the wakeup cost, but far below the
	// reassembly timeout a pollless implementation would sleep toward.
	if wait := time.Since(start); wait > time.Second {
		t.Fatalf("delivery took %v after PostRecv", wait)
	}
	if n := b.qp.Stats().RecvDropped; n != 0 {
		t.Fatalf("RecvDropped = %d, want 0", n)
	}
}

// TestUDBlockOnRNRTimesOut: the RNR wait is bounded — with no receive ever
// posted the message is dropped after the reassembly timeout and the QP
// stays usable.
func TestUDBlockOnRNRTimesOut(t *testing.T) {
	net := simnet.New(simnet.Config{})
	a := newRDNode(t, net, "a", UDConfig{})
	b := newRDNode(t, net, "b", UDConfig{BlockOnRNR: true, ReassemblyTimeout: 100 * time.Millisecond})

	if err := a.qp.PostSend(1, b.qp.LocalAddr(), nio.VecOf([]byte("nobody home"))); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(3 * time.Second)
	for b.qp.Stats().RecvDropped == 0 {
		if time.Now().After(deadline) {
			t.Fatal("RNR wait never timed out")
		}
		time.Sleep(10 * time.Millisecond)
	}
	// The QP is not wedged: post a receive and deliver a second message.
	buf := make([]byte, 256)
	if err := b.qp.PostRecv(8, buf); err != nil {
		t.Fatal(err)
	}
	if err := a.qp.PostSend(2, b.qp.LocalAddr(), nio.VecOf([]byte("second"))); err != nil {
		t.Fatal(err)
	}
	e, err := b.rcq.Poll(2 * time.Second)
	if err != nil || !e.Ok() || e.WRID != 8 {
		t.Fatalf("post-timeout delivery: CQE %+v err %v", e, err)
	}
}

// TestUDPerPeerOrdering pins the receive path's ordering invariant: over an
// in-order network, completions for any one peer arrive in that peer's
// send order, however concurrent peers interleave.
func TestUDPerPeerOrdering(t *testing.T) {
	net := simnet.New(simnet.Config{})
	recv := newUDNode(t, net, "recv", UDConfig{RecvDepth: 2048})

	const peers = 8
	const msgs = 50
	bufs := make(map[uint64][]byte)
	for i := 0; i < peers*msgs; i++ {
		buf := make([]byte, 64)
		bufs[uint64(i)] = buf
		if err := recv.qp.PostRecv(uint64(i), buf); err != nil {
			t.Fatal(err)
		}
	}

	var wg sync.WaitGroup
	for p := 0; p < peers; p++ {
		nd := newUDNode(t, net, fmt.Sprintf("peer%d", p), UDConfig{})
		wg.Add(1)
		go func(nd *udNode, p int) {
			defer wg.Done()
			var msg [8]byte
			for i := 0; i < msgs; i++ {
				binary.BigEndian.PutUint32(msg[:4], uint32(p))
				binary.BigEndian.PutUint32(msg[4:], uint32(i))
				if err := nd.qp.PostSend(uint64(i), recv.qp.LocalAddr(), nio.VecOf(msg[:])); err != nil {
					t.Error(err)
					return
				}
			}
		}(nd, p)
	}
	wg.Wait()

	lastSeq := make(map[transport.Addr]int)
	for got := 0; got < peers*msgs; got++ {
		e, err := recv.rcq.Poll(5 * time.Second)
		if err != nil {
			t.Fatalf("after %d completions: %v", got, err)
		}
		if !e.Ok() || e.ByteLen != 8 {
			t.Fatalf("CQE %+v", e)
		}
		body := bufs[e.WRID]
		peer := binary.BigEndian.Uint32(body[:4])
		seq := int(binary.BigEndian.Uint32(body[4:8]))
		if last, ok := lastSeq[e.Src]; ok && seq != last+1 {
			t.Fatalf("peer %d (src %v): seq %d after %d — per-peer order violated", peer, e.Src, seq, last)
		}
		lastSeq[e.Src] = seq
	}
	if len(lastSeq) != peers {
		t.Fatalf("completions from %d peers, want %d", len(lastSeq), peers)
	}
}

// TestUDPipelineStress hammers the receive path with concurrent peers,
// loss, duplication and (in one variant) reordering, checking every
// delivered message for integrity and — when the network is FIFO per peer —
// per-peer completion order. Run with -race to make it a concurrency test.
func TestUDPipelineStress(t *testing.T) {
	const peers = 6
	const msgs = 30
	const msgSize = 3000

	// Loss is the wire's (simnet, per fragment); duplication and reordering
	// are faultnet's, on every sender.
	variants := []struct {
		name    string
		cfg     simnet.Config
		fault   faultnet.Config
		ordered bool // network delivers FIFO per peer (dups are adjacent)
	}{
		{"loss+dup", simnet.Config{LossRate: 0.05, Seed: 7}, faultnet.Config{Seed: 7, DupRate: 0.05}, true},
		{"loss+reorder+dup", simnet.Config{LossRate: 0.03, Seed: 11}, faultnet.Config{Seed: 11, ReorderRate: 0.2, ReorderSpan: 2, DupRate: 0.05}, false},
	}
	for _, v := range variants {
		v := v
		t.Run(v.name, func(t *testing.T) {
			net := simnet.New(v.cfg)
			recv := newUDNode(t, net, "recv", UDConfig{
				RecvDepth: 4096, ReassemblyTimeout: 300 * time.Millisecond,
			})
			// Duplication can deliver a message twice; every delivery
			// consumes a receive, so post generously.
			total := peers * msgs * 2
			bufs := make(map[uint64][]byte)
			for i := 0; i < total; i++ {
				buf := make([]byte, msgSize)
				bufs[uint64(i)] = buf
				if err := recv.qp.PostRecv(uint64(i), buf); err != nil {
					t.Fatal(err)
				}
			}

			var wg sync.WaitGroup
			for p := 0; p < peers; p++ {
				ep, err := net.OpenDatagram(fmt.Sprintf("p%d", p), 0)
				if err != nil {
					t.Fatal(err)
				}
				fault := v.fault
				fault.Seed += int64(p)
				fe := faultnet.Wrap(ep, fault)
				nd := newUDNodeOver(t, fe, UDConfig{})
				wg.Add(1)
				go func(nd *udNode, p int) {
					defer wg.Done()
					defer fe.ReleaseHeld() // the last sends' held copies go out too
					for i := 0; i < msgs; i++ {
						msg := stressPayload(p, i, msgSize)
						if err := nd.qp.PostSend(uint64(i), recv.qp.LocalAddr(), nio.VecOf(msg)); err != nil {
							t.Error(err)
							return
						}
					}
				}(nd, p)
			}
			wg.Wait()

			lastSeq := make(map[transport.Addr]int)
			delivered := 0
			for {
				e, err := recv.rcq.Poll(time.Second)
				if err != nil {
					break // quiet: everything that survived the wire is in
				}
				if !e.Ok() || e.ByteLen != msgSize {
					t.Fatalf("CQE %+v", e)
				}
				body := bufs[e.WRID]
				peer := int(binary.BigEndian.Uint32(body[:4]))
				seq := int(binary.BigEndian.Uint32(body[4:8]))
				if !bytes.Equal(body[:msgSize], stressPayload(peer, seq, msgSize)) {
					t.Fatalf("peer %d seq %d: payload corrupt", peer, seq)
				}
				if v.ordered {
					if last, ok := lastSeq[e.Src]; ok && seq < last {
						t.Fatalf("peer %d: seq %d after %d — per-peer order violated", peer, seq, last)
					}
					lastSeq[e.Src] = seq
				}
				delivered++
			}
			if delivered == 0 {
				t.Fatal("nothing delivered")
			}
			t.Logf("delivered %d/%d (loss %.0f%%, dup %.0f%%)", delivered, peers*msgs, v.cfg.LossRate*100, v.fault.DupRate*100)
		})
	}
}

// stressPayload builds the deterministic message body for (peer, seq):
// an 8-byte header plus a fill pattern both derive from.
func stressPayload(peer, seq, size int) []byte {
	msg := make([]byte, size)
	binary.BigEndian.PutUint32(msg[:4], uint32(peer))
	binary.BigEndian.PutUint32(msg[4:8], uint32(seq))
	fill := byte(peer*31 + seq)
	for i := 8; i < size; i++ {
		msg[i] = fill
	}
	return msg
}

// TestUDClaimSweepRepostsReceive: a multi-segment message whose tail is
// lost claims a posted receive; when the sweeper abandons the partial, the
// receive must return to the queue — the message is lost, the buffer is
// not — and the next complete message lands in it.
func TestUDClaimSweepRepostsReceive(t *testing.T) {
	net := simnet.New(simnet.Config{})

	// The SENDER drops its 2nd outbound datagram — the Last segment of the
	// first, two-segment message.
	bep, err := net.OpenDatagram("b", 0)
	if err != nil {
		t.Fatal(err)
	}
	b := &udNode{pd: memreg.NewPD(), tbl: memreg.NewTable(), scq: NewCQ(0), rcq: NewCQ(0)}
	b.qp, err = OpenUD(bep, b.pd, b.tbl, b.scq, b.rcq, UDConfig{ReassemblyTimeout: 100 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { b.qp.Close() })

	aep, err := net.OpenDatagram("adrop", 0)
	if err != nil {
		t.Fatal(err)
	}
	sender := &udNode{pd: memreg.NewPD(), tbl: memreg.NewTable(), scq: NewCQ(0), rcq: NewCQ(0)}
	sender.qp, err = OpenUD(&dropNthEndpoint{Datagram: aep, n: 2}, sender.pd, sender.tbl, sender.scq, sender.rcq, UDConfig{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sender.qp.Close() })

	const size = 100 << 10 // two segments
	buf := make([]byte, size)
	if err := b.qp.PostRecv(21, buf); err != nil {
		t.Fatal(err)
	}
	if err := sender.qp.PostSend(1, b.qp.LocalAddr(), nio.VecOf(bytes.Repeat([]byte{1}, size))); err != nil {
		t.Fatal(err)
	}
	// The partial claims WR 21; no completion may arrive.
	if e, err := b.rcq.Poll(250 * time.Millisecond); err == nil {
		t.Fatalf("unexpected CQE %+v", e)
	}
	// Wait for the sweeper to abandon the claim and repost the receive.
	deadline := time.Now().Add(3 * time.Second)
	for b.qp.Stats().SweptPartials == 0 {
		if time.Now().After(deadline) {
			t.Fatal("partial claim never swept")
		}
		time.Sleep(10 * time.Millisecond)
	}
	// A complete message must now land in the recycled buffer.
	want := bytes.Repeat([]byte{2}, size)
	if err := sender.qp.PostSend(2, b.qp.LocalAddr(), nio.VecOf(want)); err != nil {
		t.Fatal(err)
	}
	e, err := b.rcq.Poll(3 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if !e.Ok() || e.WRID != 21 || e.ByteLen != size {
		t.Fatalf("CQE %+v", e)
	}
	if !bytes.Equal(buf, want) {
		t.Fatal("recycled receive holds wrong payload")
	}
	if n := b.qp.Stats().Reassembled; n != 1 {
		t.Fatalf("Reassembled = %d, want 1", n)
	}
}

// TestUDRecvBatchStatsVisible: after a burst of traffic the QP's
// receive-pipeline counters are live — batches, segments, recycled buffers
// and pool hit/miss all reflect the run.
func TestUDRecvBatchStatsVisible(t *testing.T) {
	net := simnet.New(simnet.Config{})
	a := newUDNode(t, net, "a", UDConfig{})
	b := newUDNode(t, net, "b", UDConfig{})

	const count = 64
	for i := 0; i < count; i++ {
		if err := b.qp.PostRecv(uint64(i), make([]byte, 512)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < count; i++ {
		if err := a.qp.PostSend(uint64(i), b.qp.LocalAddr(), nio.VecOf(bytes.Repeat([]byte{byte(i)}, 200))); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < count; i++ {
		if e, err := b.rcq.Poll(2 * time.Second); err != nil || !e.Ok() {
			t.Fatalf("recv %d: CQE %+v err %v", i, e, err)
		}
	}
	st := b.qp.Stats()
	if st.BatchesRecv == 0 || st.SegmentsRecv != count {
		t.Fatalf("BatchesRecv %d SegmentsRecv %d, want >0 and %d", st.BatchesRecv, st.SegmentsRecv, count)
	}
	if st.Recycled != count {
		t.Fatalf("Recycled = %d, want %d", st.Recycled, count)
	}
	if st.RecvPoolHits+st.RecvPoolMisses < count {
		t.Fatalf("pool hits %d + misses %d < %d segments", st.RecvPoolHits, st.RecvPoolMisses, count)
	}
	if got := st.SegmentsPerRecvBatch(); got <= 0 {
		t.Fatalf("SegmentsPerRecvBatch = %v", got)
	}
}

// openUDGoroutines returns the stacks of every live goroutine started by
// OpenUD.
func openUDGoroutines() []string {
	buf := make([]byte, 1<<20)
	buf = buf[:runtime.Stack(buf, true)]
	var gs []string
	for _, g := range strings.Split(string(buf), "\n\n") {
		if strings.Contains(g, "created by repro/internal/core.OpenUD") {
			gs = append(gs, g)
		}
	}
	return gs
}

// TestUDQPStartsTwoGoroutines: whatever GOMAXPROCS is, a UD QP runs its
// placement engine (recvLoop) and its sweeper, and nothing else.
func TestUDQPStartsTwoGoroutines(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(8))
	before := len(openUDGoroutines())
	newUDNode(t, simnet.New(simnet.Config{}), "g", UDConfig{})
	// A new goroutine may not have entered its function yet; wait until
	// both have.
	deadline := time.Now().Add(2 * time.Second)
	for {
		gs := openUDGoroutines()
		all := strings.Join(gs, "\n")
		started := strings.Contains(all, "(*UDQP).recvLoop") && strings.Contains(all, "(*UDQP).sweepLoop")
		if started || time.Now().After(deadline) {
			if n := len(gs) - before; n != 2 || !started {
				t.Fatalf("OpenUD started %d goroutines, want recvLoop and sweepLoop only:\n%s", n, all)
			}
			return
		}
		time.Sleep(time.Millisecond)
	}
}
