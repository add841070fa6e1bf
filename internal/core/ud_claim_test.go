package iwarp

import (
	"bytes"
	"math/rand"
	"net/netip"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/ddp"
	"repro/internal/rdmap"
	"repro/internal/simnet"
	"repro/internal/transport"
)

// These tests drive the claim engine (placeUntagged) through dispatch with
// hand-built segments, on the test goroutine. Nothing is ever sent to the
// QP, so its recvLoop stays parked and the test is the only placer, as
// recvLoop is in service. The reassembly timeout is an hour so the sweeper
// never fires on its own; TestUDClaimSweepByAge calls it with a chosen
// clock instead.

var (
	claimSrc  = netip.MustParseAddrPort("10.0.0.2:1")
	claimSrc2 = netip.MustParseAddrPort("10.0.0.3:2")
)

func newClaimNode(t *testing.T) *udNode {
	t.Helper()
	return newUDNode(t, simnet.New(simnet.Config{}), "claims", UDConfig{ReassemblyTimeout: time.Hour})
}

// sendSeg builds one untagged Send segment as ddp.RecvBatch would hand it
// to the QP.
func sendSeg(msn, mo, msgLen uint32, last bool, payload []byte) *ddp.Segment {
	return &ddp.Segment{
		RDMAP: rdmap.Ctrl(rdmap.OpSend), QN: ddp.QNSend,
		MSN: msn, MO: mo, MsgLen: msgLen, Last: last, Payload: payload,
	}
}

func (nd *udNode) deliver(from transport.Addr, seg *ddp.Segment) { nd.qp.dispatch(from, seg) }

func (nd *udNode) claimCount() int {
	nd.qp.mu.Lock()
	defer nd.qp.mu.Unlock()
	return len(nd.qp.claims)
}

// expectNoCQE fails if placement has posted anything to the receive CQ.
func (nd *udNode) expectNoCQE(t *testing.T, when string) {
	t.Helper()
	if n := nd.rcq.Len(); n != 0 {
		e, _ := nd.rcq.Poll(0)
		t.Fatalf("%s: %d completions, first %+v", when, n, e)
	}
}

// expectRecv polls one receive completion and checks its buffer.
func (nd *udNode) expectRecv(t *testing.T, bufs map[uint64][]byte, wrid uint64, from transport.Addr, want string) {
	t.Helper()
	e, err := nd.rcq.Poll(time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if !e.Ok() || e.WRID != wrid || e.Src != from || e.ByteLen != len(want) {
		t.Fatalf("CQE %+v, want WR %d from %v, %d bytes", e, wrid, from, len(want))
	}
	if got := string(bufs[wrid][:e.ByteLen]); got != want {
		t.Fatalf("WR %d holds %q, want %q", wrid, got, want)
	}
}

func (nd *udNode) postRecvs(t *testing.T, n, size int) map[uint64][]byte {
	t.Helper()
	bufs := make(map[uint64][]byte, n)
	for i := 0; i < n; i++ {
		bufs[uint64(i)] = make([]byte, size)
		if err := nd.qp.PostRecv(uint64(i), bufs[uint64(i)]); err != nil {
			t.Fatal(err)
		}
	}
	return bufs
}

// Property: for any message and any segment arrival order, the claimed
// receive ends up holding the original bytes, completes exactly once, and
// leaves no claim behind.
func TestUDClaimAnyOrderQuick(t *testing.T) {
	nd := newClaimNode(t)
	msn := uint32(0)
	f := func(seed int64, szRaw uint16) bool {
		rng := rand.New(rand.NewSource(seed))
		size := int(szRaw)%5000 + 1
		msg := make([]byte, size)
		rng.Read(msg)
		segSize := 1 + rng.Intn(size)
		msn++
		var segs []*ddp.Segment
		for off := 0; off < size; off += segSize {
			n := min(segSize, size-off)
			segs = append(segs, sendSeg(msn, uint32(off), uint32(size), off+n == size, msg[off:off+n]))
		}
		buf := make([]byte, size)
		if err := nd.qp.PostRecv(uint64(msn), buf); err != nil {
			t.Fatal(err)
		}
		for _, i := range rng.Perm(len(segs)) {
			nd.deliver(claimSrc, segs[i])
		}
		e, err := nd.rcq.Poll(time.Second)
		return err == nil && e.Ok() && e.WRID == uint64(msn) && e.ByteLen == size &&
			bytes.Equal(buf, msg) && nd.rcq.Len() == 0 && nd.claimCount() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// A message whose Last segment arrives first is claimed by that segment and
// completes, whole, when the head lands.
func TestUDClaimOutOfOrder(t *testing.T) {
	nd := newClaimNode(t)
	bufs := nd.postRecvs(t, 1, 8)
	nd.deliver(claimSrc, sendSeg(1, 4, 8, true, []byte("5678")))
	nd.expectNoCQE(t, "after the tail alone")
	nd.deliver(claimSrc, sendSeg(1, 0, 8, false, []byte("1234")))
	nd.expectRecv(t, bufs, 0, claimSrc, "12345678")
}

// A duplicate segment arriving mid-message lands in the same claim: it
// neither claims a second receive nor completes the message early.
func TestUDClaimDuplicateAbsorbed(t *testing.T) {
	nd := newClaimNode(t)
	bufs := nd.postRecvs(t, 2, 8)
	head := sendSeg(1, 0, 8, false, []byte("1234"))
	nd.deliver(claimSrc, head)
	nd.deliver(claimSrc, head) // duplicate
	if n := nd.claimCount(); n != 1 {
		t.Fatalf("claims = %d after a duplicate, want 1", n)
	}
	if n := nd.qp.rq.len(); n != 1 {
		t.Fatalf("posted receives = %d, want 1 (the duplicate claimed another)", n)
	}
	nd.expectNoCQE(t, "after a duplicate head")
	nd.deliver(claimSrc, sendSeg(1, 4, 8, true, []byte("5678")))
	nd.expectRecv(t, bufs, 0, claimSrc, "12345678")
	nd.expectNoCQE(t, "after completion")
	if n := nd.qp.Stats().Reassembled; n != 1 {
		t.Fatalf("Reassembled = %d, want 1", n)
	}
}

// Two peers using the same MSN hold separate claims: the key includes the
// source, so neither peer's bytes land in the other's receive.
func TestUDClaimIndependentPeers(t *testing.T) {
	nd := newClaimNode(t)
	bufs := nd.postRecvs(t, 2, 8)
	nd.deliver(claimSrc, sendSeg(1, 0, 8, false, []byte("aaaa")))  // claims WR 0
	nd.deliver(claimSrc2, sendSeg(1, 0, 8, false, []byte("bbbb"))) // claims WR 1
	if n := nd.claimCount(); n != 2 {
		t.Fatalf("claims = %d, want 2", n)
	}
	nd.deliver(claimSrc2, sendSeg(1, 4, 8, true, []byte("BBBB")))
	nd.expectRecv(t, bufs, 1, claimSrc2, "bbbbBBBB")
	nd.deliver(claimSrc, sendSeg(1, 4, 8, true, []byte("AAAA")))
	nd.expectRecv(t, bufs, 0, claimSrc, "aaaaAAAA")
	if n := nd.claimCount(); n != 0 {
		t.Fatalf("claims = %d after both completed", n)
	}
}

// A segment that runs past its declared message length is dropped before
// it claims anything: no receive consumed, no claim retained.
func TestUDClaimOverflowSegmentDropped(t *testing.T) {
	nd := newClaimNode(t)
	nd.postRecvs(t, 1, 8)
	nd.deliver(claimSrc, sendSeg(1, 6, 8, false, []byte("xxxx")))
	if n := nd.claimCount(); n != 0 {
		t.Fatalf("overflowing segment retained: claims = %d", n)
	}
	if n := nd.qp.rq.len(); n != 1 {
		t.Fatalf("posted receives = %d, want 1 (overflow consumed one)", n)
	}
	nd.expectNoCQE(t, "after an overflowing segment")
}

// While a claim is live, a segment for the same (peer, MSN) whose MsgLen
// disagrees with the claim's is dropped: the claim keeps its receive and
// its length, and completes with the original message's bytes.
func TestUDClaimMsnReuseConflictDropped(t *testing.T) {
	nd := newClaimNode(t)
	bufs := nd.postRecvs(t, 2, 8)
	nd.deliver(claimSrc, sendSeg(1, 0, 8, false, []byte("old!")))
	nd.deliver(claimSrc, sendSeg(1, 0, 6, false, []byte("new")))
	nd.deliver(claimSrc, sendSeg(1, 3, 6, true, []byte("msg")))
	nd.expectNoCQE(t, "after conflicting segments")
	if n := nd.qp.rq.len(); n != 1 {
		t.Fatalf("posted receives = %d, want 1 (a conflicting segment claimed one)", n)
	}
	nd.deliver(claimSrc, sendSeg(1, 4, 8, true, []byte("tail")))
	nd.expectRecv(t, bufs, 0, claimSrc, "old!tail")
	if n := nd.claimCount(); n != 0 {
		t.Fatalf("claims = %d after completion", n)
	}
}

// The sweeper expires a claim only once it is older than the reassembly
// timeout, counts it swept, and reposts its receive without a completion.
func TestUDClaimSweepByAge(t *testing.T) {
	nd := newClaimNode(t)
	nd.postRecvs(t, 1, 8)
	nd.deliver(claimSrc, sendSeg(1, 0, 8, false, []byte("aaaa")))
	if n := nd.qp.rq.len(); n != 0 {
		t.Fatalf("posted receives = %d, want 0 (the claim holds it)", n)
	}
	nd.qp.sweep(time.Now())
	if n := nd.claimCount(); n != 1 {
		t.Fatalf("premature sweep: claims = %d", n)
	}
	nd.qp.sweep(time.Now().Add(2 * time.Hour))
	if n := nd.claimCount(); n != 0 {
		t.Fatalf("claims = %d after sweep, want 0", n)
	}
	if n := nd.qp.Stats().SweptPartials; n != 1 {
		t.Fatalf("SweptPartials = %d, want 1", n)
	}
	if n := nd.qp.rq.len(); n != 1 {
		t.Fatalf("posted receives = %d, want the claimed one back", n)
	}
	nd.expectNoCQE(t, "after sweep")
}
