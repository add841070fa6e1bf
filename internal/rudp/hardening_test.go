package rudp

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/nio"
	"repro/internal/simnet"
	"repro/internal/transport"
)

// hookEP intercepts outgoing packets: the hook may pass a packet through
// (return it), replace it (return different bytes), or drop it (return
// nil). Everything else forwards to the embedded endpoint.
type hookEP struct {
	transport.Datagram
	mu   sync.Mutex
	hook func(p []byte, to transport.Addr) []byte
}

func (h *hookEP) set(f func(p []byte, to transport.Addr) []byte) {
	h.mu.Lock()
	h.hook = f
	h.mu.Unlock()
}

func (h *hookEP) SendTo(p []byte, to transport.Addr) error {
	h.mu.Lock()
	f := h.hook
	h.mu.Unlock()
	if f != nil {
		q := f(p, to)
		if q == nil {
			return nil // swallowed, like wire loss
		}
		p = q
	}
	return h.Datagram.SendTo(p, to)
}

// SendBatch routes the burst through SendTo, so the promoted batch method
// cannot bypass the hook.
func (h *hookEP) SendBatch(pkts [][]byte, to transport.Addr) (int, error) {
	for i, p := range pkts {
		if err := h.SendTo(p, to); err != nil {
			return i, err
		}
	}
	return len(pkts), nil
}

// isData reports whether p has the shape of a DATA frame; dataSeq reads its
// sequence number. The hooks classify outgoing frames with them.
func isData(p []byte) bool {
	return len(p) >= dataTrailerLen && p[len(p)-typeBack]&typeMask == typeData
}

func dataSeq(p []byte) uint32 { return nio.U32(p[len(p)-dataTrailerLen:]) }

// peerField runs f on addr's peer state under its entry lock, creating
// the peer if absent — the test-side window into the sharded table.
func peerField(t *testing.T, e *Endpoint, addr transport.Addr, f func(*peerState)) {
	t.Helper()
	ent, _, err := e.tab.LockOrCreate(addr, initPeer)
	if err != nil {
		t.Fatal(err)
	}
	f(&ent.V)
	ent.Unlock()
}

// TestWrapCrossingUnderLoss pins the serial-arithmetic edges: a window
// sliding across seq 2^32−32 … 32 under 20% loss must still deliver every
// message exactly once and in order — cumAck, the SACK bitmap offsets
// (cumAck+1+i on the receive side, seq−cum−1 on the send side) and the
// acceptance window all straddle the wrap during this run.
func TestWrapCrossingUnderLoss(t *testing.T) {
	const start = ^uint32(0) - 31 // 2^32 - 32
	a, b := pair(t, simnet.Config{LossRate: 0.2, Seed: 42})
	peerField(t, a, b.LocalAddr(), func(ps *peerState) { ps.nextSeq, ps.ackedTo = start, start-1 })
	peerField(t, b, a.LocalAddr(), func(ps *peerState) { ps.expected = start })

	const msgs = 64 // crosses from 2^32-32 to 32
	done := make(chan error, 1)
	go func() {
		for i := 0; i < msgs; i++ {
			if err := a.SendTo([]byte(fmt.Sprintf("wrap-%d", i)), b.LocalAddr()); err != nil {
				done <- err
				return
			}
		}
		done <- a.Flush(10 * time.Second)
	}()
	for i := 0; i < msgs; i++ {
		p, _, err := b.Recv(5 * time.Second)
		if err != nil {
			t.Fatalf("Recv %d: %v", i, err)
		}
		if want := fmt.Sprintf("wrap-%d", i); string(p) != want {
			t.Fatalf("message %d = %q, want %q — order broke across the wrap", i, p, want)
		}
	}
	if err := <-done; err != nil {
		t.Fatalf("send/flush: %v", err)
	}
}

// TestCorruptedHeadersDropped pins the header CRC: an ACK whose cumAck was
// inflated in flight, and a DATA whose seq was mangled, must be dropped by
// the trailer check and recovered as losses. Without the CRC the inflated
// cumAck makes the sender free packets the receiver never got — silent
// loss — and the mangled seq poisons reassembly state.
func TestCorruptedHeadersDropped(t *testing.T) {
	n := simnet.New(simnet.Config{})
	ia, _ := n.OpenDatagram("a", 0)
	ib, _ := n.OpenDatagram("b", 0)
	ha := &hookEP{Datagram: ia}
	hb := &hookEP{Datagram: ib}
	a, b := New(ha), New(hb)
	defer a.Close()
	defer b.Close()

	var mangledAcks, mangledData int
	hb.set(func(p []byte, to transport.Addr) []byte { // b's outgoing: ACKs
		if IsAckPacket(p) && mangledAcks < 3 {
			mangledAcks++
			q := append([]byte(nil), p...)
			q[0], q[1], q[2], q[3] = 0xFF, 0xFF, 0xFF, 0xFE // cumAck := huge
			return q
		}
		return p
	})
	ha.set(func(p []byte, to transport.Addr) []byte { // a's outgoing: DATA
		if isData(p) && mangledData < 2 {
			mangledData++
			q := append([]byte(nil), p...)
			q[len(q)-dataTrailerLen+2] ^= 0x80 // mangle seq, stale CRC
			return q
		}
		return p
	})

	const msgs = 10
	for i := 0; i < msgs; i++ {
		if err := a.SendTo([]byte(fmt.Sprintf("m-%d", i)), b.LocalAddr()); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < msgs; i++ {
		p, _, err := b.Recv(5 * time.Second)
		if err != nil {
			t.Fatalf("Recv %d: %v", i, err)
		}
		if want := fmt.Sprintf("m-%d", i); string(p) != want {
			t.Fatalf("message %d = %q, want %q", i, p, want)
		}
	}
	if err := a.Flush(5 * time.Second); err != nil {
		t.Fatalf("Flush after corruption: %v", err)
	}
	if got := a.Snapshot().CRCFailures + b.Snapshot().CRCFailures; got < 1 {
		t.Fatalf("no CRC failures recorded; the mangled packets were accepted")
	}
}

// TestRuntsCountedApartFromCRCFailures: a datagram too short to hold a
// frame trailer and a full-length frame with one flipped bit are different
// faults — a truncating path versus a corrupting one — and each moves its
// own counter, not both the CRC one.
func TestRuntsCountedApartFromCRCFailures(t *testing.T) {
	net := newMemNet()
	x, ib := net.open(), net.open()
	b := New(ib)
	defer b.Close()
	defer x.Close()

	flipped := AppendData(nil, 7, 1, []byte("damaged"))
	flipped[2] ^= 0x10
	good := AppendData(nil, 7, 1, []byte("intact"))
	net.inject(ib,
		[][]byte{make([]byte, dataTrailerLen-1), flipped, good},
		[]transport.Addr{x.addr, x.addr, x.addr})
	p, _, err := b.Recv(time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if string(p) != "intact" {
		t.Fatalf("delivered %q, want the intact frame only", p)
	}
	b.Recycle(p)
	// The burst's drops were counted before its yield was published.
	if s := b.Snapshot(); s.Runts != 1 || s.CRCFailures != 1 {
		t.Fatalf("Runts %d CRCFailures %d, want 1 and 1", s.Runts, s.CRCFailures)
	}
}

// TestFarFutureSeqNotBuffered pins the bounded acceptance window: a DATA
// far beyond the in-order point must not reserve reassembly state (the
// pre-fix behavior buffered anything up to 2^31 ahead, so one bad packet
// wedged the peer's reassembly state forever).
func TestFarFutureSeqNotBuffered(t *testing.T) {
	n := simnet.New(simnet.Config{})
	ib, _ := n.OpenDatagram("b", 0)
	raw, _ := n.OpenDatagram("raw", 0)
	b := New(ib)
	defer b.Close()
	defer raw.Close()

	craft := func(epoch byte, seq uint32, payload string) []byte {
		return AppendData(nil, epoch, seq, []byte(payload))
	}
	if err := raw.SendTo(craft(7, 5000, "garbage"), ib.LocalAddr()); err != nil {
		t.Fatal(err)
	}
	if err := raw.SendTo(craft(7, 1, "ok"), ib.LocalAddr()); err != nil {
		t.Fatal(err)
	}
	p, _, err := b.Recv(5 * time.Second)
	if err != nil || string(p) != "ok" {
		t.Fatalf("Recv = %q, %v; want the in-window message", p, err)
	}
	if got := b.Snapshot().WindowDrops; got != 1 {
		t.Fatalf("WindowDrops = %d, want 1", got)
	}
	var sack uint64
	peerField(t, b, raw.LocalAddr(), func(ps *peerState) { sack = ps.sack })
	if sack != 0 {
		t.Fatalf("out-of-order state %#x retained for the garbage seq", sack)
	}
}

// TestFlushRacingCloseReturns pins the lifecycle race: a Flush waiting on
// unacked packets while Close tears down the retransmit loop must return a
// definite error promptly — the pre-fix code polled its full timeout
// against loops that no longer ran.
func TestFlushRacingCloseReturns(t *testing.T) {
	n := simnet.New(simnet.Config{LossRate: 1.0})
	ia, _ := n.OpenDatagram("a", 0)
	ib, _ := n.OpenDatagram("b", 0)
	a := New(ia)
	defer ib.Close()
	if err := a.SendTo([]byte("never-acked"), ib.LocalAddr()); err != nil {
		t.Fatal(err)
	}
	errc := make(chan error, 1)
	go func() { errc <- a.Flush(30 * time.Second) }()
	time.Sleep(20 * time.Millisecond)
	a.Close()
	select {
	case err := <-errc:
		if !errors.Is(err, transport.ErrClosed) && !errors.Is(err, ErrPeerDead) {
			t.Fatalf("Flush after Close = %v, want ErrClosed (or ErrPeerDead if already declared)", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Flush still blocked 2s after Close")
	}
}

// TestBackoffResetsAfterAck pins Karn-correct backoff: RTO doublings
// accumulated through a loss episode must reset once an ACK shows the path
// passing traffic again — the pre-fix per-packet rto never recovered, so
// every later drop on the conversation waited out maxRTO.
func TestBackoffResetsAfterAck(t *testing.T) {
	n := simnet.New(simnet.Config{})
	ia, _ := n.OpenDatagram("a", 0)
	ib, _ := n.OpenDatagram("b", 0)
	ha := &hookEP{Datagram: ia}
	a, b := New(ha), New(ib)
	defer a.Close()
	defer b.Close()

	ha.set(func(p []byte, to transport.Addr) []byte { return nil }) // black hole
	if err := a.SendTo([]byte("stalled"), b.LocalAddr()); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for {
		var bo int
		peerField(t, a, b.LocalAddr(), func(ps *peerState) { bo = ps.backoff })
		if bo >= 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("backoff never accumulated under total loss")
		}
		time.Sleep(5 * time.Millisecond)
	}
	ha.set(nil) // heal
	if err := a.Flush(5 * time.Second); err != nil {
		t.Fatalf("Flush after heal: %v", err)
	}
	var bo int
	peerField(t, a, b.LocalAddr(), func(ps *peerState) { bo = ps.backoff })
	if bo != 0 {
		t.Fatalf("backoff = %d after acknowledged progress, want 0 (Karn reset)", bo)
	}
}

// TestPeerDeathIsPerPeer pins failure containment and eviction: one
// unreachable peer must neither wedge traffic to healthy peers (the
// pre-fix endpoint-global fatal error did) nor leave dead state behind —
// after eviction the same address can be talked to again.
func TestPeerDeathIsPerPeer(t *testing.T) {
	if testing.Short() {
		t.Skip("retry exhaustion takes seconds")
	}
	n := simnet.New(simnet.Config{})
	ia, _ := n.OpenDatagram("a", 0)
	ib, _ := n.OpenDatagram("b", 0)
	ic, _ := n.OpenDatagram("c", 0)
	ha := &hookEP{Datagram: ia}
	a, b, c := New(ha), New(ib), New(ic)
	defer a.Close()
	defer b.Close()
	defer c.Close()

	cAddr := c.LocalAddr()
	ha.set(func(p []byte, to transport.Addr) []byte {
		if to == cAddr {
			return nil // c unreachable
		}
		return p
	})
	if err := a.SendTo([]byte("doomed"), cAddr); err != nil {
		t.Fatal(err)
	}
	// While c's retries burn down, b must stay fully served.
	deadline := time.Now().Add(10 * time.Second)
	var deadErr error
	for deadErr == nil {
		if err := a.SendTo([]byte("alive"), b.LocalAddr()); err != nil {
			t.Fatalf("healthy peer wedged by dying peer: %v", err)
		}
		if p, _, err := b.Recv(2 * time.Second); err != nil || string(p) != "alive" {
			t.Fatalf("healthy peer starved: %q, %v", p, err)
		}
		err := a.Flush(50 * time.Millisecond)
		if errors.Is(err, ErrPeerDead) {
			deadErr = err
		} else if err != nil && !errors.Is(err, transport.ErrTimeout) {
			t.Fatalf("Flush: %v", err)
		}
		if time.Now().After(deadline) {
			t.Fatal("peer never declared dead")
		}
	}
	if got := a.Snapshot().PeerEvictions; got < 1 {
		t.Fatalf("PeerEvictions = %d after observing death, want ≥ 1", got)
	}
	// Heal the path: the evicted address must accept a fresh conversation.
	ha.set(nil)
	if err := a.SendTo([]byte("hello-again"), cAddr); err != nil {
		t.Fatalf("send to evicted address: %v", err)
	}
	if p, _, err := c.Recv(5 * time.Second); err != nil || string(p) != "hello-again" {
		t.Fatalf("resumed conversation: %q, %v", p, err)
	}
}

// TestRestartedPeerDetectedAndResumed pins the epoch mechanism end to end:
// a peer that crashes and restarts mid-conversation is detected via its new
// incarnation (fast — no retry exhaustion needed), in-flight messages
// surface as ErrPeerDead instead of being silently SACK-absorbed by the
// fresh receiver, and after eviction the conversation resumes cleanly with
// no stale out-of-order state crossing the restart boundary.
func TestRestartedPeerDetectedAndResumed(t *testing.T) {
	n := simnet.New(simnet.Config{})
	ia, _ := n.OpenDatagram("a", 0)
	ib, _ := n.OpenDatagram("b", 100)
	a, b1 := New(ia), New(ib)
	defer a.Close()

	bAddr := b1.LocalAddr()
	for i := 0; i < 5; i++ {
		if err := a.SendTo([]byte(fmt.Sprintf("pre-%d", i)), bAddr); err != nil {
			t.Fatal(err)
		}
		if p, _, err := b1.Recv(2 * time.Second); err != nil || string(p) != fmt.Sprintf("pre-%d", i) {
			t.Fatalf("pre-restart delivery: %q, %v", p, err)
		}
	}
	if err := a.Flush(2 * time.Second); err != nil {
		t.Fatal(err)
	}

	// Crash and restart b on the same address.
	b1.Close()
	ib2, err := n.OpenDatagram("b", 100)
	if err != nil {
		t.Fatalf("reopen crashed address: %v", err)
	}
	b2 := New(ib2)
	defer b2.Close()

	// The in-flight message lands at the restarted peer, which SACKs the
	// old sequence number it never delivered. The epoch mismatch must turn
	// that into ErrPeerDead at the sender — not a silent success.
	if err := a.SendTo([]byte("during-restart"), bAddr); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		err := a.Flush(50 * time.Millisecond)
		if errors.Is(err, ErrPeerDead) {
			break
		}
		if err == nil {
			t.Fatal("Flush reported success for a message the restarted peer never delivered (silent loss)")
		}
		if !errors.Is(err, transport.ErrTimeout) {
			t.Fatalf("Flush: %v", err)
		}
		if time.Now().After(deadline) {
			t.Fatal("restart never detected")
		}
	}
	if got := a.Snapshot().EpochMismatches; got < 1 {
		t.Fatalf("EpochMismatches = %d, want ≥ 1", got)
	}

	// Fresh conversation after eviction: delivered exactly once, and the
	// stale "during-restart" buffer must not leak out of b2.
	if err := a.SendTo([]byte("post-restart"), bAddr); err != nil {
		t.Fatalf("send after eviction: %v", err)
	}
	p, _, err := b2.Recv(5 * time.Second)
	if err != nil || string(p) != "post-restart" {
		t.Fatalf("post-restart delivery: %q, %v", p, err)
	}
	if p, _, err := b2.Recv(100 * time.Millisecond); err == nil {
		t.Fatalf("unexpected extra delivery %q — stale pre-restart state leaked", p)
	}
}
