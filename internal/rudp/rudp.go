// Package rudp implements a reliable datagram LLP on top of any unreliable
// transport.Datagram — the "reliable UDP" option the paper repeatedly
// invokes: "applications that currently use TCP can also be supported via a
// reliable UDP implementation that provides the order and reliability
// guarantees they require" (§IV.B), and "data loss ... can be supplemented
// by a reliability mechanism (like reliable UDP) for those applications that
// cannot deal with data loss" (§I).
//
// The protocol is deliberately lightweight compared to TCP — the whole point
// of the paper's RD mode: per-peer sliding windows with selective
// acknowledgement, adaptive retransmission (RFC 6298 RTT estimation with
// Karn-correct sampling and backoff), IRN-style selective loss recovery
// with a BDP-bounded congestion window (DESIGN.md §4.13), exactly-once
// in-order delivery, and nothing else (no byte-stream semantics, no
// connection teardown handshake). Message boundaries are preserved, so the
// DDP layer above needs no MPA markers.
//
// Wire format (big-endian; byte 0 carries the frame type in its low nibble
// and flag bits in its high nibble):
//
//	DATA: | type=1|flags (1) | epoch (1) | seq (4) | payload ... | crc32c (4) |
//	ACK:  | type=2|flags (1) | epoch (1) | cumAck (4) | sack bitmap (8) | crc32c (4) |
//
// cumAck acknowledges every DATA with seq ≤ cumAck; sack bit i acknowledges
// seq cumAck+1+i. The bitmap is 64 bits wide — exactly windowSize — so
// every packet the sender can have in flight is selectively acknowledgeable
// (the previous 32-bit bitmap covered only half the window, and the
// unSACKable upper half was spuriously retransmitted on every RTO even when
// delivered). The flagECN bit is the congestion-signal plane: a simulated
// switch (simnet/faultnet) sets it on a DATA frame via MarkCongestion, the
// receiver echoes it on its next ACK, and the sender answers the echo with
// a multiplicative cwnd decrease. The CRC32C trailer covers everything
// before it. It exists because this header is control plane: DDP's own CRC
// protects the payload end-to-end, but a bit flipped in cumAck would make
// the sender drop packets the receiver never got (silent loss), and a
// flipped seq would poison the receiver's reassembly state. Corrupt packets
// are discarded here and recovered exactly like losses.
//
// The epoch byte identifies one incarnation of the sender's conversation
// state: it is drawn at random when a peer's state is created and stamped
// on every packet of that conversation. Without it, a crash/restart on
// either side silently aliases two different conversations onto one
// sequence space — a restarted receiver SACKs sequence numbers it never
// delivered (silent loss), and stale out-of-order buffers can be delivered
// into the wrong conversation. An epoch mismatch with sends outstanding
// surfaces as ErrPeerDead; a mismatch on a conversation-start DATA adopts
// the new incarnation in place. A 1-in-256 collision between successive
// incarnations evades detection; that residual risk is accepted for a
// one-byte header cost.
//
// # Scaling (DESIGN.md §4.12)
//
// Per-peer state lives in a sharded peertab.Table: the demux from source
// address to window state is a lock-free snapshot lookup, and every state
// mutation takes only that peer's entry lock, so senders to different
// peers never contend. Retransmit scheduling is a hashed timer wheel — the
// tick visits only peers whose RTO is actually due instead of scanning the
// whole population under a global mutex. One QP's worth of endpoint can
// therefore carry the paper's "arbitrarily many peers" without the peer
// count taxing every packet.
package rudp

import (
	"errors"
	"fmt"
	"math/bits"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/crcx"
	"repro/internal/nio"
	"repro/internal/peertab"
	"repro/internal/telemetry"
	"repro/internal/transport"
)

const (
	typeData = 1
	typeAck  = 2
	// typeMask extracts the frame type from byte 0; the high nibble is
	// flag space so a marked packet still demuxes correctly.
	typeMask = 0x0f
	// flagECN is the congestion-experienced bit: set on DATA by the network
	// (MarkCongestion), echoed on the next ACK by the receiver.
	flagECN = 0x80

	headerLen  = 6                      // DATA header before the payload
	ackBodyLen = 14                     // ACK fields before the trailer (64-bit SACK bitmap)
	ackLen     = ackBodyLen + crcx.Size // full ACK wire size
	windowSize = 64
	// sackBits is the SACK bitmap width. It MUST cover the full window:
	// the sender can have windowSize packets in flight, and any seq the
	// bitmap cannot express is retransmitted on every RTO even when it was
	// delivered (the seed shipped 32 bits against a 64-packet window and
	// behaved like go-back-N under burst loss).
	sackBits = windowSize
	// acceptWindow bounds how far past the in-order point a DATA seq may be
	// buffered. The sender never has more than windowSize unacked, so any
	// farther seq is garbage (or an un-evicted peer's past life); buffering
	// it would wedge reassembly and leak the out-of-order map.
	acceptWindow = windowSize
	maxRetries   = 12
	initialRTO   = 10 * time.Millisecond
	maxRTO       = 200 * time.Millisecond
	maxBackoff   = 6 // cap on Karn doublings; rto is clamped to maxRTO anyway
	tickInterval = 2 * time.Millisecond

	// wheelSlots × tickInterval is the wheel horizon (512ms) — past maxRTO,
	// so a deadline never wraps in normal operation.
	wheelSlots = 256
	// idleSweepEvery spaces EvictIdle scans: the scan is O(peers), so it
	// runs once a second, not once per 2ms tick.
	idleSweepEvery = time.Second / tickInterval

	// Congestion control (IRN-style, DESIGN.md §4.13). cwnd is a packet
	// count bounding unackedN; it grows by slow start below ssthresh and
	// AIMD above it, and is clamped to windowSize (the ring IS the BDP
	// ceiling). dupAckThresh duplicate cumulative ACKs carrying new SACK
	// information trigger fast retransmit of the holes below the highest
	// SACKed seq — loss recovery one RTT after the loss instead of one RTO.
	initialCwnd  = 16
	minCwnd      = 2
	dupAckThresh = 3
)

// ErrPeerDead reports that a peer stopped acknowledging after maxRetries
// retransmissions of some packet. The failure is per-peer: the first SendTo
// or Flush that observes it returns this error and evicts the peer's state,
// so a restarted peer (fresh sequence space) can resume on the same address
// while traffic to other peers continues unaffected.
var ErrPeerDead = errors.New("rudp: peer unreachable (retries exhausted)")

// Config tunes the endpoint's peer-table policy. The zero value matches
// the historical New behavior: default sharding, unbounded peers, no idle
// eviction.
type Config struct {
	// Shards is the peer-table stripe count (power of two; 0 selects the
	// peertab default). Raise it for soak-scale populations so each
	// copy-on-write insert copies a small shard.
	Shards int
	// MaxPeers bounds the peer table. Beyond it, SendTo to a new peer
	// returns peertab.ErrCapacity and inbound packets from new peers are
	// dropped (counted in diwarp_peertab_admission_rejects_total).
	// Zero means unbounded.
	MaxPeers int
	// IdleEvict, when positive, evicts peers whose conversation has been
	// idle that long and has nothing unacknowledged. A resumed peer starts
	// a fresh conversation (new epoch) transparently; any out-of-order
	// data buffered behind a loss gap is dropped with the state, exactly
	// as if the packets had been lost on the wire.
	IdleEvict time.Duration
}

// Endpoint is a reliable datagram endpoint. It implements
// transport.Datagram, delivering every message exactly once and in per-peer
// order, so it can be slotted under the iWARP stack wherever a raw UDP
// endpoint can.
type Endpoint struct {
	inner transport.Datagram
	cfg   Config

	// pool recycles DATA wire buffers (header + payload + CRC). A buffer
	// lives from SendTo until its reference count drains: one reference
	// for window residency, one per transmission handed to the inner
	// transport (see pending.refs).
	pool *nio.Pool
	// ackPool recycles the small ACK wire buffers, which are released as
	// soon as the inner SendTo returns (the transport does not retain them).
	ackPool *nio.Pool

	// tab shards the per-peer state; wheel schedules retransmit deadlines.
	// Lock order: shard.mu → Entry.mu → wslot.mu (declared in peertab).
	tab    *peertab.Table[transport.Addr, peerState]
	wheel  *peertab.Wheel[transport.Addr]
	closed atomic.Bool

	// Reliability counters are telemetry-registry handles (DESIGN.md §4.6).
	// ackSendFail and dataSendFail count inner-transport send failures on
	// the paths that have no caller to return an error to (ACKs from the
	// receive loop, retransmissions from the timer loop). The protocol
	// already tolerates the loss — a dropped ACK is re-cut from cumulative
	// state, a dropped retransmission fires again at the next RTO — but a
	// persistently failing transport must be visible rather than silent.
	retransmits   *telemetry.Counter   // DATA packets resent (RTO expiry or fast retransmit)
	rtoExpired    *telemetry.Counter   // RTO expiry events (includes final, fatal one)
	ackSendFail   *telemetry.Counter   // ACK sends the inner transport rejected
	dataSendFail  *telemetry.Counter   // retransmission sends the inner transport rejected
	crcFail       *telemetry.Counter   // inbound packets dropped by the header CRC
	windowDrops   *telemetry.Counter   // DATA beyond the acceptance window, not buffered
	evictions     *telemetry.Counter   // peers evicted (dead on observation, or idle)
	epochMismatch *telemetry.Counter   // packets from a different conversation incarnation
	rtt           *telemetry.Histogram // ack round-trip, µs (Karn: first transmissions only)

	// Congestion-control observability (DESIGN.md §4.13). ccCwnd is a gauge
	// tracking the most recently adjusted peer's cwnd — with one busy peer
	// (the benchmark and chaos shapes) it IS the cwnd trajectory; the
	// registry sums handles across endpoints, so a scrape of a multi-
	// endpoint process reads the sum of each endpoint's latest value.
	// ccSpurious counts DATA arrivals the receiver had already delivered or
	// buffered — every one is a packet the sender resent for nothing (or a
	// wire duplicate), the counter that proves the SACK-width fix.
	ccCwnd       *telemetry.Gauge
	ccFastRexmit *telemetry.Counter // DATA packets resent by dup-ACK fast retransmit
	ccSpurious   *telemetry.Counter // duplicate DATA arrivals (already delivered/buffered)
	ccEcnMarks   *telemetry.Counter // DATA arrivals carrying the congestion mark
	ccMDEvents   *telemetry.Counter // multiplicative decreases (ECN echo, dup-ACK loss, RTO)

	inbox chan message
	done  chan struct{}
	wg    sync.WaitGroup
}

type message struct {
	payload []byte
	from    transport.Addr
}

// peerEntry is one peer's slot in the sharded table; its embedded lock
// guards every peerState field.
type peerEntry = peertab.Entry[transport.Addr, peerState]

// peerState tracks one remote endpoint's send and receive windows. All
// fields are guarded by the owning entry's lock except pending.refs.
type peerState struct {
	// Send side. The un-acked window is a fixed ring indexed seq mod
	// windowSize: sequence numbers are assigned consecutively, so slot
	// seq&63 is free exactly when seq-64 has been acknowledged — the ring
	// occupancy IS the window check. Compared to a map keyed by seq this
	// removes one heap allocation per send (the map's *pending value) and
	// turns every window scan (ack clearing, RTO sweep, teardown) into a
	// 64-entry array walk with no hashing and no iterator.
	wnd      [windowSize]pending
	unackedN int           // ring slots currently holding the window reference
	nextSeq  uint32        // next sequence number to assign
	ackedTo  uint32        // every seq ≤ ackedTo is acked: window walks start past it
	sendWait chan struct{} // pulsed when window space frees
	dead     error         // set once retries exhaust or the peer restarts; awaits eviction

	// wheelIdx is the wheel slot this peer's earliest retransmit deadline
	// is filed in, or -1 when unarmed. The tick loop sets it to -1 when it
	// consumes a firing (matching the Fired slot — a mismatch means the
	// peer re-armed between the pop and the lock, and the firing is
	// stale); everyone else arms only when it is -1 and disarms through
	// it, so a peer occupies at most one wheel filing.
	wheelIdx int

	// Incarnation tracking: txEpoch stamps every packet this conversation
	// sends; rxEpoch is the peer's epoch, bound from its first packet.
	txEpoch byte
	rxEpoch byte
	rxBound bool

	// Adaptive RTO (RFC 6298): srtt/rttvar are fed by first-transmission
	// RTT samples only (Karn), and backoff counts consecutive RTO doublings
	// since the last acknowledged progress — it MUST reset on progress, or
	// one loss burst leaves every later retransmission crawling at maxRTO.
	srtt    time.Duration
	rttvar  time.Duration
	backoff int

	// Congestion control. cwnd is the dynamic in-flight cap in packets;
	// ssthresh the slow-start/AIMD boundary.
	// ccRecover gates multiplicative decrease NewReno-style: signals
	// arriving while ackedTo has not passed the seq outstanding at the last
	// decrease belong to the same congestion event and must not halve cwnd
	// again. dupAcks counts consecutive ACKs that advanced nothing
	// cumulatively but freed new SACK holes — the fast-retransmit trigger.
	// ecnEcho, on the receive side, latches an observed congestion mark
	// until the next ACK carries the echo out.
	cwnd      float64
	ssthresh  float64
	ccRecover uint32
	dupAcks   int
	ecnEcho   bool

	// Receive side.
	expected uint32            // next in-order seq to deliver
	ooo      map[uint32][]byte // out-of-order arrivals pending delivery
}

// curRTO returns the peer's current retransmission timeout: the RFC 6298
// estimate (or initialRTO before the first sample), doubled per Karn
// backoff step, clamped to [initialRTO, maxRTO].
func (ps *peerState) curRTO() time.Duration {
	rto := initialRTO
	if ps.srtt > 0 {
		rto = ps.srtt + 4*ps.rttvar
		if rto < initialRTO {
			rto = initialRTO
		}
	}
	for i := 0; i < ps.backoff && rto < maxRTO; i++ {
		rto *= 2
	}
	if rto > maxRTO {
		rto = maxRTO
	}
	return rto
}

// observeRTT folds one first-transmission RTT sample into the estimator.
func (ps *peerState) observeRTT(sample time.Duration) {
	if ps.srtt == 0 {
		ps.srtt = sample
		ps.rttvar = sample / 2
		return
	}
	diff := ps.srtt - sample
	if diff < 0 {
		diff = -diff
	}
	ps.rttvar = (3*ps.rttvar + diff) / 4
	ps.srtt = (7*ps.srtt + sample) / 8
}

// cwndCap is the congestion window as an integer packet bound (≥ 1 so the
// window can never deadlock shut).
func (ps *peerState) cwndCap() int {
	n := int(ps.cwnd)
	if n < 1 {
		n = 1
	}
	if n > windowSize {
		n = windowSize
	}
	return n
}

// ccGrow credits n newly acknowledged packets to the congestion window:
// slow start (one packet per acked packet) below ssthresh, additive
// increase (~one packet per cwnd of acks, i.e. per RTT) above it, clamped
// to the ring size — the ring IS the BDP ceiling.
func (ps *peerState) ccGrow(n int) {
	for i := 0; i < n; i++ {
		if ps.cwnd < ps.ssthresh {
			ps.cwnd++
		} else {
			ps.cwnd += 1 / ps.cwnd
		}
	}
	if ps.cwnd > windowSize {
		ps.cwnd = windowSize
	}
}

// ccDecrease applies one multiplicative decrease, NewReno-gated: signals
// landing before ackedTo passes the flight outstanding at the previous
// decrease are the same congestion event and are absorbed. collapse
// distinguishes an RTO expiry (the flight is presumed gone — restart from
// minCwnd) from an ECN echo or dup-ACK loss (the network is still
// delivering — keep half the window). Reports whether a decrease happened.
func (ps *peerState) ccDecrease(collapse bool) bool {
	if !seqLE(ps.ccRecover, ps.ackedTo) {
		return false
	}
	ps.ssthresh = ps.cwnd / 2
	if ps.ssthresh < minCwnd {
		ps.ssthresh = minCwnd
	}
	if collapse {
		ps.cwnd = minCwnd
	} else {
		ps.cwnd = ps.ssthresh
	}
	ps.ccRecover = ps.nextSeq - 1
	ps.dupAcks = 0
	return true
}

// pending is one ring slot: an in-window packet. refs counts reasons the
// wire buffer must stay alive: 1 for window residency (inUse) plus 1 per
// transmission currently handed to the inner transport. Increments happen
// only under the peer's entry lock while the window reference is still held
// (so refs never revives from zero); the final decrement — wherever it
// lands — recycles the buffer without needing any lock. Because the slot
// outlives the packet (the ring is reused), every releaseRef passes the
// payload it captured while it still held a reference: reading pd.payload
// after the decrement could observe the slot's next occupant.
//
// A slot is reusable only when inUse is false AND refs has drained to 0 —
// a lingering transmission reference (a retransmission in flight when the
// ack landed) briefly blocks reuse, which SendTo treats as a full window.
type pending struct {
	payload  []byte
	lastSent time.Time
	seq      uint32
	retries  int
	inUse    bool
	refs     atomic.Int32
}

// hashAddr is the table's shard hash: FNV-1a over the address, the same
// discipline (and therefore the same spread) as the core placement workers.
func hashAddr(a transport.Addr) uint32 {
	h := peertab.HashString(peertab.Seed(), a.Node)
	return peertab.HashUint32(h, uint32(a.Port))
}

// New wraps inner with reliability using default Config. The Endpoint owns
// inner and closes it.
func New(inner transport.Datagram) *Endpoint { return NewConfig(inner, Config{}) }

// NewConfig wraps inner with reliability under an explicit peer-table
// policy.
func NewConfig(inner transport.Datagram, cfg Config) *Endpoint {
	e := &Endpoint{
		inner:   inner,
		cfg:     cfg,
		pool:    nio.NewPool(inner.MaxDatagram()),
		ackPool: nio.NewPool(ackLen),
		tab: peertab.New[transport.Addr, peerState](hashAddr, peertab.Options{
			Shards:   cfg.Shards,
			Capacity: cfg.MaxPeers,
		}),
		wheel:         peertab.NewWheel[transport.Addr](wheelSlots, tickInterval),
		inbox:         make(chan message, 1024),
		done:          make(chan struct{}),
		retransmits:   telemetry.Default.Counter("diwarp_rudp_retransmits_total"),
		rtoExpired:    telemetry.Default.Counter("diwarp_rudp_rto_expired_total"),
		ackSendFail:   telemetry.Default.Counter("diwarp_rudp_ack_send_fail_total"),
		dataSendFail:  telemetry.Default.Counter("diwarp_rudp_retransmit_send_fail_total"),
		crcFail:       telemetry.Default.Counter("diwarp_rudp_crc_fail_total"),
		windowDrops:   telemetry.Default.Counter("diwarp_rudp_window_drops_total"),
		evictions:     telemetry.Default.Counter("diwarp_rudp_peer_evictions_total"),
		epochMismatch: telemetry.Default.Counter("diwarp_rudp_epoch_mismatch_total"),
		rtt:           telemetry.Default.Histogram("diwarp_rudp_rtt_microseconds"),
		ccCwnd:        telemetry.Default.Gauge("diwarp_rudp_cc_cwnd"),
		ccFastRexmit:  telemetry.Default.Counter("diwarp_rudp_cc_fast_retransmits_total"),
		ccSpurious:    telemetry.Default.Counter("diwarp_rudp_cc_spurious_rexmits_total"),
		ccEcnMarks:    telemetry.Default.Counter("diwarp_rudp_cc_ecn_marks_total"),
		ccMDEvents:    telemetry.Default.Counter("diwarp_rudp_cc_md_events_total"),
	}
	e.ccCwnd.Set(initialCwnd)
	e.wg.Add(2)
	go e.recvLoop()
	go e.retransmitLoop()
	return e
}

// initPeer initializes a freshly admitted peer's state; peertab runs it
// before the entry is visible to anyone else.
func initPeer(ent *peerEntry) {
	ent.V = peerState{
		ooo:      make(map[uint32][]byte),
		nextSeq:  1,
		expected: 1,
		sendWait: make(chan struct{}, 1),
		txEpoch:  byte(rand.Int()),
		wheelIdx: -1,
		cwnd:     initialCwnd,
		ssthresh: windowSize,
	}
}

// lockPeer returns the peer's entry locked and alive, creating it if
// absent. The only error is table admission (peertab.ErrCapacity).
func (e *Endpoint) lockPeer(a transport.Addr) (*peerEntry, error) {
	ent, _, err := e.tab.LockOrCreate(a, initPeer)
	return ent, err
}

// evictEntry tears a peer out of the table (idempotent, pointer-exact).
// The caller must NOT hold the entry lock and must have already released
// the peer's window and wheel state.
func (e *Endpoint) evictEntry(ent *peerEntry) {
	if e.tab.EvictEntry(ent) {
		e.evictions.Inc()
	}
}

// releaseRef drops one reference from a pending slot and recycles the wire
// buffer when the count drains. payload is the caller's capture of the
// slot's buffer, taken while the caller still held a reference — the slot
// itself may be re-occupied the instant refs reaches 0.
func (e *Endpoint) releaseRef(pd *pending, payload []byte) {
	if pd.refs.Add(-1) == 0 {
		e.pool.Put(payload)
	}
}

// releaseWindow empties the peer's send window, dropping each packet's
// window reference and waking any blocked sender. Caller holds the entry
// lock. Also disarms the retransmit wheel — a peer with no window has no
// deadline, and an evicted peer must not leak its wheel filing.
func (e *Endpoint) releaseWindow(ent *peerEntry) {
	ps := &ent.V
	for i := range ps.wnd {
		pd := &ps.wnd[i]
		if !pd.inUse {
			continue
		}
		payload := pd.payload
		pd.inUse, pd.payload = false, nil
		ps.unackedN--
		e.releaseRef(pd, payload)
	}
	if ps.wheelIdx >= 0 {
		e.wheel.Disarm(ent.Key, ps.wheelIdx)
		ps.wheelIdx = -1
	}
	select {
	case ps.sendWait <- struct{}{}:
	default:
	}
}

// seqLE reports a ≤ b in wraparound-aware serial arithmetic.
func seqLE(a, b uint32) bool { return int32(b-a) >= 0 }

// IsAckPacket reports whether a wire packet is a rudp ACK — exported so a
// fault-injection layer below can target the reverse path (ACK blackholes)
// without re-deriving the wire format.
func IsAckPacket(p []byte) bool { return len(p) == ackLen && p[0]&typeMask == typeAck }

// MarkCongestion sets the ECN congestion-experienced bit on a rudp DATA
// frame in place, re-stamping the CRC trailer (the header is control plane:
// a simulated switch may rewrite it, but the receiver verifies the CRC
// before the type byte, so the mark must be covered or the frame reads as
// corrupt). Reports whether p was a markable DATA frame; ACKs and foreign
// packets are left untouched. Exported as the Marker hook for simnet and
// faultnet — the layers playing the ECN-capable switch. The caller must own
// p exclusively (its private copy of the frame): marking a buffer the
// sender retains for retransmission would race with the resend path.
func MarkCongestion(p []byte) bool {
	if len(p) < headerLen+crcx.Size || p[0]&typeMask != typeData {
		return false
	}
	p[0] |= flagECN
	body := p[:len(p)-crcx.Size]
	// Appending to the truncated slice rewrites the trailer bytes in place:
	// body's capacity still spans p's backing array.
	nio.PutU32(body, crcx.Checksum(body))
	return true
}

// admitEpoch checks an inbound packet's epoch against the conversation and
// reports whether processing may continue. Caller holds the entry lock.
//
// A mismatch means the peer's conversation state was rebuilt (process
// restart, or eviction-and-retry on its side). With sends outstanding, the
// conversation's fate is ambiguous — some packets the old incarnation
// SACKed may never have been delivered — so the peer is declared dead and
// the error surfaces instead of silently losing data. With nothing
// outstanding, a conversation-start DATA (small seq) adopts the new
// incarnation in place, clearing receive state so stale out-of-order
// buffers cannot leak into the new conversation; anything else (stale
// stragglers, orphan ACKs) is dropped.
func (e *Endpoint) admitEpoch(ent *peerEntry, epoch byte, isData bool, seq uint32) bool {
	ps := &ent.V
	if !ps.rxBound {
		ps.rxBound, ps.rxEpoch = true, epoch
		return true
	}
	if ps.rxEpoch == epoch {
		return true
	}
	e.epochMismatch.Inc()
	if ps.unackedN > 0 {
		if ps.dead == nil {
			ps.dead = fmt.Errorf("%w: %s restarted (epoch %d -> %d)", ErrPeerDead, ent.Key, ps.rxEpoch, epoch)
			e.releaseWindow(ent)
		}
		return false
	}
	if isData && seq-1 < acceptWindow {
		ps.rxEpoch = epoch
		ps.expected = 1
		clear(ps.ooo)
		ps.nextSeq, ps.ackedTo = 1, 0
		ps.srtt, ps.rttvar, ps.backoff = 0, 0, 0
		ps.cwnd, ps.ssthresh = initialCwnd, windowSize
		ps.ccRecover, ps.dupAcks, ps.ecnEcho = 0, 0, false
		return true
	}
	return false
}

// SendTo implements transport.Datagram. It blocks while the peer's send
// window is full and returns ErrPeerDead if the peer stops acknowledging —
// in which case the peer's state is evicted, so the next SendTo to the same
// address starts a fresh conversation. With Config.MaxPeers set it returns
// peertab.ErrCapacity for a new peer that does not fit.
func (e *Endpoint) SendTo(p []byte, to transport.Addr) error {
	if len(p) > e.MaxDatagram() {
		return transport.ErrTooLarge
	}
	// One timer serves every blocked-wait iteration of this call (see
	// waitSendSlot); nil until the window first blocks, so the fast path
	// never allocates one.
	var tm *time.Timer
	defer func() {
		if tm != nil {
			tm.Stop()
		}
	}()
	for {
		if e.closed.Load() {
			return transport.ErrClosed
		}
		ent, err := e.lockPeer(to)
		if err != nil {
			return err
		}
		ps := &ent.V
		if ps.dead != nil {
			err := ps.dead
			ent.Unlock()
			e.evictEntry(ent)
			return err
		}
		// The next seq's ring slot is free exactly when seq-windowSize has
		// been acked (seqs are consecutive), so slot occupancy is the window
		// check. refs must also have drained: a retransmission of the old
		// occupant may still be in flight holding the slot's counter. On top
		// of the ring bound, unackedN must fit the congestion window — the
		// BDP-scaled dynamic cap.
		pd := &ps.wnd[ps.nextSeq&(windowSize-1)]
		if !pd.inUse && pd.refs.Load() == 0 && ps.unackedN < ps.cwndCap() {
			now := time.Now()
			seq := ps.nextSeq
			ps.nextSeq++
			buf := e.pool.Get()
			buf = append(buf, typeData, ps.txEpoch)
			buf = nio.PutU32(buf, seq)
			buf = append(buf, p...)
			buf = nio.PutU32(buf, crcx.Checksum(buf))
			pd.payload, pd.lastSent, pd.seq, pd.retries, pd.inUse = buf, now, seq, 0, true
			pd.refs.Store(2) // window residency + the transmission below
			ps.unackedN++
			if ps.wheelIdx < 0 {
				ps.wheelIdx = e.wheel.Arm(to, now.Add(ps.curRTO()))
			}
			ent.Touch(now.UnixNano())
			ent.Unlock()
			err := e.inner.SendTo(buf, to)
			e.releaseRef(pd, buf)
			return err
		}
		wait := ps.sendWait
		ent.Unlock()
		var ok bool
		if tm, ok = e.waitSendSlot(wait, tm); !ok {
			return transport.ErrClosed
		}
	}
}

// waitSendSlot parks a blocked sender until window space is pulsed, the
// endpoint closes (ok=false), or a re-check interval passes (space may have
// been freed without a pulse). The timer is reused across iterations of one
// SendTo — the historical time.After here allocated a fresh runtime timer
// every loop, garbage proportional to time spent blocked. tm is nil on the
// first block; the (possibly just-created) timer is returned for the next
// iteration and is either drained here or stopped by SendTo's defer.
func (e *Endpoint) waitSendSlot(wait chan struct{}, tm *time.Timer) (*time.Timer, bool) {
	if tm == nil {
		tm = time.NewTimer(tickInterval * 4)
	} else {
		// Pre-1.23 timer discipline: the channel must be drained before
		// Reset, and the select below guarantees it was not already.
		if !tm.Stop() {
			select {
			case <-tm.C:
			default:
			}
		}
		tm.Reset(tickInterval * 4)
	}
	select {
	case <-wait:
	case <-e.done:
		return tm, false
	case <-tm.C:
	}
	return tm, true
}

// SendBatch implements transport.Datagram: the burst goes through the
// per-datagram send step one at a time (each datagram is windowed, framed
// and acknowledged on its own).
func (e *Endpoint) SendBatch(pkts [][]byte, to transport.Addr) (int, error) {
	for i, p := range pkts {
		if err := e.SendTo(p, to); err != nil {
			return i, err
		}
	}
	return len(pkts), nil
}

// Recv implements transport.Datagram, returning the next in-order message
// from any peer.
func (e *Endpoint) Recv(timeout time.Duration) ([]byte, transport.Addr, error) {
	m, err := e.next(timeout)
	return m.payload, m.from, err
}

// RecvBatch implements transport.Datagram: it waits like Recv for the first
// message, then takes whatever else the inbox already holds.
func (e *Endpoint) RecvBatch(pkts [][]byte, froms []transport.Addr, timeout time.Duration) (int, error) {
	max := min(len(pkts), len(froms))
	if max == 0 {
		return 0, nil
	}
	m, err := e.next(timeout)
	if err != nil {
		return 0, err
	}
	pkts[0], froms[0] = m.payload, m.from
	for n := 1; n < max; n++ {
		select {
		case m := <-e.inbox:
			pkts[n], froms[n] = m.payload, m.from
		default:
			return n, nil
		}
	}
	return max, nil
}

// next is the per-message receive step under Recv and RecvBatch.
func (e *Endpoint) next(timeout time.Duration) (message, error) {
	// Fast path: pending delivery needs no timer.
	select {
	case m := <-e.inbox:
		return m, nil
	default:
	}
	var tch <-chan time.Time
	if timeout > 0 {
		t := time.NewTimer(timeout)
		defer t.Stop()
		tch = t.C
	}
	return e.await(tch)
}

// await blocks for the next message until tch fires or the endpoint closes.
func (e *Endpoint) await(tch <-chan time.Time) (message, error) {
	err := transport.ErrClosed
	select {
	case m := <-e.inbox:
		return m, nil
	case <-tch:
		err = transport.ErrTimeout
	case <-e.done:
	}
	// One last look: select picks at random among ready cases, so a fired
	// timer (or a close) does not mean the inbox is empty, and a delivered
	// message must never surface as a timeout — timeout polling is the
	// stack's loss signal.
	select {
	case m := <-e.inbox:
		return m, nil
	default:
		return message{}, err
	}
}

// Recycle implements transport.Datagram as a no-op: delivered payloads are
// this layer's own heap copies, not the inner endpoint's pooled buffers
// (those go back in recvLoop), so there is no pool to return them to yet.
func (e *Endpoint) Recycle([]byte) {}

// RecvPoolStats implements transport.Datagram: zeroes, for the same reason.
func (e *Endpoint) RecvPoolStats() (hits, misses int64) { return 0, 0 }

// recvLoop dispatches incoming DATA and ACK packets. The CRC trailer is
// checked before anything else: a corrupt header is indistinguishable from
// a hostile one, and acting on it corrupts protocol state (see the wire
// format comment), so the packet is dropped and recovered as a loss.
func (e *Endpoint) recvLoop() {
	defer e.wg.Done()
	for {
		pkt, from, err := e.inner.Recv(0)
		if err != nil {
			return // endpoint closed underneath us
		}
		if len(pkt) >= headerLen+crcx.Size {
			body := pkt[:len(pkt)-crcx.Size]
			if crcx.Checksum(body) != nio.U32(pkt[len(body):]) {
				e.crcFail.Inc()
				telemetry.DefaultTrace.Record(telemetry.EvCRCFail, telemetry.PeerToken(from), len(pkt), 0)
			} else {
				switch body[0] & typeMask {
				case typeData:
					e.handleData(body, from)
				case typeAck:
					if len(body) >= ackBodyLen {
						e.handleAck(body, from)
					}
				}
			}
		}
		// Both handlers copy what they keep; the buffer can be recycled.
		e.inner.Recycle(pkt)
	}
}

func (e *Endpoint) handleData(pkt []byte, from transport.Addr) {
	seq := nio.U32(pkt[2:])
	payload := pkt[headerLen:]

	ent, err := e.lockPeer(from)
	if err != nil {
		// Table at capacity: the stranger's packet is dropped exactly like
		// a loss (peertab counts the rejection); admitted peers continue.
		return
	}
	ps := &ent.V
	if !e.admitEpoch(ent, pkt[1], true, seq) {
		ent.Unlock()
		return
	}
	if pkt[0]&flagECN != 0 {
		// Congestion-experienced mark from the network below: latch the
		// echo so the ACK cut below carries it back to the sender.
		e.ccEcnMarks.Inc()
		ps.ecnEcho = true
	}
	var deliverables []message
	switch {
	case seq-ps.expected < acceptWindow:
		// In the acceptance window: buffer, then deliver the in-order
		// prefix. The subtraction is wraparound-correct, so a window that
		// straddles seq 2^32 → 0 behaves like any other.
		if _, dup := ps.ooo[seq]; !dup {
			ps.ooo[seq] = append([]byte(nil), payload...)
		} else {
			// Already buffered: the sender resent a packet we hold (or the
			// wire duplicated it) — a spurious retransmission either way.
			e.ccSpurious.Inc()
		}
		for {
			data, ok := ps.ooo[ps.expected]
			if !ok {
				break
			}
			delete(ps.ooo, ps.expected)
			deliverables = append(deliverables, message{payload: data, from: from})
			ps.expected++
		}
	case seqLE(seq, ps.expected-1):
		// Old duplicate (the sender missed our ACK): nothing to store, but
		// fall through to re-cut the cumulative ACK below. Counted spurious:
		// this packet was already delivered, so resending it moved no data.
		e.ccSpurious.Inc()
	default:
		// Beyond the window: a sane sender cannot produce this within one
		// conversation, so nothing is stored — one garbage packet must not
		// reserve unbounded reassembly state. The cumulative ACK below is
		// still sent: it is truthful, and its epoch lets a sender whose
		// conversation predates ours detect the restart immediately.
		e.windowDrops.Inc()
	}
	ack := e.buildAck(ps)
	ent.Touch(time.Now().UnixNano())
	ent.Unlock()

	// ACK first so the sender's window opens even if our inbox is full.
	// A failed ACK send is recoverable — acks are cumulative and the next
	// inbound DATA re-cuts one — but it must be counted, not swallowed.
	if err := e.inner.SendTo(ack, from); err != nil {
		e.ackSendFail.Inc()
	}
	e.ackPool.Put(ack)
	for _, m := range deliverables {
		select {
		case e.inbox <- m:
		case <-e.done:
			return
		}
	}
}

// buildAck encodes the peer's receive state: cumulative ack plus a bitmap
// of the full window of sequence numbers above it, and the latched ECN echo
// in the flag nibble. Caller holds the entry lock.
func (e *Endpoint) buildAck(ps *peerState) []byte {
	cum := ps.expected - 1
	var bitmap uint64
	for i := uint32(0); i < sackBits; i++ {
		if _, ok := ps.ooo[cum+1+i]; ok {
			bitmap |= 1 << i
		}
	}
	head := byte(typeAck)
	if ps.ecnEcho {
		head |= flagECN
		ps.ecnEcho = false
	}
	buf := e.ackPool.Get()
	buf = append(buf, head, ps.txEpoch)
	buf = nio.PutU32(buf, cum)
	buf = nio.PutU64(buf, bitmap)
	buf = nio.PutU32(buf, crcx.Checksum(buf))
	return buf
}

// sackHighest returns the highest sequence number the bitmap selectively
// acknowledges above cum, in wraparound arithmetic (bit i ↔ seq cum+1+i, so
// the result is correct even when the window straddles 2^32 → 0). ok is
// false when the bitmap is empty.
func sackHighest(cum uint32, bitmap uint64) (uint32, bool) {
	if bitmap == 0 {
		return 0, false
	}
	return cum + uint32(64-bits.LeadingZeros64(bitmap)), true
}

func (e *Endpoint) handleAck(pkt []byte, from transport.Addr) {
	cum := nio.U32(pkt[2:])
	bitmap := nio.U64(pkt[6:])

	now := time.Now()
	// Look up without creating: an ACK from an address we are not talking
	// to (evicted peer's stale ack, mis-delivery) must not mint state.
	ent := e.tab.Lookup(from)
	if ent == nil {
		return
	}
	ps := &ent.V
	if !e.admitEpoch(ent, pkt[1], false, 0) {
		ent.Unlock()
		return
	}
	cumBefore := ps.ackedTo
	freedN := 0  // slots this ACK released (cumulative or selective)
	sackNew := 0 // of those, released by a bitmap bit above cum
	// Walk only the live window range (ackedTo, nextSeq): unacked seqs are
	// consecutive, so everything below ackedTo's slot is long recycled and
	// everything at nextSeq and above is unsent.
	for seq := ps.ackedTo + 1; seqLE(seq, ps.nextSeq-1); seq++ {
		pd := &ps.wnd[seq&(windowSize-1)]
		if !pd.inUse || pd.seq != seq {
			continue // a SACK hole already cleared this slot
		}
		acked := seqLE(seq, cum)
		if !acked {
			// SACK offset in wraparound arithmetic: seq-cum-1 is the bit
			// index even when cum is just below 2^32 and seq just above 0.
			if d := seq - cum - 1; d < sackBits && bitmap&(1<<d) != 0 {
				acked = true
				sackNew++
			}
		}
		if !acked {
			continue
		}
		// Karn's algorithm: only first transmissions give an unambiguous
		// RTT sample — an ack after a retransmit could match either send.
		if pd.retries == 0 {
			sample := now.Sub(pd.lastSent)
			e.rtt.Observe(sample.Microseconds())
			ps.observeRTT(sample)
		}
		payload := pd.payload
		pd.inUse, pd.payload = false, nil
		ps.unackedN--
		e.releaseRef(pd, payload)
		freedN++
	}
	// Advance the contiguous-acked floor to the cumulative ack (never past
	// what was actually sent: a garbage cum must not detach the floor from
	// the window, and SACKed seqs above it stay holes until cum catches up).
	if seqLE(ps.ackedTo+1, cum) && seqLE(cum, ps.nextSeq-1) {
		ps.ackedTo = cum
	}
	if freedN > 0 {
		// Acknowledged progress ends the backoff regime (Karn): the path is
		// passing traffic again, so retransmission timing restarts from the
		// current RTT estimate instead of the escalated timeout.
		ps.backoff = 0
	}
	// Congestion control + fast retransmit. Resends are collected under the
	// lock and sent after it.
	type resend struct {
		pd      *pending
		payload []byte
		seq     uint32
	}
	var rs [windowSize]resend
	nrs := 0
	ps.ccGrow(freedN)
	if pkt[0]&flagECN != 0 {
		// The receiver saw a congestion mark within the last RTT:
		// multiplicative decrease, once per congestion event.
		if ps.ccDecrease(false) {
			e.ccMDEvents.Inc()
		}
	}
	if ps.ackedTo != cumBefore {
		ps.dupAcks = 0
	} else if sackNew > 0 {
		// The cumulative floor is stuck but the receiver keeps
		// acknowledging new data above it — the classic duplicate-ACK
		// shape. (A byte-identical wire duplicate frees nothing and is
		// ignored, so dup counting survives faultnet's dup leg.)
		ps.dupAcks++
		high, haveHigh := sackHighest(cum, bitmap)
		if ps.dupAcks >= dupAckThresh && haveHigh && seqLE(ps.ccRecover, ps.ackedTo) {
			// Fast retransmit: everything still unacked below the
			// highest SACKed seq has had dupAckThresh chances to be
			// acknowledged and was not — infer loss and resend exactly
			// those holes, one RTT after the loss instead of one RTO.
			// The triggering ACK's own bitmap bounds the sweep: buildAck
			// scans the receiver's whole out-of-order map, so the bitmap
			// is cumulative and no cross-ACK maximum needs tracking.
			for seq := ps.ackedTo + 1; seqLE(seq+1, high); seq++ {
				pd := &ps.wnd[seq&(windowSize-1)]
				if !pd.inUse || pd.seq != seq {
					continue
				}
				pd.retries++ // Karn: its next ack is ambiguous
				pd.lastSent = now
				pd.refs.Add(1)
				rs[nrs] = resend{pd: pd, payload: pd.payload, seq: seq}
				nrs++
			}
			if ps.ccDecrease(false) {
				e.ccMDEvents.Inc()
			}
			ps.dupAcks = 0
		}
	}
	e.ccCwnd.Set(int64(ps.cwnd))
	if ps.unackedN == 0 && ps.wheelIdx >= 0 {
		e.wheel.Disarm(from, ps.wheelIdx)
		ps.wheelIdx = -1
	}
	wait := ps.sendWait
	ent.Touch(now.UnixNano())
	ent.Unlock()
	for _, r := range rs[:nrs] {
		e.retransmits.Inc()
		e.ccFastRexmit.Inc()
		telemetry.DefaultTrace.Record(telemetry.EvRetransmit, telemetry.PeerToken(from), len(r.payload), r.seq)
		if err := e.inner.SendTo(r.payload, from); err != nil {
			e.dataSendFail.Inc()
		}
		e.releaseRef(r.pd, r.payload)
	}
	if freedN > 0 {
		select {
		case wait <- struct{}{}:
		default:
		}
	}
}

// retransmitLoop drives the timer wheel: each tick pops only the peers
// whose RTO deadline arrived and processes each under its own entry lock —
// no global scan, no global mutex. A peer that stops acknowledging is
// declared dead after maxRetries; death is contained to the peer (its
// window is released, its wheel filing removed) and its state awaits
// eviction by the next SendTo/Flush that observes the error. The loop also
// owns the idle-eviction sweep when Config.IdleEvict is set.
func (e *Endpoint) retransmitLoop() {
	defer e.wg.Done()
	ticker := time.NewTicker(tickInterval)
	defer ticker.Stop()
	var fired []peertab.Fired[transport.Addr]
	ticks := 0
	for {
		select {
		case <-e.done:
			return
		case <-ticker.C:
		}
		now := time.Now()
		fired = e.wheel.Advance(now, fired[:0])
		for _, f := range fired {
			e.tickPeer(f, now)
		}
		if ticks++; e.cfg.IdleEvict > 0 && ticks%int(idleSweepEvery) == 0 {
			n := e.tab.EvictIdle(e.cfg.IdleEvict, func(ent *peerEntry) bool {
				if ent.V.unackedN > 0 {
					return false // still awaiting acks: not idle, just slow
				}
				// No window → no wheel filing to disarm beyond safety.
				if ent.V.wheelIdx >= 0 {
					e.wheel.Disarm(ent.Key, ent.V.wheelIdx)
					ent.V.wheelIdx = -1
				}
				return true
			})
			e.evictions.Add(int64(n))
		}
	}
}

// tickPeer handles one wheel firing: retransmit the peer's due packets,
// escalate retries, and re-file the earliest remaining deadline.
func (e *Endpoint) tickPeer(f peertab.Fired[transport.Addr], now time.Time) {
	ent := e.tab.Lookup(f.Key)
	if ent == nil {
		return // evicted between pop and lock; its filing died with it
	}
	ps := &ent.V
	if ps.wheelIdx != f.Slot {
		// The peer disarmed (all acked) or re-armed into another slot
		// between the pop and this lock; the firing is stale.
		ent.Unlock()
		return
	}
	ps.wheelIdx = -1
	if ps.dead != nil {
		ent.Unlock()
		return
	}
	rto := ps.curRTO()
	type resend struct {
		pd      *pending
		payload []byte
		seq     uint32
	}
	// Stack array, not append: retransmit bursts must not allocate.
	var rs [windowSize]resend
	nrs := 0
	bumped := false
	var minLastSent time.Time
	for seq := ps.ackedTo + 1; seqLE(seq, ps.nextSeq-1); seq++ {
		pd := &ps.wnd[seq&(windowSize-1)]
		if !pd.inUse || pd.seq != seq {
			continue
		}
		if now.Sub(pd.lastSent) < rto {
			if minLastSent.IsZero() || pd.lastSent.Before(minLastSent) {
				minLastSent = pd.lastSent
			}
			continue
		}
		pd.retries++
		e.rtoExpired.Inc()
		if pd.retries > maxRetries {
			ps.dead = fmt.Errorf("%w: %s", ErrPeerDead, ent.Key)
			break
		}
		pd.lastSent = now
		if !bumped && ps.backoff < maxBackoff {
			// One doubling per expiry event, not per packet: a whole
			// window expiring together is one timeout.
			ps.backoff++
			bumped = true
		}
		// Hold a transmission reference so a concurrent ack cannot recycle
		// (and another sender overwrite) the buffer while the
		// retransmission reads it.
		pd.refs.Add(1)
		rs[nrs] = resend{pd: pd, payload: pd.payload, seq: pd.seq}
		nrs++
		if minLastSent.IsZero() || now.Before(minLastSent) {
			minLastSent = now
		}
	}
	if nrs > 0 {
		// An RTO expiry means the congestion signal chain (SACKs, dup ACKs,
		// ECN echoes) went silent for a whole timeout — assume the flight is
		// gone and collapse to minCwnd rather than merely halving.
		if ps.ccDecrease(true) {
			e.ccMDEvents.Inc()
		}
		e.ccCwnd.Set(int64(ps.cwnd))
	}
	var wake chan struct{}
	switch {
	case ps.dead != nil:
		// Release the whole window now. Without this the buffers (and any
		// sender blocked on window space) would be wedged until eviction,
		// and Close could not drain the pool.
		e.releaseWindow(ent)
		wake = ps.sendWait
	case ps.unackedN > 0:
		// Re-file at the earliest remaining deadline (backoff may have
		// grown the RTO, so recompute).
		ps.wheelIdx = e.wheel.Arm(ent.Key, minLastSent.Add(ps.curRTO()))
	}
	ent.Unlock()
	if wake != nil {
		select {
		case wake <- struct{}{}:
		default:
		}
	}
	for _, r := range rs[:nrs] {
		// A failed retransmission behaves exactly like a lost one: the
		// next RTO tick retries it. Count it so a dead transport shows.
		e.retransmits.Inc()
		telemetry.DefaultTrace.Record(telemetry.EvRetransmit, telemetry.PeerToken(f.Key), len(r.payload), r.seq)
		if err := e.inner.SendTo(r.payload, f.Key); err != nil {
			e.dataSendFail.Inc()
		}
		e.releaseRef(r.pd, r.payload)
	}
}

// Flush blocks until every sent message has been acknowledged, or the
// timeout passes (returning transport.ErrTimeout), or a peer dies
// (returning its ErrPeerDead and evicting it), or the endpoint is closed
// (returning transport.ErrClosed — a Flush racing Close must resolve, not
// spin out its full timeout against loops that no longer run).
func (e *Endpoint) Flush(timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		if e.closed.Load() {
			return transport.ErrClosed
		}
		outstanding := 0
		var deadErr error
		var deadEnts []*peerEntry
		e.tab.Range(func(ent *peerEntry) bool {
			ent.Lock()
			if !ent.Gone() {
				if ent.V.dead != nil {
					if deadErr == nil {
						deadErr = ent.V.dead
					}
					deadEnts = append(deadEnts, ent)
				} else {
					outstanding += ent.V.unackedN
				}
			}
			ent.Unlock()
			return true
		})
		for _, ent := range deadEnts {
			e.evictEntry(ent)
		}
		if deadErr != nil {
			return deadErr
		}
		if outstanding == 0 {
			return nil
		}
		if time.Now().After(deadline) {
			return transport.ErrTimeout
		}
		select {
		case <-e.done:
			return transport.ErrClosed
		case <-time.After(tickInterval):
		}
	}
}

// Snapshot is a point-in-time view of the endpoint's reliability counters.
type Snapshot struct {
	// Retransmits counts DATA packets actually resent, whether by RTO
	// expiry or by dup-ACK fast retransmit.
	Retransmits int64
	// RTOExpirations counts RTO expiry events, including the final expiry
	// that declares a peer dead (so RTOExpirations + FastRetransmits can
	// exceed Retransmits by one per failed peer, and equals it otherwise).
	RTOExpirations int64
	// AckSendFailures counts ACK sends the inner transport rejected.
	AckSendFailures int64
	// RetransmitSendFailures counts retransmission sends the inner
	// transport rejected.
	RetransmitSendFailures int64
	// CRCFailures counts inbound packets dropped by the header CRC check.
	CRCFailures int64
	// WindowDrops counts DATA packets beyond the acceptance window.
	WindowDrops int64
	// PeerEvictions counts peers whose state was torn down (dead peers on
	// observation, and idle peers under Config.IdleEvict).
	PeerEvictions int64
	// EpochMismatches counts packets carrying a different conversation
	// incarnation than the one bound — restart detections and stragglers.
	EpochMismatches int64
	// FastRetransmits counts DATA packets resent by the dup-ACK fast
	// retransmit path (also included in Retransmits).
	FastRetransmits int64
	// SpuriousRexmits counts DATA arrivals this endpoint had already
	// delivered or buffered — each is a packet the peer resent for nothing
	// (or a wire duplicate). The counter that proves the SACK-width fix.
	SpuriousRexmits int64
	// ECNMarks counts inbound DATA carrying the congestion-experienced
	// mark (observed at the receiver; the sender sees them as MD events).
	ECNMarks int64
	// MDEvents counts multiplicative decreases of the congestion window —
	// one per congestion event (ECN echo, dup-ACK loss, or RTO collapse).
	MDEvents int64
	// Cwnd is the most recently recorded congestion window, in packets.
	Cwnd int64
}

// Snapshot reports this endpoint's reliability counters. The values are
// exact for this endpoint; the process-wide telemetry registry additionally
// aggregates them across endpoints under the diwarp_rudp_* metric names.
func (e *Endpoint) Snapshot() Snapshot {
	return Snapshot{
		Retransmits:            e.retransmits.Load(),
		RTOExpirations:         e.rtoExpired.Load(),
		AckSendFailures:        e.ackSendFail.Load(),
		RetransmitSendFailures: e.dataSendFail.Load(),
		CRCFailures:            e.crcFail.Load(),
		WindowDrops:            e.windowDrops.Load(),
		PeerEvictions:          e.evictions.Load(),
		EpochMismatches:        e.epochMismatch.Load(),
		FastRetransmits:        e.ccFastRexmit.Load(),
		SpuriousRexmits:        e.ccSpurious.Load(),
		ECNMarks:               e.ccEcnMarks.Load(),
		MDEvents:               e.ccMDEvents.Load(),
		Cwnd:                   e.ccCwnd.Load(),
	}
}

// SendErrors reports how many ACK or retransmission sends the inner
// transport has rejected. The protocol recovers from each individually; a
// growing count means the transport below is unhealthy.
func (e *Endpoint) SendErrors() uint64 {
	return uint64(e.ackSendFail.Load() + e.dataSendFail.Load())
}

// PoolOutstanding reports how many DATA wire buffers are currently checked
// out of the send pool — the chaos harness's leak invariant: at quiesce
// (everything flushed or every peer evicted, endpoint closed) it must be 0.
func (e *Endpoint) PoolOutstanding() int64 { return e.pool.Outstanding() }

// Peers reports the current peer-table occupancy.
func (e *Endpoint) Peers() int { return e.tab.Len() }

// PeerStats reports the peer table's shard-occupancy summary.
func (e *Endpoint) PeerStats() peertab.Stats { return e.tab.Stats() }

// ArmedTimers reports how many peers hold a live retransmit-wheel filing —
// the eviction-leak invariant: at quiesce it must equal the number of
// peers with unacked packets (0 after a clean Flush/Close).
func (e *Endpoint) ArmedTimers() int { return e.wheel.Armed() }

// LocalAddr implements transport.Datagram.
func (e *Endpoint) LocalAddr() transport.Addr { return e.inner.LocalAddr() }

// MaxDatagram implements transport.Datagram, reserving header and CRC
// trailer space.
func (e *Endpoint) MaxDatagram() int { return e.inner.MaxDatagram() - headerLen - crcx.Size }

// PathMTU implements transport.Datagram.
func (e *Endpoint) PathMTU() int { return e.inner.PathMTU() }

// Close implements transport.Datagram, closing the underlying endpoint and
// recycling every wire buffer still sitting in a send window, so a closed
// endpoint leaves its pool balanced even when peers never acked.
func (e *Endpoint) Close() error {
	if !e.closed.CompareAndSwap(false, true) {
		return nil
	}
	close(e.done)
	err := e.inner.Close()
	e.wg.Wait()
	// Loops are stopped: nothing takes new transmission references.
	// Buffers still referenced by a SendTo mid-inner-send are recycled by
	// its releaseRef once the window reference is dropped here.
	e.tab.Clear(func(ent *peerEntry) {
		e.releaseWindow(ent)
	})
	return err
}
