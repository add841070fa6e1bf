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
// Wire format (big-endian). Both frames end in the same six bytes — epoch,
// then a byte carrying the frame type in its low nibble and flag bits in
// its high nibble, then the CRC — so the type byte is p[len(p)-5] in either:
//
//	DATA: | payload ... | seq (4) | epoch (1) | type=1|flags (1) | crc32c (4) |
//	ACK:  | cumAck (4) | sack bitmap (8) | epoch (1) | type=2|flags (1) | crc32c (4) |
//
// The DATA fields trail the payload so that the payload is a prefix of the
// datagram: the receiver hands the inner endpoint's pooled buffer upward cut
// back to that prefix, and the slice's capacity — which is what the inner
// pools key on — still identifies the buffer when Recycle brings it back.
// No copy, no lookup table (DESIGN.md §4.14).
//
// cumAck acknowledges every DATA with seq ≤ cumAck; sack bit i acknowledges
// seq cumAck+1+i. The bitmap is 64 bits wide — exactly windowSize — so
// every packet the sender can have in flight is selectively acknowledgeable.
// One ACK answers a whole receive burst, not one DATA, so the sender infers
// loss from what an ACK says, not from how many arrive: a hole is lost once
// dupAckThresh sequence numbers above it are SACKed (RFC 6675's IsLost,
// IRN's SACK-driven recovery). The flagECN bit is the congestion-signal
// plane: a simulated switch (simnet/faultnet) sets it on a DATA frame via
// MarkCongestion, the receiver echoes it on its next ACK, and the sender
// answers the echo with a multiplicative cwnd decrease.
//
// The CRC32C trailer covers everything before it, payload included. The
// header fields need it because they are control plane: a bit flipped in
// cumAck would make the sender drop packets the receiver never got (silent
// loss), and a flipped seq would poison the receiver's reassembly state.
// The payload needs it because this CRC *is* the reliable-datagram
// service's integrity check: DDP carries no CRC of its own over rudp
// (iWARP's rule for an LLP that verifies the frame — over MPA, MPA owns the
// CRC), and a check anywhere above would come too late anyway, since this
// layer acknowledges a frame — the sender frees it — before handing it up,
// so a damaged payload dropped one layer up would be silent loss. Corrupt
// frames are discarded here, before they are ACKed or delivered, and
// recovered exactly like losses.
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
// # Datapath (DESIGN.md §4.14)
//
// The receive loop pulls bursts from the inner endpoint, processes each run
// of same-source packets under one peer lock, sends one ACK per peer the
// burst touched, and only then publishes the burst's in-order yield to the
// delivery queue Recv and RecvBatch pop from. An in-order DATA never
// touches reassembly state; arrivals past a gap wait in a per-peer ring of
// the inner endpoint's buffers beside a SACK word the ACK copies out. What
// Recv returns is owned by the caller until Recycle, which hands it back to
// the inner pool. SendBatch frames a burst under one lock and forwards it
// as one inner SendBatch; SendTo is its burst of one.
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
	// it would wedge reassembly. It is also the reassembly ring's size.
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
	// ceiling). A hole with dupAckThresh SACKed sequence numbers above it is
	// fast-retransmitted — loss recovery one RTT after the loss instead of
	// one RTO.
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
	// data parked behind a loss gap is dropped with the state (its buffers
	// go back to the inner pool), exactly as if the packets had been lost
	// on the wire.
	IdleEvict time.Duration
}

// Endpoint is a reliable datagram endpoint. It implements
// transport.Datagram, delivering every message exactly once and in per-peer
// order, so it can be slotted under the iWARP stack wherever a raw UDP
// endpoint can.
type Endpoint struct {
	inner transport.Datagram
	cfg   Config

	// pool recycles DATA frame buffers (payload + trailer). A buffer lives
	// from FramePool().Get or SendBatch's copy until its reference count
	// drains: one reference for window residency, one per transmission
	// handed to the inner transport (see pending.refs).
	pool *nio.Pool
	// classes are the copy-break's size-classed pools: a payload too small
	// for the inner buffer it arrived in is handed up in one of these
	// (handUp, DESIGN.md §4.14 "The quarter rule").
	classes [numClasses]*nio.Pool
	// scratch recycles the per-call staging a send burst is framed into
	// (*sendScratch): the inner SendBatch is an interface call, so a stack
	// array handed to it would escape and allocate on every send.
	scratch sync.Pool

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
	crcFail       *telemetry.Counter   // inbound packets dropped by the frame CRC
	runts         *telemetry.Counter   // inbound packets too short to be a frame
	windowDrops   *telemetry.Counter   // DATA beyond the acceptance window, not buffered
	evictions     *telemetry.Counter   // peers evicted (dead on observation, or idle)
	epochMismatch *telemetry.Counter   // packets from a different conversation incarnation
	rtt           *telemetry.Histogram // ack round-trip, µs (Karn: first transmissions only; one sample per ACK)
	acksSent      *telemetry.Counter   // ACK frames handed to the inner transport
	recvBurstHist *telemetry.Histogram // datagrams per inner receive burst (each burst is answered by ≤ 1 ACK per peer)

	// Congestion-control observability (DESIGN.md §4.13). ccCwnd is a gauge
	// tracking the most recently adjusted peer's cwnd — with one busy peer
	// (the benchmark and chaos shapes) it IS the cwnd trajectory; the
	// registry sums handles across endpoints, so a scrape of a multi-
	// endpoint process reads the sum of each endpoint's latest value.
	// ccSpurious counts DATA arrivals the receiver had already delivered or
	// parked — every one is a packet the sender resent for nothing (or a
	// wire duplicate), the counter that proves the SACK-width fix.
	ccCwnd       *telemetry.Gauge
	ccFastRexmit *telemetry.Counter // DATA packets resent by SACK-driven fast retransmit
	ccSpurious   *telemetry.Counter // duplicate DATA arrivals (already delivered/parked)
	ccEcnMarks   *telemetry.Counter // DATA arrivals carrying the congestion mark
	ccMDEvents   *telemetry.Counter // multiplicative decreases (ECN echo, SACK-inferred loss, RTO)

	dq   delivery // in-order messages awaiting Recv/RecvBatch
	done chan struct{}
	wg   sync.WaitGroup
}

// sendScratch stages a send burst: the frames SendBatch copies a chunk of
// the caller's datagrams into, with their CRCs, and the window slots whose
// transmission references one stretch of frames holds between framing
// (under the peer lock) and the inner SendBatch (after it). It also carries
// the timer a blocked sender parks on, so that blocking on a full window
// allocates one only the first time a scratch is used for it.
type sendScratch struct {
	frames [windowSize][]byte
	crcs   [windowSize]uint32
	pds    [windowSize]*pending
	tm     *time.Timer // stopped and drained whenever the scratch is idle
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
	// again. ecnEcho, on the receive side, latches an observed congestion
	// mark until the next ACK carries the echo out.
	cwnd      float64
	ssthresh  float64
	ccRecover uint32
	ecnEcho   bool

	// Receive side. An in-order arrival only advances expected. Arrivals
	// past a gap park in ring, indexed seq mod windowSize (the acceptance
	// window is exactly the ring, so a slot is never claimed twice), and set
	// their bit in sack: bit i stands for seq expected+i, which makes the
	// word — shifted as expected advances — the ACK's SACK bitmap as it
	// stands. The ring is allocated at the peer's first gap: a peer that
	// never sees loss or reordering never pays for it.
	expected uint32
	sack     uint64
	ring     *[windowSize][]byte
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
// minCwnd) from an ECN echo or SACK-inferred loss (the network is still
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

// New wraps inner with reliability using default Config. The Endpoint owns
// inner and closes it.
func New(inner transport.Datagram) *Endpoint { return NewConfig(inner, Config{}) }

// NewConfig wraps inner with reliability under an explicit peer-table
// policy.
func NewConfig(inner transport.Datagram, cfg Config) *Endpoint {
	e := newEndpoint(inner, cfg)
	e.wg.Add(2)
	go e.recvLoop()
	go e.retransmitLoop()
	return e
}

// newEndpoint builds an endpoint with its loops not yet running (the frame
// fuzzer drives the receive path by hand on one of these).
func newEndpoint(inner transport.Datagram, cfg Config) *Endpoint {
	e := &Endpoint{
		inner:   inner,
		cfg:     cfg,
		pool:    nio.NewPool(inner.MaxDatagram()),
		scratch: sync.Pool{New: func() any { return new(sendScratch) }},
		tab: peertab.New[transport.Addr, peerState](peertab.HashAddr, peertab.Options{
			Shards:   cfg.Shards,
			Capacity: cfg.MaxPeers,
		}),
		wheel:         peertab.NewWheel[transport.Addr](wheelSlots, tickInterval),
		done:          make(chan struct{}),
		retransmits:   telemetry.Default.Counter("diwarp_rudp_retransmits_total"),
		rtoExpired:    telemetry.Default.Counter("diwarp_rudp_rto_expired_total"),
		ackSendFail:   telemetry.Default.Counter("diwarp_rudp_ack_send_fail_total"),
		dataSendFail:  telemetry.Default.Counter("diwarp_rudp_retransmit_send_fail_total"),
		crcFail:       telemetry.Default.Counter("diwarp_rudp_crc_fail_total"),
		runts:         telemetry.Default.Counter("diwarp_rudp_runt_total"),
		windowDrops:   telemetry.Default.Counter("diwarp_rudp_window_drops_total"),
		evictions:     telemetry.Default.Counter("diwarp_rudp_peer_evictions_total"),
		epochMismatch: telemetry.Default.Counter("diwarp_rudp_epoch_mismatch_total"),
		rtt:           telemetry.Default.Histogram("diwarp_rudp_rtt_microseconds"),
		acksSent:      telemetry.Default.Counter("diwarp_rudp_acks_sent_total"),
		recvBurstHist: telemetry.Default.Histogram("diwarp_rudp_recv_burst_datagrams"),
		ccCwnd:        telemetry.Default.Gauge("diwarp_rudp_cc_cwnd"),
		ccFastRexmit:  telemetry.Default.Counter("diwarp_rudp_cc_fast_retransmits_total"),
		ccSpurious:    telemetry.Default.Counter("diwarp_rudp_cc_spurious_rexmits_total"),
		ccEcnMarks:    telemetry.Default.Counter("diwarp_rudp_cc_ecn_marks_total"),
		ccMDEvents:    telemetry.Default.Counter("diwarp_rudp_cc_md_events_total"),
	}
	for c := range e.classes {
		e.classes[c] = nio.NewPool(classCap(c))
	}
	e.ccCwnd.Set(initialCwnd)
	e.dq.ring = make([]message, deliveryDepth)
	e.dq.avail = make(chan struct{}, 1)
	e.dq.space = make(chan struct{}, 1)
	e.dq.done = e.done
	return e
}

// initPeer initializes a freshly admitted peer's state; peertab runs it
// before the entry is visible to anyone else.
func initPeer(ent *peerEntry) {
	ent.V = peerState{
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
// the peer's window and wheel state; what the peer still had parked out of
// order goes back to the inner pool here.
func (e *Endpoint) evictEntry(ent *peerEntry) {
	if e.tab.EvictEntry(ent) {
		e.evictions.Inc()
		ent.Lock()
		e.releaseRing(&ent.V)
		ent.Unlock()
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
	pulse(ps.sendWait)
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
// incarnation in place, releasing the reassembly ring so stale out-of-order
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
		e.releaseRing(ps)
		ps.expected = 1
		ps.nextSeq, ps.ackedTo = 1, 0
		ps.srtt, ps.rttvar, ps.backoff = 0, 0, 0
		ps.cwnd, ps.ssthresh = initialCwnd, windowSize
		ps.ccRecover, ps.ecnEcho = 0, false
		return true
	}
	return false
}

// SendBatch implements transport.Datagram. The caller keeps its buffers,
// so each datagram is first copied into a frame buffer from the frame pool
// and checksummed in the same pass (crcx.CopyUpdate), outside any lock;
// the frames then take SendFrames' path. It returns transport.ErrTooLarge,
// having sent nothing, if any datagram exceeds MaxDatagram.
func (e *Endpoint) SendBatch(pkts [][]byte, to transport.Addr) (int, error) {
	for max, i := e.MaxDatagram(), 0; i < len(pkts); i++ {
		if len(pkts[i]) > max {
			return 0, transport.ErrTooLarge
		}
	}
	sc := e.scratch.Get().(*sendScratch)
	defer e.scratch.Put(sc)
	sent := 0
	for sent < len(pkts) {
		k := min(len(pkts)-sent, windowSize)
		for i, p := range pkts[sent : sent+k] {
			frame := e.pool.Get()[:len(p)]
			sc.crcs[i] = crcx.CopyUpdate(frame, p, 0)
			sc.frames[i] = frame
		}
		n, err := e.sendFrames(sc.frames[:k], sc.crcs[:k], to, sc)
		clear(sc.frames[:k])
		sent += n
		if err != nil {
			return sent, err
		}
	}
	return sent, nil
}

// FramePool is the pool DATA frames are built in: a layer above that lays
// its datagram out itself — ddp gathering a segment — draws the buffer
// here, writes at most MaxDatagram bytes into it, and hands it to
// SendFrames. The buffer has room for the DATA trailer behind them.
func (e *Endpoint) FramePool() *nio.Pool { return e.pool }

// SendFrames sends datagrams already laid out in buffers drawn from
// FramePool, crcs[i] being the CRC32C of frames[i]: each is framed in place
// — the trailer appended and the CRC finished over it — so no payload byte
// is copied or read again here. The endpoint takes every frame, whatever
// SendFrames returns: a sent one lives in the send window until its ACK, an
// unsent one goes back to the pool. frames' elements are overwritten with
// the framed buffers, which the caller must not touch.
//
// Under one acquisition of the peer lock it frames as many of the burst's
// datagrams as the ring and the congestion window admit — one clock
// reading, one wheel arm — and hands that stretch to the inner endpoint in
// one SendBatch call, so a burst from the layer above reaches
// sendmmsg/GSO as a burst. It blocks for window space only between such
// stretches. It returns ErrPeerDead if the peer stopped acknowledging — in
// which case the peer's state is evicted, so the next send to the same
// address starts a fresh conversation — and, with Config.MaxPeers set,
// peertab.ErrCapacity for a new peer that does not fit. A datagram counted
// as sent is in the window and will be delivered or surface as
// ErrPeerDead, whatever the inner send reported.
func (e *Endpoint) SendFrames(frames [][]byte, crcs []uint32, to transport.Addr) (int, error) {
	for max, i := e.MaxDatagram(), 0; i < len(frames); i++ {
		if len(frames[i]) > max {
			return e.dropFrames(frames, 0, transport.ErrTooLarge)
		}
	}
	sc := e.scratch.Get().(*sendScratch)
	defer e.scratch.Put(sc)
	return e.sendFrames(frames, crcs, to, sc)
}

// sendFrames is SendFrames after the size check, staging through sc.
func (e *Endpoint) sendFrames(frames [][]byte, crcs []uint32, to transport.Addr, sc *sendScratch) (int, error) {
	sent := 0
	for sent < len(frames) {
		if e.closed.Load() {
			return e.dropFrames(frames, sent, transport.ErrClosed)
		}
		ent, err := e.lockPeer(to)
		if err != nil {
			return e.dropFrames(frames, sent, err)
		}
		ps := &ent.V
		if ps.dead != nil {
			err := ps.dead
			ent.Unlock()
			e.evictEntry(ent)
			return e.dropFrames(frames, sent, err)
		}
		var now time.Time
		k := 0
		for ; sent+k < len(frames); k++ {
			// The next seq's ring slot is free exactly when seq-windowSize
			// has been acked (seqs are consecutive), so slot occupancy is the
			// window check. refs must also have drained: a retransmission of
			// the old occupant may still be in flight holding the slot's
			// counter. On top of the ring bound, unackedN must fit the
			// congestion window — the BDP-scaled dynamic cap.
			pd := &ps.wnd[ps.nextSeq&(windowSize-1)]
			if pd.inUse || pd.refs.Load() != 0 || ps.unackedN >= ps.cwndCap() {
				break
			}
			if k == 0 {
				now = time.Now()
			}
			buf := appendTrailer(frames[sent+k], crcs[sent+k], ps.txEpoch, ps.nextSeq)
			frames[sent+k] = buf
			pd.payload, pd.lastSent, pd.seq, pd.retries, pd.inUse = buf, now, ps.nextSeq, 0, true
			pd.refs.Store(2) // window residency + the transmission below
			ps.nextSeq++
			ps.unackedN++
			sc.pds[k] = pd
		}
		if k == 0 {
			wait := ps.sendWait
			ent.Unlock()
			if !e.waitSendSlot(wait, sc) {
				return e.dropFrames(frames, sent, transport.ErrClosed)
			}
			continue
		}
		if ps.wheelIdx < 0 {
			ps.wheelIdx = e.wheel.Arm(to, now.Add(ps.curRTO()))
		}
		ent.Touch(now.UnixNano())
		ent.Unlock()
		stretch := frames[sent : sent+k]
		n, err := e.inner.SendBatch(stretch, to)
		for i, buf := range stretch {
			e.releaseRef(sc.pds[i], buf)
			sc.pds[i] = nil
		}
		if err != nil {
			e.putFrames(frames[sent+k:])
			return sent + n, err
		}
		sent += k
	}
	return sent, nil
}

// dropFrames returns frames[from:] — frames that never entered the send
// window — to the frame pool, and reports from and err as the send's
// result.
func (e *Endpoint) dropFrames(frames [][]byte, from int, err error) (int, error) {
	e.putFrames(frames[from:])
	return from, err
}

// putFrames returns frames that never entered the send window to the frame
// pool.
func (e *Endpoint) putFrames(frames [][]byte) {
	for _, f := range frames {
		e.pool.Put(f)
	}
}

// SendTo implements transport.Datagram: SendBatch of one.
func (e *Endpoint) SendTo(p []byte, to transport.Addr) error {
	one := [1][]byte{p}
	_, err := e.SendBatch(one[:], to)
	return err
}

// waitSendSlot parks a blocked sender until window space is pulsed, the
// endpoint closes (false), or a re-check interval passes (space may have
// been freed without a pulse). The timer lives in the pooled scratch and is
// reused wait after wait, call after call — a time.After here would allocate
// a fresh runtime timer every iteration, garbage proportional to time spent
// blocked. It is left stopped and drained on every way out, which is what
// makes the next Reset safe under the pre-1.23 timer discipline.
func (e *Endpoint) waitSendSlot(wait chan struct{}, sc *sendScratch) bool {
	if sc.tm == nil {
		sc.tm = time.NewTimer(tickInterval * 4)
	} else {
		sc.tm.Reset(tickInterval * 4)
	}
	open := true
	select {
	case <-sc.tm.C:
		return true
	case <-wait:
	case <-e.done:
		open = false
	}
	if !sc.tm.Stop() {
		select {
		case <-sc.tm.C:
		default:
		}
	}
	return open
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
				e.releaseRing(&ent.V)
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
		// An RTO expiry means the congestion signal chain (SACKs, ECN
		// echoes) went silent for a whole timeout — assume the flight is
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
		pulse(wake)
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
	// expiry or by SACK-driven fast retransmit.
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
	// CRCFailures counts inbound packets dropped by the frame CRC check.
	CRCFailures int64
	// Runts counts inbound packets dropped as too short to hold a frame
	// trailer, before any CRC could be checked.
	Runts int64
	// WindowDrops counts DATA packets beyond the acceptance window.
	WindowDrops int64
	// PeerEvictions counts peers whose state was torn down (dead peers on
	// observation, and idle peers under Config.IdleEvict).
	PeerEvictions int64
	// EpochMismatches counts packets carrying a different conversation
	// incarnation than the one bound — restart detections and stragglers.
	EpochMismatches int64
	// FastRetransmits counts DATA packets resent by the fast retransmit
	// path (also included in Retransmits).
	FastRetransmits int64
	// SpuriousRexmits counts DATA arrivals this endpoint had already
	// delivered or parked — each is a packet the peer resent for nothing
	// (or a wire duplicate). The counter that proves the SACK-width fix.
	SpuriousRexmits int64
	// ECNMarks counts inbound DATA carrying the congestion-experienced
	// mark (observed at the receiver; the sender sees them as MD events).
	ECNMarks int64
	// MDEvents counts multiplicative decreases of the congestion window —
	// one per congestion event (ECN echo, SACK-inferred loss, or RTO
	// collapse).
	MDEvents int64
	// Cwnd is the most recently recorded congestion window, in packets.
	Cwnd int64
	// AcksSent counts ACK frames handed to the inner transport. One ACK
	// answers a whole receive burst per peer, so AcksSent over the DATA
	// received is the coalescing ratio.
	AcksSent int64
	// RecvBursts and RecvDatagrams count the inner endpoint's receive
	// bursts and the datagrams (DATA and ACK) they carried; their ratio is
	// the mean burst width.
	RecvBursts    int64
	RecvDatagrams int64
}

// Snapshot reports this endpoint's reliability counters. The values are
// exact for this endpoint; the process-wide telemetry registry additionally
// aggregates them across endpoints under the diwarp_rudp_* metric names.
func (e *Endpoint) Snapshot() Snapshot {
	bursts := e.recvBurstHist.Snapshot()
	return Snapshot{
		Retransmits:            e.retransmits.Load(),
		RTOExpirations:         e.rtoExpired.Load(),
		AckSendFailures:        e.ackSendFail.Load(),
		RetransmitSendFailures: e.dataSendFail.Load(),
		CRCFailures:            e.crcFail.Load(),
		Runts:                  e.runts.Load(),
		WindowDrops:            e.windowDrops.Load(),
		PeerEvictions:          e.evictions.Load(),
		EpochMismatches:        e.epochMismatch.Load(),
		FastRetransmits:        e.ccFastRexmit.Load(),
		SpuriousRexmits:        e.ccSpurious.Load(),
		ECNMarks:               e.ccEcnMarks.Load(),
		MDEvents:               e.ccMDEvents.Load(),
		Cwnd:                   e.ccCwnd.Load(),
		AcksSent:               e.acksSent.Load(),
		RecvBursts:             bursts.Count,
		RecvDatagrams:          bursts.Sum,
	}
}

// SendErrors reports how many ACK or retransmission sends the inner
// transport has rejected. The protocol recovers from each individually; a
// growing count means the transport below is unhealthy.
func (e *Endpoint) SendErrors() uint64 {
	return uint64(e.ackSendFail.Load() + e.dataSendFail.Load())
}

// PoolOutstanding reports how many of the endpoint's own buffers are
// checked out: DATA frames out of the frame pool (in a send window, or
// drawn by a layer above and not yet handed to SendFrames) and copy-break
// payloads out of the class pools (in a ring, the delivery queue, or with
// the consumer until Recycle) — the chaos harness's leak invariant: at
// quiesce (everything flushed and consumed, or every peer evicted, endpoint
// closed) it must be 0.
func (e *Endpoint) PoolOutstanding() int64 {
	n := e.pool.Outstanding()
	for _, c := range e.classes {
		n += c.Outstanding()
	}
	return n
}

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

// MaxDatagram implements transport.Datagram, reserving the DATA trailer.
func (e *Endpoint) MaxDatagram() int { return e.inner.MaxDatagram() - dataTrailerLen }

// PathMTU implements transport.Datagram.
func (e *Endpoint) PathMTU() int { return e.inner.PathMTU() }

// Close implements transport.Datagram, closing the underlying endpoint and
// recycling every buffer this layer still holds — frames sitting in a send
// window, inner receive buffers and copy-break payloads parked in a
// reassembly ring or waiting undelivered in the delivery queue — so a
// closed endpoint leaves its own pools and the inner one balanced even when
// peers never acked and the application never received.
func (e *Endpoint) Close() error {
	if !e.closed.CompareAndSwap(false, true) {
		return nil
	}
	close(e.done)
	err := e.inner.Close()
	e.wg.Wait()
	// Loops are stopped: nothing takes new transmission references, parks or
	// queues. Buffers still referenced by a SendBatch mid-inner-send are
	// recycled by its releaseRef once the window reference is dropped here.
	e.tab.Clear(func(ent *peerEntry) {
		e.releaseWindow(ent)
		e.releaseRing(&ent.V)
	})
	var p [1][]byte
	var from [1]transport.Addr
	for {
		if _, empty := e.dq.pop(p[:], from[:]); empty != nil {
			return err
		}
		e.Recycle(p[0])
	}
}
