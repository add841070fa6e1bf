// Package faultnet is a deterministic fault-injecting wrapper at the
// transport.Datagram seam. It composes under rudp and ddp.DatagramChannel
// exactly like a real lossy path would — the layers above cannot tell the
// difference — and injects the failure modes the paper's datagram-iWARP
// design must absorb: bursty (Gilbert–Elliott) wire loss, reordering,
// duplication, single-byte corruption (which the DDP/RUDP CRC32C trailers
// must catch), one-way partitions with heal, mid-flow path-MTU shrink, and
// ACK-only blackholes.
//
// Every decision is drawn from one seeded PRNG under one mutex and appended
// to an event Log, so a failing chaos schedule is reproducible from its
// seed alone: same seed, same single-driver schedule → bit-for-bit the same
// decision log (compare Log.Fingerprint). Full-stack runs with free-running
// goroutines interleave decisions nondeterministically between peers, so
// there only per-seed invariant verdicts are comparable — the chaos harness
// (faultnet/chaos) relies on exactly that split.
package faultnet

import (
	"math/rand"
	"sync"
	"time"

	"repro/internal/telemetry"
	"repro/internal/transport"
)

// Class tags a packet for class-targeted faults (the ACK blackhole).
type Class uint8

const (
	ClassData Class = iota // anything that is not an ACK
	ClassAck               // reverse-path acknowledgement (rudp ACK)
)

// GEParams parameterizes the Gilbert–Elliott two-state burst-loss model:
// the chain sits in a good or bad state, transitions with the given
// per-packet probabilities, and drops each packet with the state's loss
// probability. PGoodToBad ≪ PBadToGood with LossBad ≫ LossGood yields the
// short, dense loss bursts that distinguish real congested paths from the
// uniform Bernoulli loss simnet provides.
type GEParams struct {
	PGoodToBad float64 // per-packet probability of entering the bad state
	PBadToGood float64 // per-packet probability of recovering
	LossGood   float64 // drop probability while good (residual loss)
	LossBad    float64 // drop probability while bad (burst loss)
}

// Config selects which faults an Endpoint injects. The zero value injects
// nothing (a transparent wrapper); Seed 0 is a valid seed.
type Config struct {
	Seed        int64
	GE          *GEParams // nil disables the loss model
	ReorderRate float64   // probability a packet is held back
	ReorderSpan int       // max later sends a held packet waits behind (default 4)
	DupRate     float64   // probability a delivered packet is sent twice
	CorruptRate float64   // probability a packet is delivered with one byte flipped
	// MarkRate is the probability a packet is stamped with a congestion
	// mark — the ECN-capable switch marking instead of dropping. No-op
	// unless Marker is also set; adjustable at runtime via SetMarkRate.
	MarkRate float64
	// Marker rewrites a packet copy in place to carry the congestion signal
	// and reports whether it applied (rudp.MarkCongestion: DATA frames
	// only, CRC re-stamped). It always runs on faultnet's own copy — the
	// caller's buffer is never retained or modified.
	Marker func(p []byte) bool
	// Classify tags packets so class-targeted faults (SetAckBlackhole) know
	// what they are looking at. nil classifies everything as ClassData.
	Classify func(p []byte) Class
	// Log receives every decision; nil allocates a fresh NewLog(0). Share
	// one Log across both directions of a link to get one merged timeline.
	Log *Log
}

// Telemetry: injected faults are counted in the default registry and traced
// as EvFault events (Arg = Op) so soak runs can watch injection rates on the
// /metrics endpoint alongside the stack's own drop counters.
var (
	mDrops     = telemetry.Default.Counter("faultnet_drops_total")
	mCorrupts  = telemetry.Default.Counter("faultnet_corruptions_total")
	mDups      = telemetry.Default.Counter("faultnet_duplicates_total")
	mReorders  = telemetry.Default.Counter("faultnet_reorders_total")
	mRecvDrops = telemetry.Default.Counter("faultnet_recv_drops_total")
	mMarks     = telemetry.Default.Counter("faultnet_marks_total")
)

// held is a packet copy waiting out its reorder delay.
type held struct {
	pkt   []byte
	to    transport.Addr
	after int // remaining SendTo calls before release
}

// Endpoint wraps an inner Datagram with fault injection: sends run the
// fault pipeline one packet at a time, receives filter the inner endpoint's
// bursts, and the buffer loop (Recycle, RecvPoolStats) passes straight
// through.
//
// All send-side decisions happen under one mutex, which also covers the
// inner SendTo call: concurrent senders are serialized, which is exactly
// what makes a single-driver schedule bit-for-bit reproducible.
type Endpoint struct {
	inner    transport.Datagram
	cfg      Config
	log      *Log
	classify func(p []byte) Class

	mu       sync.Mutex
	rng      *rand.Rand
	geBad    bool
	heldPkts []held
	partTo   map[transport.Addr]bool
	partFrom map[transport.Addr]bool
	ackHole  bool
	mtu      int // 0 = inherit inner PathMTU; else shrunken path MTU
	closed   bool
}

// Wrap layers fault injection over inner.
func Wrap(inner transport.Datagram, cfg Config) *Endpoint {
	if cfg.ReorderSpan <= 0 {
		cfg.ReorderSpan = 4
	}
	lg := cfg.Log
	if lg == nil {
		lg = NewLog(0)
	}
	cl := cfg.Classify
	if cl == nil {
		cl = func([]byte) Class { return ClassData }
	}
	return &Endpoint{
		inner:    inner,
		cfg:      cfg,
		log:      lg,
		classify: cl,
		rng:      rand.New(rand.NewSource(cfg.Seed)),
		partTo:   make(map[transport.Addr]bool),
		partFrom: make(map[transport.Addr]bool),
	}
}

// Log returns the endpoint's decision log.
func (e *Endpoint) Log() *Log { return e.log }

// PartitionTo starts swallowing packets sent to peer (one-way outbound).
func (e *Endpoint) PartitionTo(peer transport.Addr) {
	e.mu.Lock()
	e.partTo[peer] = true
	e.mu.Unlock()
	e.log.append(OpCtl, peer, 0, CtlPartitionTo)
}

// PartitionFrom starts swallowing packets received from peer (one-way
// inbound).
func (e *Endpoint) PartitionFrom(peer transport.Addr) {
	e.mu.Lock()
	e.partFrom[peer] = true
	e.mu.Unlock()
	e.log.append(OpCtl, peer, 0, CtlPartitionFrom)
}

// Heal removes both partition directions for peer.
func (e *Endpoint) Heal(peer transport.Addr) {
	e.mu.Lock()
	delete(e.partTo, peer)
	delete(e.partFrom, peer)
	e.mu.Unlock()
	e.log.append(OpCtl, peer, 0, CtlHeal)
}

// HealAll removes every partition.
func (e *Endpoint) HealAll() {
	e.mu.Lock()
	clear(e.partTo)
	clear(e.partFrom)
	e.mu.Unlock()
	e.log.append(OpCtl, transport.Addr{}, 0, CtlHealAll)
}

// SetAckBlackhole toggles swallowing of ACK-class packets (per Classify):
// data flows, acknowledgements vanish — the asymmetric-path failure that
// provokes spurious retransmission and tests Karn-correct RTO behavior.
func (e *Endpoint) SetAckBlackhole(on bool) {
	e.mu.Lock()
	e.ackHole = on
	e.mu.Unlock()
	code := CtlAckHoleOff
	if on {
		code = CtlAckHoleOn
	}
	e.log.append(OpCtl, transport.Addr{}, 0, code)
}

// SetMTU shrinks the path MTU mid-flow: PathMTU starts reporting n and any
// packet larger than n is silently blackholed, the classic un-renegotiated
// PMTU failure. n <= 0 restores the inner MTU.
func (e *Endpoint) SetMTU(n int) {
	e.mu.Lock()
	if n <= 0 {
		n = 0
	}
	e.mtu = n
	e.mu.Unlock()
	e.log.append(OpCtl, transport.Addr{}, n, CtlMTU)
}

// SetMarkRate changes the congestion-mark probability mid-run — a chaos
// schedule's switch queue filling (rate up) and draining (rate back down).
// Takes effect only when Config.Marker was set at Wrap time.
func (e *Endpoint) SetMarkRate(p float64) {
	e.mu.Lock()
	e.cfg.MarkRate = p
	e.mu.Unlock()
	e.log.append(OpCtl, transport.Addr{}, int(p*1e6), CtlMarkRate)
}

// HeldCount reports how many reorder-held packets are pending release.
func (e *Endpoint) HeldCount() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return len(e.heldPkts)
}

// ReleaseHeld flushes every reorder-held packet to the wire immediately.
// The chaos harness calls it at quiesce so held copies cannot masquerade as
// leaks or lost messages.
func (e *Endpoint) ReleaseHeld() {
	e.mu.Lock()
	defer e.mu.Unlock()
	for i := range e.heldPkts {
		e.heldPkts[i].after = 0
	}
	e.releaseDueLocked()
}

// releaseDueLocked sends every held packet whose delay has elapsed.
func (e *Endpoint) releaseDueLocked() {
	kept := e.heldPkts[:0]
	for _, h := range e.heldPkts {
		if h.after > 0 {
			kept = append(kept, h)
			continue
		}
		e.log.append(OpRelease, h.to, len(h.pkt), 0)
		telemetry.DefaultTrace.Record(telemetry.EvFault, telemetry.PeerToken(h.to), len(h.pkt), uint32(OpRelease))
		e.inner.SendTo(h.pkt, h.to) //nolint:errcheck // released copy: the wire may be gone, like any late packet
	}
	e.heldPkts = kept
}

// geLossLocked advances the Gilbert–Elliott chain one packet and reports
// whether the packet is lost. Arg-visible state: 0 good, 1 bad.
func (e *Endpoint) geLossLocked() (lost bool, state uint32) {
	g := e.cfg.GE
	if g == nil {
		return false, 0
	}
	if e.geBad {
		if e.rng.Float64() < g.PBadToGood {
			e.geBad = false
		}
	} else {
		if e.rng.Float64() < g.PGoodToBad {
			e.geBad = true
		}
	}
	p, st := g.LossGood, uint32(0)
	if e.geBad {
		p, st = g.LossBad, 1
	}
	return p > 0 && e.rng.Float64() < p, st
}

// SendTo runs the fault pipeline on one packet. Decision order is fixed —
// release due held packets, partition, ACK blackhole, MTU, GE loss,
// congestion mark, corruption, reorder hold, deliver, duplicate — so a seed
// fully determines the decision sequence for a serialized driver. The
// caller's buffer is never retained: mark, corrupt and reorder legs copy.
// Unlike the terminal legs, a mark swaps the marked copy into the rest of
// the pipeline, so marked packets can still be corrupted, held, or
// duplicated downstream.
func (e *Endpoint) SendTo(p []byte, to transport.Addr) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		return transport.ErrClosed
	}
	for i := range e.heldPkts {
		e.heldPkts[i].after--
	}
	e.releaseDueLocked()

	drop := func(op Op, arg uint32) error {
		e.log.append(op, to, len(p), arg)
		telemetry.DefaultTrace.Record(telemetry.EvFault, telemetry.PeerToken(to), len(p), uint32(op))
		mDrops.Inc()
		return nil // swallowed: to the caller a drop looks like success, as on a real wire
	}

	if e.partTo[to] {
		return drop(OpDropPartition, 0)
	}
	if e.ackHole && e.classify(p) == ClassAck {
		return drop(OpDropAckHole, 0)
	}
	if e.mtu > 0 && len(p) > e.mtu {
		return drop(OpDropMTU, uint32(e.mtu))
	}
	if lost, st := e.geLossLocked(); lost {
		return drop(OpDropGE, st)
	}
	if e.cfg.MarkRate > 0 && e.cfg.Marker != nil && e.rng.Float64() < e.cfg.MarkRate {
		cp := make([]byte, len(p))
		copy(cp, p)
		if e.cfg.Marker(cp) {
			p = cp
			e.log.append(OpMark, to, len(p), 0)
			telemetry.DefaultTrace.Record(telemetry.EvFault, telemetry.PeerToken(to), len(p), uint32(OpMark))
			mMarks.Inc()
		}
	}
	if e.cfg.CorruptRate > 0 && e.rng.Float64() < e.cfg.CorruptRate {
		bad := make([]byte, len(p))
		copy(bad, p)
		off := 0
		if len(bad) > 0 {
			off = e.rng.Intn(len(bad))
			bad[off] ^= 1 << uint(e.rng.Intn(8))
		}
		e.log.append(OpCorrupt, to, len(p), uint32(off))
		telemetry.DefaultTrace.Record(telemetry.EvFault, telemetry.PeerToken(to), len(p), uint32(OpCorrupt))
		mCorrupts.Inc()
		return e.inner.SendTo(bad, to)
	}
	if e.cfg.ReorderRate > 0 && e.rng.Float64() < e.cfg.ReorderRate {
		cp := make([]byte, len(p))
		copy(cp, p)
		delay := 1 + e.rng.Intn(e.cfg.ReorderSpan)
		e.heldPkts = append(e.heldPkts, held{pkt: cp, to: to, after: delay})
		e.log.append(OpHold, to, len(p), uint32(delay))
		telemetry.DefaultTrace.Record(telemetry.EvFault, telemetry.PeerToken(to), len(p), uint32(OpHold))
		mReorders.Inc()
		return nil
	}
	e.log.append(OpDeliver, to, len(p), 0)
	if err := e.inner.SendTo(p, to); err != nil {
		return err
	}
	if e.cfg.DupRate > 0 && e.rng.Float64() < e.cfg.DupRate {
		e.log.append(OpDup, to, len(p), 0)
		telemetry.DefaultTrace.Record(telemetry.EvFault, telemetry.PeerToken(to), len(p), uint32(OpDup))
		mDups.Inc()
		return e.inner.SendTo(p, to)
	}
	return nil
}

// SendBatch runs each packet of the burst through the same per-packet
// pipeline, preserving the batch API for the layers above without letting a
// whole burst share one fault verdict.
func (e *Endpoint) SendBatch(pkts [][]byte, to transport.Addr) (int, error) {
	for i, p := range pkts {
		if err := e.SendTo(p, to); err != nil {
			return i, err
		}
	}
	return len(pkts), nil
}

// Recv is RecvBatch of one.
func (e *Endpoint) Recv(timeout time.Duration) ([]byte, transport.Addr, error) {
	var p [1][]byte
	var from [1]transport.Addr
	_, err := e.RecvBatch(p[:], from[:], timeout)
	return p[0], from[0], err
}

// RecvBatch returns the inner endpoint's next burst with inbound-partitioned
// packets compacted out. Filtered packets are recycled to the inner pool;
// when the filter empties a burst the wait restarts with the full timeout
// (chaos schedules tolerate the slack).
func (e *Endpoint) RecvBatch(pkts [][]byte, froms []transport.Addr, timeout time.Duration) (int, error) {
	for {
		n, err := e.inner.RecvBatch(pkts, froms, timeout)
		if err != nil || n == 0 {
			return n, err
		}
		kept := 0
		for i := 0; i < n; i++ {
			if e.recvBlocked(froms[i], len(pkts[i])) {
				e.inner.Recycle(pkts[i])
				continue
			}
			pkts[kept], froms[kept] = pkts[i], froms[i]
			kept++
		}
		if kept > 0 {
			return kept, nil
		}
	}
}

func (e *Endpoint) recvBlocked(from transport.Addr, n int) bool {
	e.mu.Lock()
	blocked := e.partFrom[from]
	e.mu.Unlock()
	if blocked {
		e.log.append(OpRecvDrop, from, n, 0)
		telemetry.DefaultTrace.Record(telemetry.EvFault, telemetry.PeerToken(from), n, uint32(OpRecvDrop))
		mRecvDrops.Inc()
	}
	return blocked
}

// Recycle hands the buffer back to the inner endpoint's pool.
func (e *Endpoint) Recycle(p []byte) { e.inner.Recycle(p) }

// RecvPoolStats reports the inner endpoint's pool counters.
func (e *Endpoint) RecvPoolStats() (hits, misses int64) { return e.inner.RecvPoolStats() }

// LocalAddr returns the inner endpoint's address.
func (e *Endpoint) LocalAddr() transport.Addr { return e.inner.LocalAddr() }

// MaxDatagram returns the inner limit: the transport's maximum is a host
// property, not a path property, so the MTU shrink does not move it.
func (e *Endpoint) MaxDatagram() int { return e.inner.MaxDatagram() }

// PathMTU reports the shrunken MTU once SetMTU has taken effect.
func (e *Endpoint) PathMTU() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.mtu > 0 && e.mtu < e.inner.PathMTU() {
		return e.mtu
	}
	return e.inner.PathMTU()
}

// Close discards held packets and closes the inner endpoint.
func (e *Endpoint) Close() error {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return nil
	}
	e.closed = true
	e.heldPkts = nil
	e.mu.Unlock()
	return e.inner.Close()
}
