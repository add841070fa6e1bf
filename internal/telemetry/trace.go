package telemetry

import (
	"sync"
	"sync/atomic"
	"time"
)

// EventType identifies one kind of datapath trace event.
type EventType uint8

// Datapath event types. Arg is event-specific: the DDP/RUDP sequence
// number for sends, receives and retransmits, a drop-cause code for drops
// (see simnet's DropCause values), and the STag for Write-Record
// placements. The three success-path types are recorded only for Sampled
// messages.
const (
	EvNone        EventType = iota
	EvSend                  // message handed to the LLP (sampled)
	EvRecv                  // message completed to the application (sampled)
	EvRetransmit            // rudp DATA packet resent after RTO expiry
	EvDrop                  // datagram dropped (wire loss, no posted receive, ...)
	EvWriteRecord           // tagged segment placed into a registered region (sampled)
	EvCRCFail               // DDP segment or MPA FPDU failed its CRC32C
	EvFault                 // faultnet injected a fault (Arg = faultnet op code)
)

// Drop causes carried in an EvDrop event's Arg, shared by every layer that
// records drops so post-hoc analysis can attribute loss without guessing.
const (
	DropLoss       uint32 = iota + 1 // Bernoulli wire loss (simnet)
	DropLatency                      // latency-stranded: destination closed before delivery
	DropMcast                        // multicast leg lost or stranded
	DropNoRecv                       // completed message found no posted receive
	DropQueue                        // destination queue gone at send time
	DropIncomplete                   // Write-Record message discarded with holes (socket layer)
	DropMalformed                    // runt rudp frame or DDP segment, or an unknown DDP version
	DropTxRefused                    // kernel refused a datagram the UDP send engine had queued
)

func (t EventType) String() string {
	switch t {
	case EvSend:
		return "SEND"
	case EvRecv:
		return "RECV"
	case EvRetransmit:
		return "RETRANSMIT"
	case EvDrop:
		return "DROP"
	case EvWriteRecord:
		return "WRITE_RECORD"
	case EvCRCFail:
		return "CRC_FAIL"
	case EvFault:
		return "FAULT"
	default:
		return "NONE"
	}
}

// SampleEvery is the success-path trace sampling period: EvSend, EvRecv
// and EvWriteRecord are recorded for one message in SampleEvery, chosen by
// its MSN. Every other event type — drops, CRC failures, retransmits,
// faults — is recorded for every occurrence.
const SampleEvery = 64

// Sampled reports whether the message numbered msn is traced on the success
// path. The rule is a pure function of the MSN, which both ends of a
// message see, so a sampled message keeps its send, every placed segment
// and its completion, and an unsampled one costs one AND and one branch
// before any peer interning.
//
//diwarp:hotpath
func Sampled(msn uint32) bool { return msn&(SampleEvery-1) == 0 }

// Event is one decoded trace-ring entry. Seq is the ring's global sequence
// number (1-based, gapless across the process lifetime of the ring), which
// lets post-hoc analysis order events and detect overwritten spans.
type Event struct {
	Seq   uint64    `json:"seq"`
	Time  time.Time `json:"time"`
	Type  EventType `json:"-"`
	Peer  string    `json:"-"` // the interned peer rendered; "" for token 0
	Bytes int       `json:"bytes"`
	Arg   uint32    `json:"arg"`
}

// Peer interning: trace slots must be written with plain atomic stores (the
// record path takes no locks and the race detector must stay clean), so an
// event cannot carry an address's string directly. Peers are interned once
// into 24-bit tokens — peers are long-lived relative to packets — and events
// carry the token. The key is whatever address type the recording layer
// holds (transport.Addr throughout the stack): this package sits below
// transport in the import graph and needs only equality and a rendering.
var (
	peerTokens sync.Map // PeerKey -> uint32
	peersMu    sync.Mutex
	peerList   []string // index = token-1; rendered at first sighting
)

// PeerKey is what a peer is interned by: comparable, so it can key the
// token map, and self-rendering, for the drained event.
type PeerKey interface {
	comparable
	String() string
}

// peerTokenBits bounds the token space to what an event slot encodes.
const peerTokenBits = 24

// PeerToken interns peer and returns its stable token. The fast path is
// one lock-free map load; the first sighting of a peer takes a short lock.
// Token 0 is "no/unknown peer" (also returned in the pathological case of
// more than 2^24 distinct peers).
func PeerToken[K PeerKey](peer K) uint32 {
	if v, ok := peerTokens.Load(peer); ok {
		return v.(uint32)
	}
	peersMu.Lock()
	defer peersMu.Unlock()
	if v, ok := peerTokens.Load(peer); ok {
		return v.(uint32)
	}
	if len(peerList) >= 1<<peerTokenBits-1 {
		return 0
	}
	peerList = append(peerList, peer.String())
	tok := uint32(len(peerList))
	peerTokens.Store(peer, tok)
	return tok
}

// PeerOf resolves a token back to its peer's rendering; "" for token 0 or
// an unknown token.
func PeerOf(tok uint32) string {
	peersMu.Lock()
	defer peersMu.Unlock()
	if tok == 0 || int(tok) > len(peerList) {
		return ""
	}
	return peerList[tok-1]
}

// slot is one ring entry, stored as four atomic words so concurrent
// recorders and the drainer never race in the -race sense. seq doubles as
// the validity stamp: it is zeroed before the payload words are rewritten
// and set to the entry's sequence number after, so a reader that sees a
// stable matching seq around its payload loads has a consistent entry.
type slot struct {
	seq  atomic.Uint64
	ts   atomic.Uint64 // UnixNano
	meta atomic.Uint64 // type(8) | peer token(24) | bytes(32)
	arg  atomic.Uint64
}

// Ring is a fixed-size lock-free trace ring. Writers claim a slot with one
// atomic increment and stamp it; when the ring wraps, the oldest entries
// are overwritten (and accounted). Recording never blocks and never
// allocates, so it is safe on //diwarp:hotpath functions; draining is a
// cold operation for tests, the /trace.json endpoint, and diwarp-top.
//
// Consistency under wrap is best-effort by design: an entry being
// overwritten while a drain reads it is detected via its stamp and
// skipped, exactly like a hardware trace buffer's lost records.
type Ring struct {
	mask   uint64
	slots  []slot
	cursor atomic.Uint64 // last claimed sequence number

	drainMu     sync.Mutex
	drained     uint64 // last sequence returned by Drain
	overwritten atomic.Uint64
	torn        atomic.Uint64
}

// DefaultTraceSize is the capacity of the package-default ring.
const DefaultTraceSize = 8192

// DefaultTrace is the ring the stack's components record into.
var DefaultTrace = NewRing(DefaultTraceSize)

// NewRing creates a ring holding size events (rounded up to a power of
// two, minimum 64).
func NewRing(size int) *Ring {
	n := 64
	for n < size {
		n <<= 1
	}
	return &Ring{mask: uint64(n - 1), slots: make([]slot, n)}
}

// Cap returns the ring's capacity in events.
func (r *Ring) Cap() int { return len(r.slots) }

// Cursor returns the total number of events ever recorded.
func (r *Ring) Cursor() uint64 { return r.cursor.Load() }

// Overwritten returns how many undrained events have been lost to wrap.
func (r *Ring) Overwritten() uint64 { return r.overwritten.Load() }

// Record appends one event: one atomic claim plus four atomic stores —
// no locks, no allocation, no boxing. A nil ring is a disabled ring.
//
//diwarp:hotpath
func (r *Ring) Record(t EventType, peer uint32, size int, arg uint32) {
	if r == nil {
		return
	}
	seq := r.cursor.Add(1)
	s := &r.slots[(seq-1)&r.mask]
	s.seq.Store(0) // invalidate while the payload words are in flux
	s.ts.Store(uint64(time.Now().UnixNano()))
	s.meta.Store(uint64(t)<<56 | uint64(peer&(1<<peerTokenBits-1))<<32 | uint64(uint32(size)))
	s.arg.Store(uint64(arg))
	s.seq.Store(seq)
}

// Drain returns every event recorded since the previous Drain, oldest
// first. Events lost to ring wrap are counted in Overwritten; entries
// caught mid-rewrite are skipped and counted as torn. Drain consumes:
// a second call returns only newer events.
func (r *Ring) Drain() []Event {
	r.drainMu.Lock()
	defer r.drainMu.Unlock()
	cur := r.cursor.Load()
	lo := r.drained + 1
	if cur < lo {
		return nil
	}
	if span := cur - lo + 1; span > uint64(len(r.slots)) {
		r.overwritten.Add(span - uint64(len(r.slots)))
		lo = cur - uint64(len(r.slots)) + 1
	}
	out := make([]Event, 0, cur-lo+1)
	for seq := lo; seq <= cur; seq++ {
		s := &r.slots[(seq-1)&r.mask]
		if s.seq.Load() != seq {
			r.torn.Add(1)
			continue
		}
		ts, meta, arg := s.ts.Load(), s.meta.Load(), s.arg.Load()
		if s.seq.Load() != seq { // rewritten underneath the payload loads
			r.torn.Add(1)
			continue
		}
		out = append(out, Event{
			Seq:   seq,
			Time:  time.Unix(0, int64(ts)),
			Type:  EventType(meta >> 56),
			Peer:  PeerOf(uint32(meta >> 32 & (1<<peerTokenBits - 1))),
			Bytes: int(uint32(meta)),
			Arg:   uint32(arg),
		})
	}
	r.drained = cur
	return out
}
