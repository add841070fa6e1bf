package faultnet

import (
	"fmt"
	"sync"

	"repro/internal/transport"
)

// Op identifies one fault decision recorded in the event log. Values are
// stable: they are hashed into the log fingerprint and carried as the Arg of
// telemetry EvFault trace events, so reordering them would silently change
// recorded fingerprints.
type Op uint8

const (
	OpDeliver       Op = iota + 1 // packet passed through unharmed
	OpDropGE                      // Gilbert–Elliott wire loss
	OpDropPartition               // one-way partition swallowed an outgoing packet
	OpDropAckHole                 // ACK blackhole swallowed an ACK-class packet
	OpDropMTU                     // packet exceeded the shrunken path MTU
	OpCorrupt                     // a copy was delivered with one byte flipped
	OpHold                        // packet held back for reordering
	OpRelease                     // a held packet was released (out of order)
	OpDup                         // packet delivered a second time
	OpRecvDrop                    // one-way partition swallowed an incoming packet
	OpCtl                         // control-plane change (partition/heal/MTU/blackhole)
	OpMark                        // a copy was delivered carrying a congestion mark
)

func (o Op) String() string {
	switch o {
	case OpDeliver:
		return "DELIVER"
	case OpDropGE:
		return "DROP_GE"
	case OpDropPartition:
		return "DROP_PARTITION"
	case OpDropAckHole:
		return "DROP_ACKHOLE"
	case OpDropMTU:
		return "DROP_MTU"
	case OpCorrupt:
		return "CORRUPT"
	case OpHold:
		return "HOLD"
	case OpRelease:
		return "RELEASE"
	case OpDup:
		return "DUP"
	case OpRecvDrop:
		return "RECV_DROP"
	case OpCtl:
		return "CTL"
	case OpMark:
		return "MARK"
	default:
		return "NONE"
	}
}

// Control-plane codes carried in an OpCtl event's Arg.
const (
	CtlPartitionTo uint32 = iota + 1
	CtlPartitionFrom
	CtlHeal
	CtlHealAll
	CtlAckHoleOn
	CtlAckHoleOff
	CtlMTU // Arg is shifted: CtlMTU<<16 | mtu value is too wide; MTU goes in Len
	CtlMarkRate
)

// Event is one logged fault decision.
type Event struct {
	Seq  uint64         // 1-based position in the log's full history
	Op   Op             // what the fault layer decided
	Peer transport.Addr // destination (sends) or source (receives)
	Len  int            // packet length in bytes; control value for OpCtl/MTU
	Arg  uint32         // op-specific: corrupt offset, hold delay, GE state, ctl code
}

func (ev Event) String() string {
	return fmt.Sprintf("#%d %s %s len=%d arg=%d", ev.Seq, ev.Op, ev.Peer, ev.Len, ev.Arg)
}

// DefaultLogCap bounds how many events a log retains; the running
// fingerprint still covers the full history.
const DefaultLogCap = 4096

// Log is a bounded, mutex-guarded record of every fault decision an
// Endpoint makes, in decision order. Its purpose is seed replay: two runs
// with the same seed and the same single-driver schedule produce
// bit-for-bit identical logs (compare Fingerprint), and a failing chaos run
// prints Tail so the seed can be rerun under a debugger. One Log may be
// shared by several Endpoints to interleave their decisions into one
// timeline.
type Log struct {
	mu     sync.Mutex
	cap    int
	total  uint64
	fp     uint64 // running FNV-1a over every event ever appended
	events []Event
}

// NewLog creates a log retaining up to capacity events (DefaultLogCap if
// capacity <= 0).
func NewLog(capacity int) *Log {
	if capacity <= 0 {
		capacity = DefaultLogCap
	}
	return &Log{cap: capacity, fp: fnvOffset}
}

const (
	fnvOffset uint64 = 14695981039346656037
	fnvPrime  uint64 = 1099511628211
)

func fnvByte(h uint64, b byte) uint64 { return (h ^ uint64(b)) * fnvPrime }

func fnvU64(h uint64, v uint64) uint64 {
	for i := 0; i < 8; i++ {
		h = fnvByte(h, byte(v>>(8*i)))
	}
	return h
}

func (l *Log) append(op Op, peer transport.Addr, n int, arg uint32) {
	l.mu.Lock()
	l.total++
	ev := Event{Seq: l.total, Op: op, Peer: peer, Len: n, Arg: arg}
	h := fnvByte(l.fp, byte(op))
	for _, b := range peer.Addr().As16() {
		h = fnvByte(h, b)
	}
	h = fnvU64(h, uint64(peer.Port()))
	h = fnvU64(h, uint64(int64(n)))
	l.fp = fnvU64(h, uint64(arg))
	if len(l.events) == l.cap {
		copy(l.events, l.events[1:])
		l.events[len(l.events)-1] = ev
	} else {
		l.events = append(l.events, ev)
	}
	l.mu.Unlock()
}

// Total returns how many events have ever been appended.
func (l *Log) Total() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.total
}

// Fingerprint returns the running FNV-1a hash over the log's full history.
// Equal fingerprints mean bit-for-bit identical decision sequences.
func (l *Log) Fingerprint() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.fp
}

// Events returns a copy of the retained events, oldest first.
func (l *Log) Events() []Event {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]Event, len(l.events))
	copy(out, l.events)
	return out
}

// Tail returns the last n retained events formatted one per line, for
// failure reports.
func (l *Log) Tail(n int) []string {
	l.mu.Lock()
	defer l.mu.Unlock()
	if n > len(l.events) {
		n = len(l.events)
	}
	out := make([]string, 0, n)
	for _, ev := range l.events[len(l.events)-n:] {
		out = append(out, ev.String())
	}
	return out
}
