// Package transport defines the Lower Layer Protocol (LLP) abstraction the
// iWARP stack runs over, mirroring the paper's Figure 4: the same DDP/RDMAP
// code binds to a reliable byte stream (TCP — the standard's RC mode) or to
// an unreliable datagram service (UDP — the paper's datagram-iWARP mode).
//
// The datagram seam is one interface, [Datagram], and it is batch-first:
// bursts in (SendBatch), bursts out (RecvBatch), buffers handed back
// (Recycle), pool health readable (RecvPoolStats). Every LLP and every
// decorator carries the whole of it, so the layers above have one send path
// and one receive path and never ask what the layer below can do — the
// compiler checks it. SendTo and Recv are the burst-of-one forms of the
// same per-datagram step.
//
// A send returns once the LLP has taken the datagrams, which need not be
// once they are on the wire: the kernel UDP endpoint queues them for its
// send engine, one goroutine per socket that drains everything queued into
// one GSO or sendmmsg call per destination run. A datagram the kernel
// refuses after that is a counted drop (diwarp_transport_tx_dropped_total),
// like any loss below the LLP.
//
// Three interchangeable LLP families implement it, and two decorators
// (faultnet's fault injector — reordering, duplication, corruption and the
// rest — and pcap's wire tap) wrap any of them:
//
//   - package simnet: an in-process simulated network with configurable MTU,
//     per-fragment loss and latency (stands in for the testbed + tc/netem
//     loss injection used in the paper's evaluation);
//   - this package's udp.go / tcp.go: real kernel sockets, used by the
//     cmd/iwarpd demo daemon and available to all benchmarks;
//   - package rudp: a reliable-datagram layer (the paper's "reliable UDP"
//     supplement) stacked on any Datagram.
//
// An address is a value: [Addr] is the socket address the kernel already
// speaks, so no layer parses, renders or caches a peer on the datapath, and
// the transport keeps no per-address state at all. Every edge that takes an
// address from the kernel unmaps a 4-in-6 form, so one peer is one Addr.
//
// Import direction: transport sits above telemetry (its batch instruments
// are ordinary registry handles), which may not import it back.
package transport

import (
	"errors"
	"net"
	"net/netip"
	"time"
)

// Errors shared by every LLP implementation.
var (
	// ErrTimeout reports that a receive deadline elapsed with no data. The
	// paper makes timeout-based polling mandatory for datagram-iWARP: "it is
	// essential that the completion queue be polled with a defined timeout
	// period" because a lost datagram means the matching completion never
	// arrives.
	ErrTimeout = errors.New("transport: receive timed out")
	// ErrClosed reports use of a closed endpoint.
	ErrClosed = errors.New("transport: endpoint closed")
	// ErrTooLarge reports a datagram exceeding MaxDatagram.
	ErrTooLarge = errors.New("transport: datagram exceeds maximum size")
	// ErrNoRoute reports an unknown destination address.
	ErrNoRoute = errors.New("transport: no route to destination")
)

// Wire sizes assumed throughout the evaluation.
const (
	// MaxDatagramSize is the largest payload a single datagram may carry,
	// matching the UDP limit the paper cites ("datagrams are technically
	// defined up to a maximum size of 64 KB", minus headers).
	MaxDatagramSize = 65507
	// DefaultMTU is the wire MTU (standard Ethernet, "WANs normally run
	// using a 1500 byte MTU").
	DefaultMTU = 1500
)

// Addr identifies an LLP endpoint: an IP address and a port, the UDP
// socket address a datagram-iWARP QP names its peer by. It is a comparable
// value — a map key, hashed as words by peertab.HashAddr — which the UD
// completion path relies on to report datagram sources back to
// applications. The zero Addr is invalid (!IsValid()): "no peer".
type Addr = netip.AddrPort

// ResolveAddr turns "host:port" into an Addr, looking the host up once. It
// is the edge where names become addresses; nothing below it resolves.
func ResolveAddr(hostport string) (Addr, error) {
	ua, err := net.ResolveUDPAddr("udp", hostport)
	if err != nil {
		return Addr{}, err
	}
	return unmap(ua.AddrPort()), nil
}

// unmap folds an IPv4-mapped IPv6 address (::ffff:a.b.c.d, how a
// dual-stack socket reports IPv4 peers) to plain IPv4, so the same peer
// compares equal whichever socket family saw it.
func unmap(ap netip.AddrPort) Addr {
	return netip.AddrPortFrom(ap.Addr().Unmap(), ap.Port())
}

// Datagram is a connectionless, message-boundary-preserving LLP endpoint —
// the service UDP provides. Implementations may silently drop, reorder, or
// duplicate messages; the iWARP layers above are designed for exactly that.
// The four embedded interfaces are the burst datapath and are as mandatory
// as the rest: a decorator forwards them, a per-datagram LLP loops.
type Datagram interface {
	BatchSender
	BatchRecver
	Recycler
	RecvPoolStats
	// SendTo transmits one datagram to the destination: SendBatch of one.
	// It may block for flow control but never blocks awaiting the
	// receiver's application.
	SendTo(p []byte, to Addr) error
	// Recv returns the next datagram and its source: RecvBatch of one.
	Recv(timeout time.Duration) ([]byte, Addr, error)
	// LocalAddr returns the bound address.
	LocalAddr() Addr
	// MaxDatagram returns the largest sendable payload in bytes.
	MaxDatagram() int
	// PathMTU returns the wire MTU below which a datagram avoids
	// fragmentation — the efficiency knee in Figures 7 and 8.
	PathMTU() int
	// Close releases the endpoint; concurrent receives return ErrClosed.
	Close() error
}

// BatchSender is the send half of Datagram: SendBatch transmits a burst of
// datagrams to one destination, amortizing per-send costs (sockaddr
// encoding, queue locking, sendmmsg) across the batch. It returns the
// number of datagrams handed to the network before any error; an LLP may
// return as soon as they are queued for sending (the kernel UDP endpoint
// does), and errors are then only what is known at the call — size,
// address family, a closed endpoint. Loss models and kernel drops do NOT
// count as errors — handing a datagram to a lossy network succeeds, and a
// datagram the kernel refuses after it was queued is a counted drop.
// Implementations must not retain any packet buffer after returning, so
// callers can recycle the whole batch immediately.
type BatchSender interface {
	SendBatch(pkts [][]byte, to Addr) (int, error)
}

// BatchRecver is the receive half of Datagram: RecvBatch fills pkts and
// froms with up to min(len(pkts), len(froms)) datagrams, amortizing
// per-receive costs (queue locking, deadline arming, recvmmsg) across the
// burst. It blocks up to timeout for the FIRST datagram (zero blocks until
// data or close; otherwise ErrTimeout when the deadline passes with nothing
// queued) and then drains whatever else is immediately available without
// waiting. It returns the number of datagrams received; n ≥ 1 on nil error.
// Each pkts[i] is owned by the caller, which hands it back through Recycle
// once consumed.
type BatchRecver interface {
	RecvBatch(pkts [][]byte, froms []Addr, timeout time.Duration) (int, error)
}

// RecvPoolStats is the part of Datagram reporting the receive-buffer pool's
// cumulative hit/miss counters (zeroes from an LLP with no pool). The DDP
// channel re-exports them as telemetry per receive burst.
type RecvPoolStats interface {
	RecvPoolStats() (hits, misses int64)
}

// Recycler is the part of Datagram that closes the receive-buffer loop: a
// receiver that has fully consumed a buffer returned by Recv or RecvBatch
// hands it back for reuse, bounding the datapath's allocation rate the way
// a real stack recycles its receive-ring buffers. Buffers from foreign
// sources must be tolerated (and dropped).
type Recycler interface {
	Recycle(p []byte)
}

// Stream is a connected, reliable, ordered byte stream — the service TCP
// provides to standard iWARP. Message boundaries are NOT preserved, which is
// why the MPA layer exists in RC mode.
type Stream interface {
	Read(p []byte) (int, error)
	Write(p []byte) (int, error)
	Close() error
	LocalAddr() Addr
	RemoteAddr() Addr
}

// Listener accepts incoming stream connections for RC mode.
type Listener interface {
	Accept() (Stream, error)
	Addr() Addr
	Close() error
}
