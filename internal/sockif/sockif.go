// Package sockif is the iWARP socket interface of the paper's §V.A: a
// translation layer that gives socket-style applications (the SIP server
// and media streamer of the evaluation) access to datagram-iWARP verbs
// without rewriting them against queue pairs.
//
// The original is an LD_PRELOAD shim overriding libc socket calls; Go
// cannot intercept symbols, so the same boundary is expressed as an
// explicit API with the shim's architecture preserved:
//
//   - each socket is backed by exactly one queue pair ("each socket is only
//     associated with a single QP"), UD or RC by socket type;
//   - receive is buffered-copy: the stack owns a slab of pre-posted receive
//     buffers and copies each message into the caller's buffer, which is
//     why the paper measures send/recv and Write-Record as nearly identical
//     through sockets ("to copy the data over to the supplied buffer
//     location instead");
//   - datagram sockets can optionally run their data path over RDMA
//     Write-Record into a ring region advertised once at connect time (the
//     paper's decision "not to re-exchange remote buffer locations for
//     every new buffer");
//   - stream (RC) sockets speak byte-stream semantics over message-based
//     verbs, buffering partial messages like SDP's buffered-copy mode.
package sockif

import (
	"errors"
	"fmt"
	"sync"

	"repro/internal/memreg"
	"repro/internal/rudp"
	"repro/internal/transport"
)

// Type selects the socket semantics, mirroring SOCK_DGRAM / SOCK_STREAM.
type Type int

// Socket types.
const (
	// DatagramSocket maps to a UD queue pair over an unreliable datagram
	// LLP (or a reliable one when Config.Reliable is set).
	DatagramSocket Type = iota
	// StreamSocket maps to an RC queue pair over an MPA-framed stream.
	StreamSocket
)

// Socket-interface errors.
var (
	ErrNotConnected = errors.New("sockif: socket not connected")
	ErrBadSocket    = errors.New("sockif: operation invalid for socket type/state")
)

// Config parameterises one process's socket interface instance.
type Config struct {
	// OpenDatagram binds a datagram endpoint on the given port (0 = any).
	OpenDatagram func(port uint16) (transport.Datagram, error)
	// Listen binds a stream listener for StreamSocket servers.
	Listen func(port uint16) (transport.Listener, error)
	// Dial connects a stream for StreamSocket clients.
	Dial func(to transport.Addr) (transport.Stream, error)

	// RecvBufCount and RecvBufSize shape the pre-posted receive slab
	// (defaults 16 × 8 KiB). A message larger than RecvBufSize is dropped,
	// like a datagram overflowing SO_RCVBUF: the receiver sees nothing,
	// the drop is counted in Stats().Truncated, and the slab buffer is
	// reposted.
	RecvBufCount int
	RecvBufSize  int
	// RingSize is the Write-Record ring region size advertised by datagram
	// sockets (default 1 MiB). Zero keeps the feature available with the
	// default; the ring is only registered when the peer requests it.
	RingSize int
	// Reliable wraps datagram endpoints in the reliable-datagram LLP,
	// giving TCP-like guarantees with datagram scalability (RD service).
	Reliable bool
	// StreamWriteRecord switches stream (RC) sockets to the RDMA Write
	// data path: rings are advertised in the MPA private data at connect
	// time, large sends become RDMA Write + notify (the paper's Figure 3
	// upper half), and sends of ≤256 bytes stay buffered-copy. Both ends
	// of a connection must enable it.
	StreamWriteRecord bool
}

func (c Config) withDefaults() Config {
	if c.RecvBufCount == 0 {
		c.RecvBufCount = 16
	}
	if c.RecvBufSize == 0 {
		c.RecvBufSize = 8 << 10
	}
	if c.RingSize == 0 {
		c.RingSize = 1 << 20
	}
	return c
}

// Interface is one process's socket layer: the loaded shim. It owns the
// verbs resources every socket shares (protection domain and STag table)
// and the socket table ("the QP to file descriptor mapping").
type Interface struct {
	cfg Config
	pd  *memreg.PD
	tbl *memreg.Table

	mu      sync.Mutex
	sockets map[int]*Socket
	nextFD  int
}

// New creates a socket interface instance.
func New(cfg Config) *Interface {
	return &Interface{
		cfg:     cfg.withDefaults(),
		pd:      memreg.NewPD(),
		tbl:     memreg.NewTable(),
		sockets: make(map[int]*Socket),
		nextFD:  3, // historical fd convention: 0-2 are stdio
	}
}

// Socket creates a socket of the given type, returning it with its file
// descriptor number. A datagram socket is immediately bound to an
// ephemeral port (bind explicitly with BindDatagram for a fixed port).
func (ifc *Interface) Socket(t Type) (*Socket, error) {
	return ifc.socket(t, 0)
}

// BindDatagram creates a datagram socket bound to a specific port.
func (ifc *Interface) BindDatagram(port uint16) (*Socket, error) {
	return ifc.socket(DatagramSocket, port)
}

func (ifc *Interface) socket(t Type, port uint16) (*Socket, error) {
	s := newSocket(ifc, t)
	switch t {
	case DatagramSocket:
		if ifc.cfg.OpenDatagram == nil {
			return nil, fmt.Errorf("%w: no datagram opener configured", ErrBadSocket)
		}
		ep, err := ifc.cfg.OpenDatagram(port)
		if err != nil {
			return nil, err
		}
		if ifc.cfg.Reliable {
			ep = rudp.New(ep)
		}
		if err := s.initUD(ep); err != nil {
			ep.Close() //diwarp:ignore errflow: error-path cleanup of an endpoint never exposed; initUD's error is the one to report
			return nil, err
		}
	case StreamSocket:
		// Stream sockets acquire their QP at Connect/Accept time, like TCP.
	default:
		return nil, fmt.Errorf("%w: unknown type %d", ErrBadSocket, t)
	}
	ifc.mu.Lock()
	ifc.nextFD++
	s.fd = ifc.nextFD
	ifc.sockets[s.fd] = s
	ifc.mu.Unlock()
	return s, nil
}

// Listen opens a stream listener for Accept.
func (ifc *Interface) Listen(port uint16) (*StreamListener, error) {
	if ifc.cfg.Listen == nil {
		return nil, fmt.Errorf("%w: no stream listener configured", ErrBadSocket)
	}
	l, err := ifc.cfg.Listen(port)
	if err != nil {
		return nil, err
	}
	return &StreamListener{ifc: ifc, l: l}, nil
}

// Lookup resolves a file descriptor to its socket, mirroring the shim's
// fd→socket table probe on every intercepted call.
func (ifc *Interface) Lookup(fd int) (*Socket, bool) {
	ifc.mu.Lock()
	defer ifc.mu.Unlock()
	s, ok := ifc.sockets[fd]
	return s, ok
}

// SocketCount reports how many sockets are open.
func (ifc *Interface) SocketCount() int {
	ifc.mu.Lock()
	defer ifc.mu.Unlock()
	return len(ifc.sockets)
}

func (ifc *Interface) forget(fd int) {
	ifc.mu.Lock()
	delete(ifc.sockets, fd)
	ifc.mu.Unlock()
}

// Footprint sums the accounted memory of every open socket: the quantity
// behind the paper's Figure 11 memory-scalability comparison.
func (ifc *Interface) Footprint() int64 {
	ifc.mu.Lock()
	socks := make([]*Socket, 0, len(ifc.sockets))
	for _, s := range ifc.sockets {
		socks = append(socks, s)
	}
	ifc.mu.Unlock()
	var total int64
	for _, s := range socks {
		total += s.Footprint()
	}
	return total
}

// StreamListener accepts RC stream sockets.
type StreamListener struct {
	ifc *Interface
	l   transport.Listener
}

// Addr returns the listening address.
func (sl *StreamListener) Addr() transport.Addr { return sl.l.Addr() }

// Accept waits for a connection and returns the accepted stream socket.
func (sl *StreamListener) Accept() (*Socket, error) {
	stream, err := sl.l.Accept()
	if err != nil {
		return nil, err
	}
	s := newSocket(sl.ifc, StreamSocket)
	if err := s.initRC(stream, false); err != nil {
		stream.Close() //diwarp:ignore errflow: error-path cleanup of a stream never exposed; initRC's error is the one to report
		return nil, err
	}
	sl.ifc.mu.Lock()
	sl.ifc.nextFD++
	s.fd = sl.ifc.nextFD
	sl.ifc.sockets[s.fd] = s
	sl.ifc.mu.Unlock()
	return s, nil
}

// Close stops the listener.
func (sl *StreamListener) Close() error { return sl.l.Close() }
