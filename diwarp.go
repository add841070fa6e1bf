// Package diwarp is the public facade of the datagram-iWARP library, a Go
// implementation of "RDMA Capable iWARP over Datagrams" (Grant, Rashti,
// Afsahi, Balaji — IPDPS 2011).
//
// The library provides a complete software iWARP stack with two transport
// modes:
//
//   - RC (reliable connection): the standard — MPA framing with markers and
//     CRC over a TCP-like stream, Send/Recv, RDMA Write, RDMA Read;
//   - UD (unreliable datagram): the paper's extension — connectionless
//     operation over UDP-like datagrams, Send/Recv with in-stack
//     reassembly, and RDMA Write-Record, the first one-sided RDMA write
//     defined over an unreliable transport.
//
// # Quick start
//
//	net := diwarp.NewSimNetwork(diwarp.SimConfig{})
//	server := diwarp.NewNode()
//	client := diwarp.NewNode()
//
//	sep, _ := net.OpenDatagram("server", 0)
//	cep, _ := net.OpenDatagram("client", 0)
//	sqp, _ := server.OpenUD(sep, diwarp.UDConfig{})
//	cqp, _ := client.OpenUD(cep, diwarp.UDConfig{})
//
//	// One-sided Write-Record into a registered sink region:
//	sink, _ := server.Register(make([]byte, 1<<20), diwarp.RemoteWrite)
//	cqp.PostWriteRecord(1, sqp.LocalAddr(), sink.STag(), 0, diwarp.VecOf(data))
//	cqe, _ := server.RecvCQ.Poll(time.Second) // carries a validity map
//
// See examples/ for complete programs and internal/* for the layer
// implementations (transport, mpa, ddp, rdmap, core).
package diwarp

import (
	"time"

	iwarp "repro/internal/core"
	"repro/internal/memreg"
	"repro/internal/msg"
	"repro/internal/nio"
	"repro/internal/rudp"
	"repro/internal/simnet"
	"repro/internal/transport"
)

// Re-exported core types. The facade keeps one import path for library
// users; the aliases are the stable API surface.
type (
	// Addr identifies a datagram endpoint or stream peer.
	Addr = transport.Addr
	// STag names a registered memory region on the wire.
	STag = memreg.STag
	// Region is a registered memory region.
	Region = memreg.Region
	// Access is the set of rights granted at registration.
	Access = memreg.Access
	// ValidityMap records which byte ranges of a sink hold valid data.
	ValidityMap = memreg.ValidityMap
	// Interval is one contiguous valid byte range.
	Interval = memreg.Interval
	// CQ is a completion queue.
	CQ = iwarp.CQ
	// CQE is a completion queue entry.
	CQE = iwarp.CQE
	// WorkType identifies the operation a completion reports.
	WorkType = iwarp.WorkType
	// Status is a work-completion status.
	Status = iwarp.Status
	// UDQP is a datagram queue pair.
	UDQP = iwarp.UDQP
	// RCQP is a reliable-connection queue pair.
	RCQP = iwarp.RCQP
	// UDConfig parameterises a datagram QP.
	UDConfig = iwarp.UDConfig
	// RCConfig parameterises a reliable-connection QP.
	RCConfig = iwarp.RCConfig
	// Stats counts datapath events on a QP.
	Stats = iwarp.Stats
	// Vec is a gather/scatter I/O vector.
	Vec = nio.Vec
	// Datagram is the unreliable datagram LLP interface.
	Datagram = transport.Datagram
	// Stream is the reliable stream LLP interface.
	Stream = transport.Stream
	// Listener accepts stream connections for RC mode.
	Listener = transport.Listener
	// SimConfig parameterises the simulated network.
	SimConfig = simnet.Config
	// SimNetwork is the in-process simulated network.
	SimNetwork = simnet.Network
	// MsgConfig parameterises a message-layer endpoint (eager threshold,
	// credits, rendezvous limits, delivery handler).
	MsgConfig = msg.Config
	// MsgEndpoint is a message-layer endpoint: arbitrarily large messages
	// over one QP, eager below the threshold, rendezvous zero-copy above.
	MsgEndpoint = msg.Endpoint
	// Message is one delivered message; call Release when done with Data.
	Message = msg.Message
	// MsgStats counts message-layer datapath events.
	MsgStats = msg.Stats
)

// Access rights for Register.
const (
	LocalRead   = memreg.LocalRead
	LocalWrite  = memreg.LocalWrite
	RemoteRead  = memreg.RemoteRead
	RemoteWrite = memreg.RemoteWrite
)

// Completion work types.
const (
	WTSend            = iwarp.WTSend
	WTRecv            = iwarp.WTRecv
	WTWrite           = iwarp.WTWrite
	WTWriteRecord     = iwarp.WTWriteRecord
	WTWriteRecordRecv = iwarp.WTWriteRecordRecv
	WTRead            = iwarp.WTRead
	WTError           = iwarp.WTError
)

// Completion statuses.
const (
	StatusSuccess       = iwarp.StatusSuccess
	StatusLocalLength   = iwarp.StatusLocalLength
	StatusLocalAccess   = iwarp.StatusLocalAccess
	StatusRemoteAccess  = iwarp.StatusRemoteAccess
	StatusRemoteInvalid = iwarp.StatusRemoteInvalid
	StatusFlushed       = iwarp.StatusFlushed
	StatusRNR           = iwarp.StatusRNR
	StatusBadWR         = iwarp.StatusBadWR
)

// Common errors.
var (
	ErrCQEmpty  = iwarp.ErrCQEmpty
	ErrQPClosed = iwarp.ErrQPClosed
	ErrTimeout  = transport.ErrTimeout
	ErrClosed   = transport.ErrClosed
)

// VecOf builds a gather vector from byte slices without copying.
func VecOf(segs ...[]byte) Vec { return nio.VecOf(segs...) }

// NewSimNetwork creates an in-process simulated network with configurable
// MTU, per-fragment loss and latency — the default substrate for tests and
// benchmarks.
func NewSimNetwork(cfg SimConfig) *SimNetwork { return simnet.New(cfg) }

// GroupAddr builds the address of simulated multicast group n. Datagram
// endpoints subscribe with SimNetwork.Join; a UD QP sending to the group
// address reaches every member (one send, N deliveries, no connections).
func GroupAddr(n uint16) Addr { return simnet.GroupAddr(n) }

// ListenUDP binds a real kernel UDP endpoint for deployment use.
func ListenUDP(host string, port uint16) (Datagram, error) {
	return transport.ListenUDP(host, port)
}

// ListenTCP binds a real kernel TCP listener for RC deployment use.
func ListenTCP(host string, port uint16) (Listener, error) {
	return transport.ListenTCP(host, port)
}

// DialTCP connects a real TCP stream for RC deployment use.
func DialTCP(to Addr) (Stream, error) { return transport.DialTCP(to) }

// Reliable wraps an unreliable datagram endpoint with the reliable-datagram
// LLP (ordered, exactly-once delivery), giving the paper's RD service when
// passed to OpenUD.
func Reliable(ep Datagram) Datagram { return rudp.New(ep) }

// OpenMsg opens a message-layer endpoint over ep (DESIGN.md §4.11):
// Send transfers arbitrarily large messages, eager below the configured
// threshold and rendezvous with zero-copy Write-Record placement above
// it; whole messages arrive through cfg.Handler. Pass Reliable(ep) for
// exactly-once delivery over lossy links.
func OpenMsg(ep Datagram, cfg MsgConfig) (*MsgEndpoint, error) { return msg.Open(ep, cfg) }

// Node bundles the per-process verbs resources: a protection domain, the
// STag table, and a default pair of completion queues. It corresponds to
// "opening the RNIC" in verbs terms.
type Node struct {
	PD     *memreg.PD
	Table  *memreg.Table
	SendCQ *CQ
	RecvCQ *CQ
}

// NewNode allocates a protection domain, region table, and CQs.
func NewNode() *Node {
	return &Node{
		PD:     memreg.NewPD(),
		Table:  memreg.NewTable(),
		SendCQ: iwarp.NewCQ(0),
		RecvCQ: iwarp.NewCQ(0),
	}
}

// NewCQ creates an additional completion queue of the given depth
// (0 selects the default).
func NewCQ(depth int) *CQ { return iwarp.NewCQ(depth) }

// Register pins buf as a memory region with the given access rights and
// returns it; its STag can be advertised to peers for tagged operations.
func (n *Node) Register(buf []byte, acc Access) (*Region, error) {
	return n.Table.Register(n.PD, buf, acc)
}

// Deregister unpins a region by STag.
func (n *Node) Deregister(s STag) error { return n.Table.Deregister(s) }

// OpenUD creates a datagram QP over ep using the node's resources. Pass a
// raw endpoint for UD service or Reliable(ep) for RD service.
func (n *Node) OpenUD(ep Datagram, cfg UDConfig) (*UDQP, error) {
	return iwarp.OpenUD(ep, n.PD, n.Table, n.SendCQ, n.RecvCQ, cfg)
}

// ConnectRC establishes a reliable-connection QP as initiator over an
// existing stream (MPA negotiation included).
func (n *Node) ConnectRC(s Stream, cfg RCConfig, private []byte) (*RCQP, []byte, error) {
	return iwarp.ConnectRC(s, n.PD, n.Table, n.SendCQ, n.RecvCQ, cfg, private)
}

// AcceptRC establishes a reliable-connection QP as responder over an
// accepted stream.
func (n *Node) AcceptRC(s Stream, cfg RCConfig, private []byte) (*RCQP, []byte, error) {
	return iwarp.AcceptRC(s, n.PD, n.Table, n.SendCQ, n.RecvCQ, cfg, private)
}

// PollBoth polls the node's receive CQ first and send CQ second, returning
// the first completion available within the timeout. Convenience for
// single-threaded applications.
func (n *Node) PollBoth(timeout time.Duration) (CQE, error) {
	deadline := time.Now().Add(timeout)
	for {
		if e, err := n.RecvCQ.Poll(0); err == nil {
			return e, nil
		}
		if e, err := n.SendCQ.Poll(0); err == nil {
			return e, nil
		}
		remaining := time.Until(deadline)
		if remaining <= 0 {
			return CQE{}, ErrCQEmpty
		}
		step := 100 * time.Microsecond
		if step > remaining {
			step = remaining
		}
		time.Sleep(step)
	}
}
