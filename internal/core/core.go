// Package iwarp is the verbs layer of the datagram-iWARP stack: the
// programming interface applications (and the socket interface) use to
// drive RDMA operations, corresponding to the "Verbs interface - RC & UD"
// box of the paper's Figure 4.
//
// It implements the queue-pair/completion-queue model of the RDMA verbs
// specification with the paper's datagram extensions (§IV.B item 4):
//
//   - datagram-type queue pairs ([UDQP]) bound to a local datagram endpoint
//     rather than a connection, whose send work requests carry destination
//     addresses and whose completions report the datagram source;
//   - completion-queue polling with a timeout ([CQ.Poll]), mandatory under
//     loss because a completion for a lost datagram never arrives;
//   - the RDMA Write-Record operation ([UDQP.PostWriteRecord]) and its
//     target-side completions carrying validity maps;
//   - the paper's UD error model: datagram QPs report failures as advisory
//     completions and remain usable, instead of transitioning to ERROR.
//
// Reliable-connection QPs ([RCQP]) implement the standard semantics (Send/
// Recv, RDMA Write, RDMA Read) over MPA-framed streams for baseline
// comparison, with the spec's strict error handling: any protocol violation
// terminates the connection and flushes outstanding work requests.
package iwarp

import (
	"errors"
	"fmt"

	"repro/internal/memreg"
	"repro/internal/transport"
)

// WorkType identifies the operation a completion reports.
type WorkType int

// Completion work types.
const (
	WTSend WorkType = iota + 1
	WTRecv
	WTWrite           // RDMA Write source completion (RC)
	WTWriteRecord     // Write-Record source completion (UD)
	WTWriteRecordRecv // Write-Record target completion: data placed (UD)
	WTRead            // RDMA Read source completion (RC)
	WTError           // advisory error completion (UD error model)
)

func (w WorkType) String() string {
	switch w {
	case WTSend:
		return "SEND"
	case WTRecv:
		return "RECV"
	case WTWrite:
		return "WRITE"
	case WTWriteRecord:
		return "WRITE_RECORD"
	case WTWriteRecordRecv:
		return "WRITE_RECORD_RECV"
	case WTRead:
		return "READ"
	case WTError:
		return "ERROR"
	default:
		return fmt.Sprintf("WORKTYPE(%d)", int(w))
	}
}

// Status is the completion status of a work request.
type Status int

// Completion statuses, following the verbs specification's work-completion
// status taxonomy.
const (
	StatusSuccess       Status = iota
	StatusLocalLength          // receive buffer too small for the message
	StatusLocalAccess          // local memory registration violation
	StatusRemoteAccess         // remote peer rejected a tagged access
	StatusRemoteInvalid        // remote STag unknown/stale
	StatusFlushed              // QP closed or errored with the WR outstanding
	StatusRNR                  // receiver not ready: no posted receive (RC fatal)
	StatusBadWR                // malformed work request
	StatusTimedOut             // UD operation abandoned: response lost (§IV.B.1 polling model)
)

func (s Status) String() string {
	switch s {
	case StatusSuccess:
		return "SUCCESS"
	case StatusLocalLength:
		return "LOC_LEN_ERR"
	case StatusLocalAccess:
		return "LOC_ACCESS_ERR"
	case StatusRemoteAccess:
		return "REM_ACCESS_ERR"
	case StatusRemoteInvalid:
		return "REM_INV_STAG"
	case StatusFlushed:
		return "WR_FLUSH_ERR"
	case StatusRNR:
		return "RNR"
	case StatusBadWR:
		return "BAD_WR"
	case StatusTimedOut:
		return "TIMEOUT"
	default:
		return fmt.Sprintf("STATUS(%d)", int(s))
	}
}

// Verbs-layer errors.
var (
	// ErrCQEmpty reports that a completion-queue poll timed out: the
	// defined-timeout polling the paper mandates for datagram mode.
	ErrCQEmpty = errors.New("iwarp: completion queue poll timed out")
	// ErrQPClosed reports use of a closed or errored queue pair.
	ErrQPClosed = errors.New("iwarp: queue pair closed")
	// ErrRecvQueueFull reports too many outstanding receive WRs.
	ErrRecvQueueFull = errors.New("iwarp: receive queue full")
	// ErrBadWR reports a malformed work request.
	ErrBadWR = errors.New("iwarp: bad work request")
)

// CQE is a completion-queue entry. For datagram QPs, Src carries the
// sender's address ("the completion queue elements need to be altered to
// include information concerning the source address and port for incoming
// data", §IV.B item 4). For Write-Record target completions, STag/TO/MsgLen
// describe the written message and Validity lists the byte ranges of the
// region that actually arrived (§IV.B.3).
type CQE struct {
	WRID   uint64
	Type   WorkType
	Status Status
	Err    error // detail when Status != StatusSuccess, else nil

	ByteLen int            // bytes received (WTRecv) or placed (WTWriteRecordRecv)
	Src     transport.Addr // datagram source (UD completions)

	// Write-Record target fields.
	STag     memreg.STag
	TO       uint64 // base target offset of the message
	MsgLen   int    // total message length announced by the source
	Validity memreg.ValidityMap
}

// Ok reports whether the completion succeeded.
func (e *CQE) Ok() bool { return e.Status == StatusSuccess }

// RecvWR is a receive work request: a buffer awaiting one incoming message.
type RecvWR struct {
	ID  uint64
	Buf []byte
}

// Stats counts datapath events on one queue pair, mirroring the counters a
// hardware RNIC exposes.
type Stats struct {
	MsgsSent       int64
	MsgsReceived   int64
	BytesSent      int64
	BytesReceived  int64
	RecvDropped    int64 // messages with no posted receive (UD)
	PlacedSegments int64 // tagged segments placed directly
	PlaceErrors    int64 // tagged placement failures
	Reassembled    int64 // multi-segment untagged messages completed
	SweptPartials  int64 // partial messages abandoned by timeout

	// Send-datapath counters (UD QPs; zero on RC QPs, whose stream binding
	// does not batch).
	BatchesSent  int64 // SendBatch bursts handed to the LLP
	SegmentsSent int64 // wire segments emitted by the segmented send path
	PoolHits     int64 // segment buffers served from the send pool
	PoolMisses   int64 // segment buffers that had to be allocated

	// Receive-datapath counters (UD QPs; zero on RC QPs).
	BatchesRecv    int64 // RecvBatch bursts pulled from the LLP
	SegmentsRecv   int64 // verified segments handed to the placement pipeline
	Recycled       int64 // receive buffers returned to the LLP's pool
	RecvPoolHits   int64 // LLP receive buffers served from its pool
	RecvPoolMisses int64 // LLP receive buffers that had to be allocated
}

// SegmentsPerRecvBatch reports the mean burst size the receive path
// achieved, or 0 before any batched receive.
func (s Stats) SegmentsPerRecvBatch() float64 {
	if s.BatchesRecv == 0 {
		return 0
	}
	return float64(s.SegmentsRecv) / float64(s.BatchesRecv)
}

// SegmentsPerBatch reports the mean burst size the send path achieved, or 0
// before any batched send.
func (s Stats) SegmentsPerBatch() float64 {
	if s.BatchesSent == 0 {
		return 0
	}
	return float64(s.SegmentsSent) / float64(s.BatchesSent)
}

// PoolHitRate reports the fraction of segment-buffer requests served from
// the pool, in [0, 1]; 0 before any send.
func (s Stats) PoolHitRate() float64 {
	total := s.PoolHits + s.PoolMisses
	if total == 0 {
		return 0
	}
	return float64(s.PoolHits) / float64(total)
}
