// Package ddp implements the Direct Data Placement protocol (Shah et al.,
// RDMA Consortium 2002) extended for datagram operation as described in the
// paper's §IV.B. DDP moves upper-layer messages either into anonymous
// receive queues (untagged model, send/recv) or directly into registered
// memory named by a steering tag (tagged model, RDMA Write / Write-Record),
// segmenting each message to the lower layer's maximum transfer unit.
//
// Two lower-layer bindings are provided:
//
//   - StreamChannel rides an mpa.Conn (the standard's TCP binding). The LLP
//     is reliable and ordered, segments arrive exactly once and in order,
//     and MPA supplies integrity.
//   - DatagramChannel rides any transport.Datagram (the paper's UDP
//     binding). Every segment is self-describing — it carries the message
//     length and sequence number in addition to the stream binding's fields.
//     Over an unreliable LLP it also carries its own CRC32C trailer, because
//     the paper requires "the use of CRC32 when sending messages" in
//     datagram mode with the UDP checksum disabled. Over rudp it carries
//     none: rudp's full-frame CRC is the integrity check, as MPA's is for
//     the stream binding.
//
// Deviation from the 2002 wire format, documented for clarity: both tagged
// and untagged headers here carry MSN and MsgLen in both bindings (the RC
// binding strictly needs neither in tagged segments). This keeps one header
// codec for both modes; the cost is 8 bytes per RC tagged segment.
package ddp

import (
	"errors"
	"fmt"

	"repro/internal/crcx"
	"repro/internal/memreg"
	"repro/internal/nio"
)

// Version is the DDP protocol version emitted in every segment.
const Version = 1

// Queue numbers defined by the RDMAP mapping onto untagged DDP queues.
const (
	QNSend      = 0 // Send-type messages
	QNReadReq   = 1 // RDMA Read Requests
	QNTerminate = 2 // Terminate messages
)

// Header lengths in bytes. Both start with two control octets (DDP control
// and the RDMAP control byte riding in the DDP-reserved octet).
const (
	UntaggedHdrLen = 2 + 4 + 4 + 4 + 4 // ctrl, QN, MSN, MO, MsgLen
	TaggedHdrLen   = 2 + 4 + 8 + 4 + 4 // ctrl, STag, TO, MSN, MsgLen
)

// Wire decoding errors.
var (
	ErrBadVersion = errors.New("ddp: unsupported version")
	ErrShort      = errors.New("ddp: segment too short")
	ErrCRC        = errors.New("ddp: segment CRC mismatch")
	ErrTooBig     = errors.New("ddp: message exceeds binding limits")
)

// Segment is one decoded DDP segment: the unit of placement. Tagged
// segments place Payload at TO within the region named STag; untagged
// segments deliver Payload at offset MO of message MSN on queue QN.
type Segment struct {
	Tagged bool
	Last   bool // L bit: this segment completes its message
	RDMAP  byte // RDMAP control byte (opcode etc.), opaque at this layer

	// Untagged fields.
	QN uint32
	MO uint32

	// Tagged fields.
	STag memreg.STag
	TO   uint64

	// Common datagram-extension fields.
	MSN    uint32 // message sequence number
	MsgLen uint32 // total upper-layer message length

	Payload []byte

	// Raw is the underlying transport buffer the segment was decoded from
	// (datagram binding only). Once a consumer has fully processed the
	// segment it may pass Raw to DatagramChannel.Recycle.
	Raw []byte
}

const (
	ctrlTagged  = 1 << 7
	ctrlLast    = 1 << 6
	ctrlVerMask = 0x03
)

// AppendHeader appends the segment's wire header (without payload or CRC)
// to dst and returns the extended slice.
func AppendHeader(dst []byte, s *Segment) []byte {
	ctrl := byte(Version & ctrlVerMask)
	if s.Tagged {
		ctrl |= ctrlTagged
	}
	if s.Last {
		ctrl |= ctrlLast
	}
	dst = append(dst, ctrl, s.RDMAP)
	if s.Tagged {
		dst = nio.PutU32(dst, uint32(s.STag))
		dst = nio.PutU64(dst, s.TO)
	} else {
		dst = nio.PutU32(dst, s.QN)
		dst = nio.PutU32(dst, s.MSN)
		dst = nio.PutU32(dst, s.MO)
		dst = nio.PutU32(dst, s.MsgLen)
		return dst
	}
	dst = nio.PutU32(dst, s.MSN)
	dst = nio.PutU32(dst, s.MsgLen)
	return dst
}

// HeaderLen returns the header length implied by the segment's model.
func (s *Segment) HeaderLen() int {
	if s.Tagged {
		return TaggedHdrLen
	}
	return UntaggedHdrLen
}

// Parse decodes one DDP segment from pkt. With withCRC set (the datagram
// binding over an unreliable LLP), the trailing CRC32C is verified over
// header+payload and stripped. The returned Segment's Payload aliases pkt.
func Parse(pkt []byte, withCRC bool) (Segment, error) {
	if withCRC {
		if len(pkt) < crcx.Size {
			return Segment{}, fmt.Errorf("%w: %d bytes", ErrShort, len(pkt))
		}
		body := pkt[:len(pkt)-crcx.Size]
		want := nio.U32(pkt[len(pkt)-crcx.Size:])
		if crcx.Checksum(body) != want {
			return Segment{}, ErrCRC
		}
		pkt = body
	}
	if len(pkt) < 2 {
		return Segment{}, fmt.Errorf("%w: %d bytes", ErrShort, len(pkt))
	}
	ctrl := pkt[0]
	if ctrl&ctrlVerMask != Version {
		return Segment{}, fmt.Errorf("%w: %d", ErrBadVersion, ctrl&ctrlVerMask)
	}
	s := Segment{
		Tagged: ctrl&ctrlTagged != 0,
		Last:   ctrl&ctrlLast != 0,
		RDMAP:  pkt[1],
	}
	if s.Tagged {
		if len(pkt) < TaggedHdrLen {
			return Segment{}, fmt.Errorf("%w: tagged header needs %d bytes, have %d", ErrShort, TaggedHdrLen, len(pkt))
		}
		s.STag = memreg.STag(nio.U32(pkt[2:]))
		s.TO = nio.U64(pkt[6:])
		s.MSN = nio.U32(pkt[14:])
		s.MsgLen = nio.U32(pkt[18:])
		s.Payload = pkt[TaggedHdrLen:]
		return s, nil
	}
	if len(pkt) < UntaggedHdrLen {
		return Segment{}, fmt.Errorf("%w: untagged header needs %d bytes, have %d", ErrShort, UntaggedHdrLen, len(pkt))
	}
	s.QN = nio.U32(pkt[2:])
	s.MSN = nio.U32(pkt[6:])
	s.MO = nio.U32(pkt[10:])
	s.MsgLen = nio.U32(pkt[14:])
	s.Payload = pkt[UntaggedHdrLen:]
	return s, nil
}
