package rudp

import (
	"math/bits"
	"slices"

	"repro/internal/crcx"
	"repro/internal/nio"
)

// Wire format: see the package comment. Both frame kinds end in the same
// six bytes — epoch, type/flags, CRC32C — so a frame is classified from its
// tail whatever precedes it, and a DATA frame's payload is a prefix of the
// buffer it arrived in.
const (
	typeData = 1
	typeAck  = 2
	// typeMask extracts the frame type from the type/flags byte; the high
	// nibble is flag space so a marked packet still demuxes correctly.
	typeMask = 0x0f
	// flagECN is the congestion-experienced bit: set on DATA by the network
	// (MarkCongestion), echoed on the next ACK by the receiver.
	flagECN = 0x80

	// dataTrailerLen is what a DATA frame carries behind its payload:
	// seq(4) epoch(1) type/flags(1) crc32c(4). It is also the shortest frame.
	dataTrailerLen = 10
	// dataFieldsLen is the part of the DATA trailer the CRC covers:
	// seq(4) epoch(1) type/flags(1).
	dataFieldsLen = dataTrailerLen - crcx.Size
	// ackLen is the whole ACK frame: cumAck(4) sack(8) epoch(1)
	// type/flags(1) crc32c(4).
	ackLen = 18
	// typeBack and epochBack locate the two shared fields from the end of
	// either frame kind: p[len(p)-typeBack], p[len(p)-epochBack].
	typeBack  = crcx.Size + 1
	epochBack = crcx.Size + 2
)

// AppendData appends one DATA frame — payload, then the seq/epoch/type
// trailer, then the CRC32C of all of it — to dst and returns the extended
// slice. The payload is copied and checksummed in one pass, then framed by
// appendTrailer, the one DATA trailer writer SendBatch and SendFrames frame
// through too: the fuzz seeds, the many-peer soak's hand-rolled senders and
// the tests build the same bytes the endpoint sends.
func AppendData(dst []byte, epoch byte, seq uint32, payload []byte) []byte {
	start := len(dst)
	dst = slices.Grow(dst, len(payload)+dataTrailerLen)[:start+len(payload)]
	crc := crcx.CopyUpdate(dst[start:], payload, 0)
	return appendTrailer(dst, crc, epoch, seq)
}

// appendTrailer ends a DATA frame whose payload frame already holds, crc
// being the payload's CRC32C: it appends seq, epoch and type, finishes the
// CRC over those six bytes — CRC32C composes, so the payload is not read
// again — and appends it.
func appendTrailer(frame []byte, crc uint32, epoch byte, seq uint32) []byte {
	frame = nio.PutU32(frame, seq)
	frame = append(frame, epoch, typeData)
	return nio.PutU32(frame, crcx.Update(crc, frame[len(frame)-dataFieldsLen:]))
}

// appendAck appends one ACK frame to dst: every DATA with seq ≤ cum is
// acknowledged, and sack bit i acknowledges seq cum+1+i. flags is flagECN
// or zero.
func appendAck(dst []byte, epoch, flags byte, cum uint32, sack uint64) []byte {
	start := len(dst)
	dst = nio.PutU32(dst, cum)
	dst = nio.PutU64(dst, sack)
	dst = append(dst, epoch, typeAck|flags)
	return nio.PutU32(dst, crcx.Checksum(dst[start:]))
}

// frameType verifies p's CRC trailer and returns its type/flags byte. The
// CRC is checked before anything else is read: a corrupt frame is
// indistinguishable from a hostile one, and acting on it corrupts protocol
// state, so it is dropped and recovered as a loss. A runt too short to be a
// frame fails the same way (the receive loop counts the two apart by length).
func frameType(p []byte) (tf byte, ok bool) {
	if len(p) < dataTrailerLen {
		return 0, false
	}
	body := p[:len(p)-crcx.Size]
	if crcx.Checksum(body) != nio.U32(p[len(body):]) {
		return 0, false
	}
	return p[len(p)-typeBack], true
}

// IsAckPacket reports whether a wire packet is a rudp ACK — exported so a
// fault-injection layer below can target the reverse path (ACK blackholes)
// without re-deriving the wire format. It classifies by shape and does not
// verify the CRC.
func IsAckPacket(p []byte) bool {
	return len(p) == ackLen && p[ackLen-typeBack]&typeMask == typeAck
}

// MarkCongestion sets the ECN congestion-experienced bit on a rudp DATA
// frame in place, re-stamping the CRC trailer (the receiver verifies the
// CRC before it reads the type byte, so the mark must be covered or the
// frame reads as corrupt). Reports whether p was a markable DATA frame;
// ACKs, foreign packets and frames that do not verify are left untouched —
// re-stamping a damaged frame would launder the damage into a valid CRC.
// Exported as the Marker hook for simnet and faultnet, the layers playing
// the ECN-capable switch. The caller must own p exclusively (its private
// copy of the frame): marking a buffer the sender retains for
// retransmission would race with the resend path.
func MarkCongestion(p []byte) bool {
	tf, ok := frameType(p)
	if !ok || tf&typeMask != typeData {
		return false
	}
	p[len(p)-typeBack] |= flagECN
	body := p[:len(p)-crcx.Size]
	// Appending to the truncated slice rewrites the trailer bytes in place:
	// body's capacity still spans p's backing array.
	nio.PutU32(body, crcx.Checksum(body))
	return true
}

// seqLE reports a ≤ b in wraparound-aware serial arithmetic.
func seqLE(a, b uint32) bool { return int32(b-a) >= 0 }

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

// sackedAbove counts the sequence numbers above seq that an ACK (cum,
// bitmap) selectively acknowledges: the RFC 6675 IsLost measure. seq must
// lie above cum.
func sackedAbove(seq, cum uint32, bitmap uint64) int {
	d := seq - cum // bit d-1 is seq itself; everything from bit d up is above it
	if d-1 >= sackBits {
		return 0 // at or below cum, or beyond the bitmap
	}
	return bits.OnesCount64(bitmap >> d)
}
