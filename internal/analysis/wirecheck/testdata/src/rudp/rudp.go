// Package rudp exercises wirecheck against the reliable-datagram trailer
// geometry. Both frames end in epoch(1)|type/flags(1)|crc(4); an ACK is
// |cumAck(4)|sack bitmap(8)| before that, 18 bytes in all, and a DATA frame
// carries |seq(4)| and the shared six bytes behind its payload. DATA fields
// are addressed from the end of the frame (no constant offset, so the bound
// rule does not apply to them); ACK fields sit at constant offsets and must
// stay inside AckLen.
package rudp

import (
	"encoding/binary"

	"nio"
)

// The real package's frame geometry. The bound rule takes the maximum
// matching constant: AckLen (18) dominates DataTrailerLen (10).
const (
	DataTrailerLen = 10 // behind a DATA payload: seq + epoch + type/flags + crc
	AckLen         = 18 // full ACK frame: cumAck + sack + epoch + type/flags + crc
)

func parseAckOK(b []byte) (uint32, uint64, uint32) {
	cum := nio.U32(b)        // [0,4): in bounds
	bitmap := nio.U64(b[4:]) // [4,12): the SACK bitmap
	crc := nio.U32(b[14:])   // [14,18): trailer, exactly at the bound
	return cum, bitmap, crc
}

func parseAckBad(b []byte) (uint64, uint32) {
	// A bitmap read placed where the old header-first layout had it runs
	// past the frame — the drift this rule exists to catch.
	x := nio.U64(b[11:])                 // want `exceeds AckLen`
	y := binary.BigEndian.Uint32(b[15:]) // want `exceeds AckLen`
	return x, y
}

func writeAckBad(b []byte, v uint64) {
	binary.BigEndian.PutUint64(b[12:], v) // want `exceeds AckLen`
}

func writeAckOK(b []byte, v uint64) []byte {
	binary.BigEndian.PutUint64(b[4:], v) // [4,12): in bounds
	return nio.PutU32(b, 0)              // append-style trailer: exempt
}

// parseDataOK reads the DATA trailer from the end of the frame: the offset
// is not a constant, so the bound rule has nothing to say.
func parseDataOK(p []byte) (uint32, uint32) {
	n := len(p) - DataTrailerLen
	return nio.U32(p[n:]), nio.U32(p[len(p)-4:])
}

func wrongOrder(b []byte) uint32 {
	return binary.LittleEndian.Uint32(b[4:]) // want `use binary.BigEndian`
}

func manualAssembly(b []byte) uint64 {
	return uint64(b[4]) | uint64(b[5])<<8 // want `little-endian byte assembly`
}

// Payload-shaped buffers carry no constant header offset and are exempt.
func payloadRead(p []byte) uint64 {
	return nio.U64(p)
}
