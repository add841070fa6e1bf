package sockif

import (
	"bytes"
	"fmt"

	"repro/internal/memreg"
	"repro/internal/nio"
)

// RDMA Write data path for stream (RC) sockets — the fourth bar of the
// paper's Figure 9 ("support for both UD and RC operations has been
// included in our socket interface", §V.A). Both ends register a ring
// region and advertise it in the MPA connection-setup private data, so no
// extra round trip is spent on buffer exchange. A Send then becomes:
//
//	RDMA Write of the payload into the peer's ring
//	+ a small notify message (offset, length) on the untagged path
//
// which is the paper's Figure 3 upper half verbatim: the Write places the
// data, the following send tells the application it is valid. Ring space
// is governed by the same cumulative credit scheme as the datagram
// Write-Record path; credits ride the reliable channel, so no timeout
// fallback is needed.
//
// With the Write-Record profile enabled, every untagged message on the
// connection carries a one-byte type prefix (data / notify / credit), as
// negotiated by both ends through the private-data handshake.

// wrPrivMagic tags MPA private data advertising a Write-Record ring.
var wrPrivMagic = []byte("WRC1")

// encodeRingAdvert builds the MPA private data for a ring advertisement.
func encodeRingAdvert(r *memreg.Region) []byte {
	out := make([]byte, 0, len(wrPrivMagic)+8)
	out = append(out, wrPrivMagic...)
	out = nio.PutU32(out, uint32(r.STag()))
	out = nio.PutU32(out, uint32(r.Len()))
	return out
}

// parseRingAdvert extracts a peer ring advertisement, if present.
func parseRingAdvert(p []byte) (ringInfo, bool) {
	if len(p) < len(wrPrivMagic)+8 || !bytes.HasPrefix(p, wrPrivMagic) {
		return ringInfo{}, false
	}
	return ringInfo{
		stag: memreg.STag(nio.U32(p[len(wrPrivMagic):])),
		size: int(nio.U32(p[len(wrPrivMagic)+4:])),
		ok:   true,
	}, true
}

// notifyLen is the payload of a Write notify: type byte + TO(8) + len(4).
const notifyLen = 1 + 8 + 4

// sendStreamWR moves p to the peer through the RDMA Write data path,
// chunking to a quarter ring so large sends pipeline through the credit
// window (stream semantics permit splitting).
func (s *Socket) sendStreamWR(p []byte) error {
	s.mu.Lock()
	maxChunk := s.remoteRing.size / 4
	rcqp := s.rcqp
	s.mu.Unlock()
	if maxChunk == 0 {
		return fmt.Errorf("%w: peer ring too small", ErrBadSocket)
	}
	for len(p) > 0 {
		n := min(maxChunk, len(p))
		s.mu.Lock()
		// Credits ride the reliable channel: no timeout fallback, a stalled
		// peer stalls us like a zero TCP window would.
		for s.ringSent-s.ringAcked+uint64(n) > uint64(s.remoteRing.size/2) {
			if s.closed || s.down {
				s.mu.Unlock()
				return ErrBadSocket
			}
			s.wake.Wait()
		}
		if s.ringCursor+n > s.remoteRing.size {
			s.ringSent += uint64(s.remoteRing.size - s.ringCursor)
			s.ringCursor = 0
		}
		cursor := s.ringCursor
		s.ringCursor += n
		s.ringSent += uint64(n)
		stag := s.remoteRing.stag
		s.mu.Unlock()

		if err := rcqp.PostWrite(0, stag, uint64(cursor), nio.VecOf(p[:n])); err != nil {
			return err
		}
		notify := make([]byte, 1, notifyLen)
		notify[0] = frameWRNotify
		notify = nio.PutU64(notify, uint64(cursor))
		notify = nio.PutU32(notify, uint32(n))
		if err := rcqp.PostSend(0, nio.VecOf(notify)); err != nil {
			return err
		}
		p = p[n:]
	}
	return nil
}
