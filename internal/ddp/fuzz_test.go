package ddp

import (
	"bytes"
	"testing"

	"repro/internal/crcx"
	"repro/internal/memreg"
	"repro/internal/nio"
)

// FuzzDDPSegment round-trips fuzzed segments through both datagram wire
// formats — AppendHeader + payload, plus the CRC32C trailer when withCRC
// (the unreliable-LLP binding) and bare over rudp — then Parse, and checks
// every header field and the payload survive. The fuzzed payload is also
// fed to Parse in both modes as a hostile packet: decoding must reject or
// succeed, never panic.
func FuzzDDPSegment(f *testing.F) {
	f.Add(true, false, true, byte(0x41), uint32(1), uint32(7), uint32(512), uint32(4096), uint64(0), []byte("payload"))
	f.Add(true, true, false, byte(0x00), uint32(0xdeadbeef), uint32(0), uint32(0), uint32(1), uint64(1<<40), []byte{})
	f.Add(false, false, true, byte(0x41), uint32(1), uint32(7), uint32(512), uint32(4096), uint64(0), []byte("payload"))
	f.Add(false, true, false, byte(0x00), uint32(0xdeadbeef), uint32(0), uint32(0), uint32(1), uint64(1<<40), []byte{1})
	f.Fuzz(func(t *testing.T, withCRC, tagged, last bool, rdmap byte, a, msn, mo, msgLen uint32, to uint64, payload []byte) {
		in := &Segment{Tagged: tagged, Last: last, RDMAP: rdmap, MSN: msn, MsgLen: msgLen}
		if tagged {
			in.STag = memreg.STag(a)
			in.TO = to
		} else {
			in.QN = a
			in.MO = mo
		}

		pkt := AppendHeader(nil, in)
		if len(pkt) != in.HeaderLen() {
			t.Fatalf("AppendHeader wrote %d bytes, HeaderLen says %d", len(pkt), in.HeaderLen())
		}
		pkt = append(pkt, payload...)
		if withCRC {
			pkt = nio.PutU32(pkt, crcx.Checksum(pkt))
		}

		out, err := Parse(pkt, withCRC)
		if err != nil {
			t.Fatalf("Parse rejected own encoding: %v", err)
		}
		if out.Tagged != in.Tagged || out.Last != in.Last || out.RDMAP != in.RDMAP ||
			out.MSN != in.MSN || out.MsgLen != in.MsgLen ||
			out.QN != in.QN || out.MO != in.MO ||
			out.STag != in.STag || out.TO != in.TO {
			t.Fatalf("header round-trip mismatch:\n in: %+v\nout: %+v", in, out)
		}
		if !bytes.Equal(out.Payload, payload) {
			t.Fatalf("payload round-trip mismatch: sent %d bytes, got %d", len(payload), len(out.Payload))
		}

		// A flipped bit anywhere in the packet must fail the CRC. Without a
		// trailer DDP detects nothing — the LLP below owns integrity — so
		// the assertion belongs to the CRC binding alone.
		if withCRC {
			corrupt := append([]byte(nil), pkt...)
			corrupt[int(msn)%len(corrupt)] ^= 0x80
			if _, err := Parse(corrupt, true); err == nil {
				t.Fatal("Parse accepted a corrupted packet")
			}
		}

		// Hostile input: arbitrary bytes must never panic the decoder.
		_, _ = Parse(payload, true)
		_, _ = Parse(payload, false)
	})
}
