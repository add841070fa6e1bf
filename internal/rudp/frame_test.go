package rudp

import (
	"bytes"
	"math/rand"
	"testing"

	"repro/internal/crcx"
)

// TestFramedPathMatchesAppendData: a frame built the way ddp builds one —
// a header written into a FramePool buffer, the payload gathered behind it
// by CopyUpdate seeded with the header's CRC — and framed by SendFrames at
// a random seq and epoch leaves on the wire byte for byte as AppendData
// frames the same bytes. So does a datagram sent through SendBatch. Seqs
// include the 2^32 wrap.
func TestFramedPathMatchesAppendData(t *testing.T) {
	rng := rand.New(rand.NewSource(34))
	net := newMemNet()
	wire, rx := net.open(), net.open()
	e := newEndpoint(wire, Config{}) // loops not started: nothing acknowledges, nothing retransmits
	defer func() { e.Close(); rx.Close() }()

	for i := range 400 {
		hdr := make([]byte, rng.Intn(40))
		payload := make([]byte, rng.Intn(e.MaxDatagram()-len(hdr)+1))
		rng.Read(hdr)
		rng.Read(payload)
		seq, epoch := rng.Uint32(), byte(rng.Intn(256))
		if i%8 == 0 {
			seq = ^uint32(0) - uint32(rng.Intn(3)) // at and around the wrap
		}
		// Start the peer's conversation at seq under epoch, window empty.
		ent, err := e.lockPeer(rx.addr)
		if err != nil {
			t.Fatal(err)
		}
		e.releaseWindow(ent)
		ent.V.nextSeq, ent.V.ackedTo, ent.V.txEpoch = seq, seq-1, epoch
		ent.Unlock()

		body := append(hdr, payload...)
		if i%2 == 0 {
			frame := append(e.FramePool().Get(), hdr...)
			frame = frame[:len(body)]
			crc := crcx.CopyUpdate(frame[len(hdr):], payload, crcx.Checksum(hdr))
			if n, err := e.SendFrames([][]byte{frame}, []uint32{crc}, rx.addr); n != 1 || err != nil {
				t.Fatalf("SendFrames = %d, %v", n, err)
			}
		} else if n, err := e.SendBatch([][]byte{body}, rx.addr); n != 1 || err != nil {
			t.Fatalf("SendBatch = %d, %v", n, err)
		}
		got, _, err := rx.Recv(noWait)
		if err != nil {
			t.Fatal(err)
		}
		if want := AppendData(nil, epoch, seq, body); !bytes.Equal(got, want) {
			t.Fatalf("case %d (%d-byte header, %d-byte payload, seq %d, epoch %d): wire frame\n%x\nAppendData\n%x",
				i, len(hdr), len(payload), seq, epoch, got, want)
		}
		rx.Recycle(got)
	}
}

// TestAppendDataLayout pins AppendData against the wire format spelled out
// field by field — payload, seq, epoch, type, then the CRC32C of all of it
// computed in one plain pass — so the fused copy and the trailer writer
// cannot drift together.
func TestAppendDataLayout(t *testing.T) {
	rng := rand.New(rand.NewSource(35))
	for range 200 {
		payload := make([]byte, rng.Intn(3000))
		rng.Read(payload)
		seq, epoch := rng.Uint32(), byte(rng.Intn(256))
		prefix := []byte("kept")
		want := append(bytes.Clone(payload), byte(seq>>24), byte(seq>>16), byte(seq>>8), byte(seq), epoch, typeData)
		crc := crcx.Checksum(want)
		want = append(want, byte(crc>>24), byte(crc>>16), byte(crc>>8), byte(crc))
		got := AppendData(bytes.Clone(prefix), epoch, seq, payload)
		if !bytes.HasPrefix(got, prefix) || !bytes.Equal(got[len(prefix):], want) {
			t.Fatalf("AppendData(%d bytes, seq %d, epoch %d) = %x, want %x", len(payload), seq, epoch, got[len(prefix):], want)
		}
	}
}
