package rudp

import (
	"bytes"
	"testing"

	"repro/internal/crcx"
	"repro/internal/nio"
	"repro/internal/transport"
)

// FuzzRudpFrame feeds arbitrary bytes to everything that parses a wire
// frame: the receive path (as one datagram from a stranger), IsAckPacket and
// MarkCongestion. Nothing may panic; a datagram whose CRC trailer does not
// verify must leave no trace — no peer state, no delivery, no ACK; and
// whatever MarkCongestion accepts must come out a valid, marked DATA frame
// with every other byte intact, while what it rejects comes out untouched.
func FuzzRudpFrame(f *testing.F) {
	data := AppendData(nil, 7, 1, []byte("payload"))
	f.Add(data)
	f.Add(AppendData(nil, 7, 1, nil))
	f.Add(AppendData(nil, 0xff, ^uint32(0), bytes.Repeat([]byte{0xa5}, 300)))
	f.Add(appendAck(nil, 7, 0, 41, 0b1011))
	f.Add(appendAck(nil, 7, flagECN, ^uint32(0), ^uint64(0)))
	marked := bytes.Clone(data)
	MarkCongestion(marked)
	f.Add(marked)
	f.Add(data[:len(data)-1])           // truncated
	f.Add(append(bytes.Clone(data), 0)) // trailing garbage
	f.Add([]byte{})
	f.Add(make([]byte, dataTrailerLen))
	f.Add(make([]byte, ackLen))

	// One endpoint serves every input; what an input leaves behind is torn
	// down at the end of its run. Its loops are not started — the input is
	// pushed through the receive path by hand, as one datagram from a
	// stranger whose queue then shows exactly what the endpoint answered.
	net := newMemNet()
	stranger := net.open()
	e := newEndpoint(net.open(), Config{})
	f.Cleanup(func() { e.Close(); stranger.Close() })
	rx := &rxBurst{}
	f.Fuzz(func(t *testing.T, p []byte) {
		valid := len(p) >= dataTrailerLen &&
			crcx.Checksum(p[:len(p)-crcx.Size]) == nio.U32(p[len(p)-crcx.Size:])

		if IsAckPacket(p) && len(p) != ackLen {
			t.Fatalf("IsAckPacket accepted a %d-byte frame", len(p))
		}

		in := bytes.Clone(p)
		if MarkCongestion(in) {
			tf, ok := frameType(in)
			if !valid || !ok || tf&typeMask != typeData || tf&flagECN == 0 {
				t.Fatalf("MarkCongestion accepted %x (valid=%v) and produced %x", p, valid, in)
			}
			// Only the flag bit and the CRC may differ.
			in[len(in)-typeBack] = p[len(p)-typeBack]
			if !bytes.Equal(in[:len(in)-crcx.Size], p[:len(p)-crcx.Size]) {
				t.Fatalf("MarkCongestion changed more than the flag: %x -> %x", p, in)
			}
		} else if !bytes.Equal(in, p) {
			t.Fatalf("MarkCongestion rejected %x but rewrote it to %x", p, in)
		}

		rx.pkts[0], rx.froms[0] = bytes.Clone(p), stranger.addr
		e.handleBurst(rx, 1)
		answers := recvAcks(stranger, noWait)
		peers := e.Peers()
		e.tab.Clear(func(ent *peerEntry) {
			e.releaseWindow(ent)
			e.releaseRing(&ent.V)
		})

		var out [1][]byte
		var src [1]transport.Addr
		delivered, _ := e.dq.pop(out[:], src[:])
		if !valid {
			if delivered != 0 || len(answers) != 0 || peers != 0 {
				t.Fatalf("a frame with a bad CRC left a trace: delivered %d, answered %d, peers %d: %x",
					delivered, len(answers), peers, p)
			}
			return
		}
		if delivered == 1 && !bytes.Equal(out[0], p[:len(p)-dataTrailerLen]) {
			t.Fatalf("delivered %x from frame %x", out[0], p)
		}
		for _, a := range answers {
			if tf, ok := frameType(a); !ok || !IsAckPacket(a) || tf&typeMask != typeAck {
				t.Fatalf("answered a stranger's frame %x with something that is not an ACK: %x", p, a)
			}
		}
	})
}
