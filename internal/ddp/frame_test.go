package ddp

import (
	"bytes"
	"math/rand"
	"sync"
	"testing"
	"time"

	"repro/internal/crcx"
	"repro/internal/memreg"
	"repro/internal/nio"
	"repro/internal/rudp"
	"repro/internal/simnet"
	"repro/internal/transport"
)

// wireTap records a copy of every datagram its endpoint sends in bursts —
// DDP segments over a raw LLP, rudp's first transmissions over rudp (ACKs
// and retransmissions go through SendTo and are not recorded).
type wireTap struct {
	transport.Datagram
	mu   sync.Mutex
	sent [][]byte
}

func (w *wireTap) SendBatch(pkts [][]byte, to transport.Addr) (int, error) {
	w.mu.Lock()
	for _, p := range pkts {
		w.sent = append(w.sent, bytes.Clone(p))
	}
	w.mu.Unlock()
	return w.Datagram.SendBatch(pkts, to)
}

func (w *wireTap) take() [][]byte {
	w.mu.Lock()
	defer w.mu.Unlock()
	s := w.sent
	w.sent = nil
	return s
}

// twoPassSegments cuts one message in two passes over the payload: per
// segment the header, the payload range appended by AppendRange, and —
// with trailer set — the CRC32C of both from crcx.Checksum over the whole
// buffer. It is the reference the one-pass send path must reproduce byte
// for byte.
func twoPassSegments(proto Segment, payload nio.Vec, maxDatagram int, trailer bool) [][]byte {
	total := payload.Len()
	proto.MsgLen = uint32(total)
	maxSeg := maxDatagram - proto.HeaderLen()
	if trailer {
		maxSeg -= crcx.Size
	}
	var segs [][]byte
	for off := 0; ; {
		n := min(maxSeg, total-off)
		proto.Last = off+n == total
		pkt := payload.AppendRange(AppendHeader(nil, &proto), off, n)
		if trailer {
			pkt = nio.PutU32(pkt, crcx.Checksum(pkt))
		}
		segs = append(segs, pkt)
		off += n
		if proto.Tagged {
			proto.TO += uint64(n)
		} else {
			proto.MO += uint32(n)
		}
		if proto.Last {
			return segs
		}
	}
}

// TestOnePassSendMatchesTwoPassWire: random messages — untagged and
// tagged, one segment and many, gathered from a vector of several pieces —
// leave the one-pass send path with exactly the bytes of the two-pass cut.
// Over a raw LLP each segment equals header + AppendRange + Checksum; over
// rudp each DATA frame equals rudp.AppendData of that same segment at the
// seq and epoch the frame carries, so the frame CRC rudp finishes from ddp's
// running CRC is the one AppendData computes from scratch. Several endpoint
// pairs give several random epochs.
func TestOnePassSendMatchesTwoPassWire(t *testing.T) {
	rng := rand.New(rand.NewSource(34))
	for _, reliable := range []bool{false, true} {
		for pair := range 4 {
			net := simnet.New(simnet.Config{})
			ra, err := net.OpenDatagram("a", 0)
			if err != nil {
				t.Fatal(err)
			}
			rb, err := net.OpenDatagram("b", 0)
			if err != nil {
				t.Fatal(err)
			}
			tap := &wireTap{Datagram: ra}
			var llpA, llpB transport.Datagram = tap, rb
			if reliable {
				llpA, llpB = rudp.New(tap), rudp.New(rb)
			}
			ca, cb := NewDatagramChannel(llpA), NewDatagramChannel(llpB)
			to := cb.LocalAddr()
			maxDatagram := ca.Endpoint().MaxDatagram()
			for msg := range 12 {
				size := rng.Intn(3 * ca.MaxSegment())
				if msg%4 == 0 {
					size = rng.Intn(2048)
				}
				src := make([]byte, size)
				rng.Read(src)
				cut := rng.Intn(size + 1)
				vec := nio.VecOf(src[:cut], nil, src[cut:])
				var proto Segment
				if msg%2 == 0 {
					proto = Segment{QN: QNSend, MSN: uint32(msg + 1), RDMAP: 0x41}
					err = ca.SendUntagged(to, proto.QN, proto.MSN, proto.RDMAP, vec)
				} else {
					proto = Segment{Tagged: true, STag: memreg.STag(rng.Uint32()), TO: rng.Uint64() >> 8, MSN: uint32(msg + 1), RDMAP: 0x43}
					err = ca.SendTagged(to, proto.STag, proto.TO, proto.MSN, proto.RDMAP, vec)
				}
				if err != nil {
					t.Fatal(err)
				}
				want := twoPassSegments(proto, vec, maxDatagram, !reliable)
				got := tap.take()
				if len(got) != len(want) {
					t.Fatalf("reliable=%v pair %d message %d: %d datagrams on the wire, want %d", reliable, pair, msg, len(got), len(want))
				}
				for i, frame := range got {
					seg := frame
					if reliable {
						const trailer = 10 // seq(4) epoch(1) type(1) crc(4)
						seg = frame[:len(frame)-trailer]
						f := frame[len(seg):]
						seq, epoch := nio.U32(f), f[4]
						if ref := rudp.AppendData(nil, epoch, seq, seg); !bytes.Equal(frame, ref) {
							t.Fatalf("pair %d message %d segment %d: rudp frame differs from AppendData of its segment\n%x\n%x", pair, msg, i, frame, ref)
						}
					}
					if !bytes.Equal(seg, want[i]) {
						t.Fatalf("reliable=%v pair %d message %d segment %d differs from the two-pass cut", reliable, pair, msg, i)
					}
				}
				// Drain the receiver so its pools stay balanced.
				segs := make([]Segment, len(want))
				froms := make([]transport.Addr, len(want))
				for got := 0; got < len(want); {
					n, err := cb.RecvBatch(segs[:len(want)-got], froms, 2*time.Second)
					if err != nil {
						t.Fatal(err)
					}
					for _, s := range segs[:n] {
						cb.Recycle(s.Raw)
					}
					got += n
				}
			}
			ca.Close()
			cb.Close()
		}
	}
}
