package ddp

import (
	"bytes"
	"encoding/hex"
	"testing"
	"time"

	"repro/internal/crcx"
	"repro/internal/faultnet"
	"repro/internal/nio"
	"repro/internal/rudp"
	"repro/internal/simnet"
	"repro/internal/telemetry"
	"repro/internal/transport"
)

// bindingPair opens two endpoints on one lossless simnet — wrapped in rudp
// when reliable — and returns channels over both. The raw endpoints stay
// reachable through Endpoint() for reading or injecting what DDP itself
// would never send.
func bindingPair(t *testing.T, reliable bool) (ca, cb *DatagramChannel) {
	t.Helper()
	net := simnet.New(simnet.Config{})
	open := func(node string) transport.Datagram {
		ep, err := net.OpenDatagram(node, 0)
		if err != nil {
			t.Fatal(err)
		}
		if reliable {
			return rudp.New(ep)
		}
		return ep
	}
	ca, cb = NewDatagramChannel(open("a")), NewDatagramChannel(open("b"))
	t.Cleanup(func() { ca.Close(); cb.Close() })
	return ca, cb
}

// goldenPayload is the 1 KiB payload the wire-format goldens were cut from.
func goldenPayload() []byte {
	p := make([]byte, 1024)
	for i := range p {
		p[i] = byte(i * 7)
	}
	return p
}

// The UD wire format of one 1 KiB untagged and one 1 KiB tagged segment, as
// the datagram binding has always sent them: header, payload, CRC32C. A
// change to either is a wire-format change, not a refactor.
const (
	goldenUntaggedHdr = "4141" + "00000000" + "00000005" + "00000000" + "00000400"
	goldenUntaggedCRC = "3624bcc5"
	goldenTaggedHdr   = "c143" + "00abcd01" + "0000000000010000" + "00000006" + "00000400"
	goldenTaggedCRC   = "fbc11f72"
)

// TestSegmentFramingFollowsLLP pins the binding: over raw simnet a segment
// is header + payload + CRC32C trailer, byte-for-byte the committed UD
// goldens; over rudp it is header + payload and nothing else, and
// MaxSegment is larger by exactly the trailer DDP no longer carries. A
// message of exactly MaxSegment bytes fills one LLP datagram to the byte.
func TestSegmentFramingFollowsLLP(t *testing.T) {
	payload := goldenPayload()
	for _, tc := range []struct {
		name     string
		reliable bool
		trailer  int
	}{
		{"raw simnet", false, crcx.Size},
		{"rudp", true, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ca, cb := bindingPair(t, tc.reliable)
			to := cb.LocalAddr()
			if got, want := ca.MaxSegment(), ca.Endpoint().MaxDatagram()-TaggedHdrLen-tc.trailer; got != want {
				t.Fatalf("MaxSegment = %d, want %d", got, want)
			}
			wire := func() []byte {
				t.Helper()
				p, _, err := cb.Endpoint().Recv(2 * time.Second)
				if err != nil {
					t.Fatal(err)
				}
				defer cb.Endpoint().Recycle(p)
				return bytes.Clone(p)
			}
			check := func(pkt []byte, hdrHex, crcHex string) {
				t.Helper()
				hdr, _ := hex.DecodeString(hdrHex)
				if len(pkt) != len(hdr)+len(payload)+tc.trailer {
					t.Fatalf("segment is %d bytes, want header %d + payload %d + trailer %d",
						len(pkt), len(hdr), len(payload), tc.trailer)
				}
				if !bytes.Equal(pkt[:len(hdr)], hdr) || !bytes.Equal(pkt[len(hdr):len(hdr)+len(payload)], payload) {
					t.Fatalf("header+payload moved: header %x", pkt[:len(hdr)])
				}
				if tc.trailer != 0 {
					if got := hex.EncodeToString(pkt[len(pkt)-crcx.Size:]); got != crcHex {
						t.Fatalf("CRC trailer = %s, golden %s", got, crcHex)
					}
				}
			}

			if err := ca.SendUntagged(to, QNSend, 5, 0x41, nio.VecOf(payload)); err != nil {
				t.Fatal(err)
			}
			check(wire(), goldenUntaggedHdr, goldenUntaggedCRC)
			if err := ca.SendTagged(to, 0x00abcd01, 0x10000, 6, 0x43, nio.VecOf(payload)); err != nil {
				t.Fatal(err)
			}
			check(wire(), goldenTaggedHdr, goldenTaggedCRC)

			full := make([]byte, ca.MaxSegment())
			if err := ca.SendTagged(to, 1, 0, 7, 0, nio.VecOf(full)); err != nil {
				t.Fatal(err)
			}
			if got := len(wire()); got != ca.Endpoint().MaxDatagram() {
				t.Fatalf("a MaxSegment message went out as %d bytes, want one full %d-byte datagram",
					got, ca.Endpoint().MaxDatagram())
			}
		})
	}
}

// TestMalformedSegmentsCounted: a runt and a segment of an unknown DDP
// version are dropped under their own counter and trace cause on both
// bindings — over rudp, where no DDP CRC exists, they are DDP's only drops
// — while valid traffic behind them still arrives.
func TestMalformedSegmentsCounted(t *testing.T) {
	for _, tc := range []struct {
		name     string
		reliable bool
	}{
		{"raw simnet", false},
		{"rudp", true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ca, cb := bindingPair(t, tc.reliable)
			telemetry.DefaultTrace.Drain()
			badVer := AppendHeader(nil, &Segment{QN: QNSend, MSN: 1, MsgLen: 3, Last: true})
			badVer[0] = badVer[0]&^ctrlVerMask | 2
			badVer = append(badVer, "bad"...)
			if ca.trailer != 0 {
				badVer = nio.PutU32(badVer, crcx.Checksum(badVer))
			}
			for _, p := range [][]byte{{Version}, badVer} {
				if err := ca.Endpoint().SendTo(p, cb.LocalAddr()); err != nil {
					t.Fatal(err)
				}
			}
			if err := ca.SendUntagged(cb.LocalAddr(), QNSend, 2, 0, nio.VecOf([]byte("good"))); err != nil {
				t.Fatal(err)
			}
			seg, _, err := recvOne(cb, 2*time.Second)
			if err != nil {
				t.Fatal(err)
			}
			if string(seg.Payload) != "good" {
				t.Fatalf("delivered %q, want only the valid segment", seg.Payload)
			}
			cb.Recycle(seg.Raw)
			if m, c := cb.malformed.Load(), cb.crcFail.Load(); m != 2 || c != 0 {
				t.Fatalf("malformed %d crcFail %d, want 2 and 0", m, c)
			}
			traced := 0
			for _, e := range telemetry.DefaultTrace.Drain() {
				if e.Type == telemetry.EvDrop && e.Arg == telemetry.DropMalformed {
					traced++
				}
			}
			if traced != 2 {
				t.Fatalf("%d DropMalformed trace events, want 2", traced)
			}
		})
	}
}

// TestWriteRecordIntegrityOverCorruptingRD runs tagged Write-Record traffic
// through ddp over rudp over a corrupting faultnet link. Every placed byte
// must match the source, and the corruption must have been caught where
// integrity now lives — rudp's frame CRC — with the DDP CRC counter never
// moving: one check per frame, in exactly one layer.
func TestWriteRecordIntegrityOverCorruptingRD(t *testing.T) {
	net := simnet.New(simnet.Config{})
	open := func(node string, seed int64) *rudp.Endpoint {
		ep, err := net.OpenDatagram(node, 0)
		if err != nil {
			t.Fatal(err)
		}
		return rudp.New(faultnet.Wrap(ep, faultnet.Config{Seed: seed, CorruptRate: 0.1}))
	}
	ra, rb := open("a", 1), open("b", 2)
	ca, cb := NewDatagramChannel(ra), NewDatagramChannel(rb)
	defer ca.Close()
	defer cb.Close()

	const msgs, msgLen = 48, 12 << 10
	src := make([]byte, msgs*msgLen)
	for i := range src {
		src[i] = byte(i*31 + i>>9)
	}
	sent := make(chan error, 1)
	go func() {
		for i := 0; i < msgs; i++ {
			off := i * msgLen
			if err := ca.SendTagged(rb.LocalAddr(), 0x77, uint64(off), uint32(i), 0, nio.VecOf(src[off:off+msgLen])); err != nil {
				sent <- err
				return
			}
		}
		sent <- nil
	}()

	sink := make([]byte, len(src))
	segs := make([]Segment, 16)
	froms := make([]transport.Addr, 16)
	for placed := 0; placed < len(src); {
		n, err := cb.RecvBatch(segs, froms, 5*time.Second)
		if err != nil {
			t.Fatalf("after %d of %d bytes: %v", placed, len(src), err)
		}
		for _, s := range segs[:n] {
			if !s.Tagged || s.STag != 0x77 {
				t.Fatalf("unexpected segment %+v", s)
			}
			placed += copy(sink[s.TO:], s.Payload)
			cb.Recycle(s.Raw)
		}
	}
	if err := <-sent; err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(sink, src) {
		t.Fatal("placement diverges from the source")
	}
	if got := ra.Snapshot().CRCFailures + rb.Snapshot().CRCFailures; got == 0 {
		t.Fatal("rudp caught no corruption: the link did not exercise the check")
	}
	for _, ch := range []*DatagramChannel{ca, cb} {
		if c, m := ch.crcFail.Load(), ch.malformed.Load(); c != 0 || m != 0 {
			t.Fatalf("DDP dropped segments over rudp (crcFail %d, malformed %d): corruption got past the frame CRC", c, m)
		}
	}
}
