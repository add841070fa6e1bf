package ddp

import (
	"bytes"
	"errors"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/crcx"
	"repro/internal/memreg"
	"repro/internal/mpa"
	"repro/internal/nio"
	"repro/internal/simnet"
	"repro/internal/transport"
)

func TestHeaderRoundTripUntagged(t *testing.T) {
	in := Segment{
		Last:   true,
		RDMAP:  0x83,
		QN:     QNSend,
		MSN:    42,
		MO:     1000,
		MsgLen: 5000,
	}
	wire := AppendHeader(nil, &in)
	if len(wire) != UntaggedHdrLen {
		t.Fatalf("header length %d", len(wire))
	}
	wire = append(wire, []byte("payload")...)
	out, err := Parse(wire, false)
	if err != nil {
		t.Fatal(err)
	}
	in.Payload = []byte("payload")
	if out.Tagged != in.Tagged || out.Last != in.Last || out.RDMAP != in.RDMAP ||
		out.QN != in.QN || out.MSN != in.MSN || out.MO != in.MO || out.MsgLen != in.MsgLen ||
		!bytes.Equal(out.Payload, in.Payload) {
		t.Fatalf("round trip mismatch: %+v vs %+v", out, in)
	}
}

func TestHeaderRoundTripTagged(t *testing.T) {
	in := Segment{
		Tagged: true,
		RDMAP:  0x88,
		STag:   memreg.STag(0xDEADBEEF),
		TO:     1 << 40,
		MSN:    7,
		MsgLen: 123456,
	}
	wire := AppendHeader(nil, &in)
	if len(wire) != TaggedHdrLen {
		t.Fatalf("header length %d", len(wire))
	}
	out, err := Parse(wire, false)
	if err != nil {
		t.Fatal(err)
	}
	if !out.Tagged || out.Last || out.STag != in.STag || out.TO != in.TO ||
		out.MSN != in.MSN || out.MsgLen != in.MsgLen || out.RDMAP != in.RDMAP {
		t.Fatalf("round trip mismatch: %+v", out)
	}
}

func TestParseErrors(t *testing.T) {
	if _, err := Parse([]byte{1}, false); !errors.Is(err, ErrShort) {
		t.Fatalf("short: %v", err)
	}
	if _, err := Parse([]byte{2, 0}, false); !errors.Is(err, ErrBadVersion) {
		t.Fatalf("version: %v", err)
	}
	// Truncated tagged header.
	if _, err := Parse([]byte{1 | 0x80, 0, 1, 2, 3}, false); !errors.Is(err, ErrShort) {
		t.Fatalf("truncated tagged: %v", err)
	}
	// Truncated untagged header.
	if _, err := Parse([]byte{1, 0, 1, 2, 3}, false); !errors.Is(err, ErrShort) {
		t.Fatalf("truncated untagged: %v", err)
	}
	// Datagram shorter than a CRC trailer.
	if _, err := Parse([]byte{1, 2}, true); !errors.Is(err, ErrShort) {
		t.Fatalf("short crc: %v", err)
	}
}

func TestParseCRC(t *testing.T) {
	s := Segment{QN: QNSend, MSN: 1, MsgLen: 3, Last: true}
	pkt := AppendHeader(nil, &s)
	pkt = append(pkt, []byte("abc")...)
	pkt = nio.PutU32(pkt, crcx.Checksum(pkt))
	if _, err := Parse(pkt, true); err != nil {
		t.Fatalf("valid CRC rejected: %v", err)
	}
	pkt[5] ^= 0x01
	if _, err := Parse(pkt, true); !errors.Is(err, ErrCRC) {
		t.Fatalf("corrupt accepted: %v", err)
	}
}

// Property: header encode/decode is the identity on all field values.
func TestHeaderRoundTripQuick(t *testing.T) {
	f := func(tagged, last bool, rdmap byte, a, b, c, d uint32, to uint64) bool {
		in := Segment{Tagged: tagged, Last: last, RDMAP: rdmap, MSN: c, MsgLen: d}
		if tagged {
			in.STag = memreg.STag(a)
			in.TO = to
		} else {
			in.QN = a
			in.MO = b
		}
		out, err := Parse(AppendHeader(nil, &in), false)
		if err != nil {
			return false
		}
		return out.Tagged == in.Tagged && out.Last == in.Last && out.RDMAP == in.RDMAP &&
			out.QN == in.QN && out.MO == in.MO && out.STag == in.STag && out.TO == in.TO &&
			out.MSN == in.MSN && out.MsgLen == in.MsgLen && len(out.Payload) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// --- Datagram channel ---

func dgramPair(t *testing.T, cfg simnet.Config) (*DatagramChannel, *DatagramChannel) {
	t.Helper()
	n := simnet.New(cfg)
	a, err := n.OpenDatagram("a", 0)
	if err != nil {
		t.Fatal(err)
	}
	b, err := n.OpenDatagram("b", 0)
	if err != nil {
		t.Fatal(err)
	}
	ca, cb := NewDatagramChannel(a), NewDatagramChannel(b)
	t.Cleanup(func() { ca.Close(); cb.Close() })
	return ca, cb
}

// recvOne pulls one segment: RecvBatch with room for one.
func recvOne(ch *DatagramChannel, timeout time.Duration) (Segment, transport.Addr, error) {
	var seg [1]Segment
	var from [1]transport.Addr
	_, err := ch.RecvBatch(seg[:], from[:], timeout)
	return seg[0], from[0], err
}

func TestDatagramUntaggedSingleSegment(t *testing.T) {
	a, b := dgramPair(t, simnet.Config{})
	msg := []byte("single segment untagged")
	if err := a.SendUntagged(b.LocalAddr(), QNSend, 9, 0x03, nio.VecOf(msg)); err != nil {
		t.Fatal(err)
	}
	seg, from, err := recvOne(b, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if from != a.LocalAddr() {
		t.Fatalf("from = %v", from)
	}
	if seg.Tagged || !seg.Last || seg.QN != QNSend || seg.MSN != 9 || seg.RDMAP != 0x03 {
		t.Fatalf("segment: %+v", seg)
	}
	if !bytes.Equal(seg.Payload, msg) {
		t.Fatalf("payload %q", seg.Payload)
	}
	if int(seg.MsgLen) != len(msg) {
		t.Fatalf("MsgLen = %d", seg.MsgLen)
	}
}

// TestDatagramMultiSegmentReassembly checks what the receiver reassembles
// from: a message past the datagram limit leaves as self-describing
// segments whose MO/MsgLen/Last headers tile it exactly.
func TestDatagramMultiSegmentReassembly(t *testing.T) {
	a, b := dgramPair(t, simnet.Config{})
	// 150 KB message: 3 datagram segments at the 64 KB limit.
	msg := make([]byte, 150<<10)
	rand.New(rand.NewSource(2)).Read(msg)
	if err := a.SendUntagged(b.LocalAddr(), QNSend, 1, 0, nio.VecOf(msg)); err != nil {
		t.Fatal(err)
	}
	var segs []Segment
	for len(segs) < 3 {
		seg, _, err := recvOne(b, time.Second)
		if err != nil {
			t.Fatalf("after %d segments: %v", len(segs), err)
		}
		segs = append(segs, seg)
	}
	if seg, _, err := recvOne(b, 50*time.Millisecond); err == nil {
		t.Fatalf("unexpected 4th segment: MO %d, %d bytes", seg.MO, len(seg.Payload))
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i].MO < segs[j].MO })
	var got []byte
	for i, seg := range segs {
		if seg.Tagged || seg.QN != QNSend || seg.MSN != 1 || int(seg.MsgLen) != len(msg) {
			t.Fatalf("segment %d header: %+v", i, seg)
		}
		if int(seg.MO) != len(got) {
			t.Fatalf("segment %d: MO %d, want %d (segments must tile the message)", i, seg.MO, len(got))
		}
		if seg.Last != (i == len(segs)-1) {
			t.Fatalf("segment %d: Last = %v", i, seg.Last)
		}
		got = append(got, seg.Payload...)
	}
	if !bytes.Equal(got, msg) {
		t.Fatal("concatenated segments differ from the message")
	}
}

func TestDatagramTaggedSegments(t *testing.T) {
	a, b := dgramPair(t, simnet.Config{})
	payload := make([]byte, 100<<10)
	rand.New(rand.NewSource(3)).Read(payload)
	if err := a.SendTagged(b.LocalAddr(), memreg.STag(0x1234), 5000, 77, 0x88, nio.VecOf(payload)); err != nil {
		t.Fatal(err)
	}
	var placed int
	sink := make([]byte, 5000+len(payload))
	for placed < len(payload) {
		seg, _, err := recvOne(b, time.Second)
		if err != nil {
			t.Fatal(err)
		}
		if !seg.Tagged || seg.STag != memreg.STag(0x1234) || seg.MSN != 77 {
			t.Fatalf("segment: %+v", seg)
		}
		copy(sink[seg.TO:], seg.Payload)
		placed += len(seg.Payload)
		if int(seg.MsgLen) != len(payload) {
			t.Fatalf("MsgLen = %d", seg.MsgLen)
		}
	}
	if !bytes.Equal(sink[5000:], payload) {
		t.Fatal("tagged placement mismatch")
	}
}

func TestDatagramRecvTimeout(t *testing.T) {
	_, b := dgramPair(t, simnet.Config{})
	if _, _, err := recvOne(b, 20*time.Millisecond); !errors.Is(err, transport.ErrTimeout) {
		t.Fatalf("err = %v", err)
	}
}

func TestDatagramRecvDropsCorrupt(t *testing.T) {
	n := simnet.New(simnet.Config{})
	rawA, _ := n.OpenDatagram("a", 0)
	rawB, _ := n.OpenDatagram("b", 0)
	b := NewDatagramChannel(rawB)
	// Corrupt packet followed by a valid one: Recv must skip to the valid.
	s := Segment{QN: QNSend, MSN: 1, MsgLen: 2, Last: true}
	bad := AppendHeader(nil, &s)
	bad = append(bad, []byte("xy")...)
	bad = nio.PutU32(bad, crcx.Checksum(bad)^0xFFFF) // wrong CRC
	if err := rawA.SendTo(bad, rawB.LocalAddr()); err != nil {
		t.Fatal(err)
	}
	good := AppendHeader(nil, &s)
	good = append(good, []byte("ok")...)
	good = nio.PutU32(good, crcx.Checksum(good))
	if err := rawA.SendTo(good, rawB.LocalAddr()); err != nil {
		t.Fatal(err)
	}
	seg, _, err := recvOne(b, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if string(seg.Payload) != "ok" {
		t.Fatalf("payload %q", seg.Payload)
	}
}

// --- Stream channel ---

func streamChanPair(t *testing.T) (*StreamChannel, *StreamChannel) {
	t.Helper()
	n := simnet.New(simnet.Config{})
	l, err := n.Listen("srv", 0)
	if err != nil {
		t.Fatal(err)
	}
	type res struct {
		c   *mpa.Conn
		err error
	}
	ch := make(chan res, 1)
	go func() {
		s, err := l.Accept()
		if err != nil {
			ch <- res{nil, err}
			return
		}
		conn, _, err := mpa.Accept(s, mpa.Config{}, nil)
		ch <- res{conn, err}
	}()
	cs, err := n.Dial("cli", l.Addr())
	if err != nil {
		t.Fatal(err)
	}
	cc, _, err := mpa.Connect(cs, mpa.Config{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	r := <-ch
	if r.err != nil {
		t.Fatal(r.err)
	}
	a, b := NewStreamChannel(cc), NewStreamChannel(r.c)
	t.Cleanup(func() { a.Close(); b.Close() })
	return a, b
}

func TestStreamUntaggedSegmentsInOrder(t *testing.T) {
	a, b := streamChanPair(t)
	msg := make([]byte, 10000) // several MULPDU-sized segments
	rand.New(rand.NewSource(4)).Read(msg)
	go func() {
		if err := a.SendUntagged(QNSend, 3, 0x03, nio.VecOf(msg)); err != nil {
			t.Error(err)
		}
	}()
	var got []byte
	expectMO := uint32(0)
	for {
		seg, err := b.Recv()
		if err != nil {
			t.Fatal(err)
		}
		if seg.MO != expectMO {
			t.Fatalf("MO = %d, want %d", seg.MO, expectMO)
		}
		if seg.MSN != 3 || seg.QN != QNSend {
			t.Fatalf("segment: %+v", seg)
		}
		got = append(got, seg.Payload...)
		expectMO += uint32(len(seg.Payload))
		if seg.Last {
			break
		}
	}
	if !bytes.Equal(got, msg) {
		t.Fatal("stream reassembly mismatch")
	}
}

func TestStreamTaggedTOAdvances(t *testing.T) {
	a, b := streamChanPair(t)
	msg := make([]byte, 5000)
	rand.New(rand.NewSource(5)).Read(msg)
	const base = uint64(100)
	go func() {
		if err := a.SendTagged(memreg.STag(0xABC), base, 1, 0x80, nio.VecOf(msg)); err != nil {
			t.Error(err)
		}
	}()
	sink := make([]byte, base+uint64(len(msg)))
	for {
		seg, err := b.Recv()
		if err != nil {
			t.Fatal(err)
		}
		if !seg.Tagged || seg.STag != memreg.STag(0xABC) {
			t.Fatalf("segment: %+v", seg)
		}
		copy(sink[seg.TO:], seg.Payload)
		if seg.Last {
			break
		}
	}
	if !bytes.Equal(sink[base:], msg) {
		t.Fatal("tagged stream placement mismatch")
	}
}

func TestStreamZeroLengthMessage(t *testing.T) {
	a, b := streamChanPair(t)
	go func() {
		if err := a.SendUntagged(QNSend, 1, 0, nil); err != nil {
			t.Error(err)
		}
	}()
	seg, err := b.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if !seg.Last || len(seg.Payload) != 0 || seg.MsgLen != 0 {
		t.Fatalf("segment: %+v", seg)
	}
}
