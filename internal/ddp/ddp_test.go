package ddp

import (
	"bytes"
	"errors"
	"math/rand"
	"net/netip"
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

func TestDatagramMultiSegmentReassembly(t *testing.T) {
	a, b := dgramPair(t, simnet.Config{})
	// 150 KB message: 3 datagram segments at the 64 KB limit.
	msg := make([]byte, 150<<10)
	rand.New(rand.NewSource(2)).Read(msg)
	if err := a.SendUntagged(b.LocalAddr(), QNSend, 1, 0, nio.VecOf(msg)); err != nil {
		t.Fatal(err)
	}
	r := NewReassembler(0)
	var got []byte
	segs := 0
	for got == nil {
		seg, from, err := recvOne(b, time.Second)
		if err != nil {
			t.Fatal(err)
		}
		segs++
		if m, done := r.Add(from, &seg); done {
			got = m
		}
	}
	if segs != 3 {
		t.Fatalf("segments = %d, want 3", segs)
	}
	if !bytes.Equal(got, msg) {
		t.Fatal("reassembled message corrupt")
	}
	if r.Pending() != 0 {
		t.Fatalf("pending = %d", r.Pending())
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

// --- Reassembler ---

func mkSeg(msn, mo, msgLen uint32, last bool, payload []byte) *Segment {
	return &Segment{QN: QNSend, MSN: msn, MO: mo, MsgLen: msgLen, Last: last, Payload: payload}
}

var src = netip.MustParseAddrPort("10.0.0.2:1")

func TestReassemblerOutOfOrder(t *testing.T) {
	r := NewReassembler(0)
	if _, done := r.Add(src, mkSeg(1, 4, 8, true, []byte("５６７８")[:4])); done {
		t.Fatal("half message completed")
	}
	msg, done := r.Add(src, mkSeg(1, 0, 8, false, []byte("1234")))
	if !done {
		t.Fatal("message did not complete")
	}
	if string(msg[:4]) != "1234" {
		t.Fatalf("msg = %q", msg)
	}
}

func TestReassemblerDuplicateAbsorbed(t *testing.T) {
	r := NewReassembler(0)
	seg := mkSeg(1, 0, 8, false, []byte("1234"))
	r.Add(src, seg)
	r.Add(src, seg) // duplicate
	if r.Pending() != 1 {
		t.Fatalf("pending = %d", r.Pending())
	}
	if _, done := r.Add(src, mkSeg(1, 4, 8, true, []byte("5678"))); !done {
		t.Fatal("completion lost after duplicate")
	}
}

func TestReassemblerIndependentPeers(t *testing.T) {
	r := NewReassembler(0)
	src2 := netip.MustParseAddrPort("10.0.0.3:2")
	r.Add(src, mkSeg(1, 0, 8, false, []byte("aaaa")))
	r.Add(src2, mkSeg(1, 0, 8, false, []byte("bbbb")))
	if r.Pending() != 2 {
		t.Fatalf("pending = %d", r.Pending())
	}
	msg, done := r.Add(src2, mkSeg(1, 4, 8, true, []byte("BBBB")))
	if !done || string(msg) != "bbbbBBBB" {
		t.Fatalf("msg = %q done = %v", msg, done)
	}
}

func TestReassemblerOverflowSegmentDropped(t *testing.T) {
	r := NewReassembler(0)
	if _, done := r.Add(src, mkSeg(1, 6, 8, false, []byte("xxxx"))); done {
		t.Fatal("overflowing segment completed")
	}
	if r.Pending() != 0 {
		t.Fatal("overflowing segment retained")
	}
}

func TestReassemblerSweep(t *testing.T) {
	r := NewReassembler(50 * time.Millisecond)
	now := time.Unix(1000, 0)
	r.now = func() time.Time { return now }
	r.Add(src, mkSeg(1, 0, 8, false, []byte("aaaa")))
	if n := r.Sweep(); n != 0 {
		t.Fatalf("premature sweep dropped %d", n)
	}
	now = now.Add(time.Second)
	if n := r.Sweep(); n != 1 {
		t.Fatalf("sweep dropped %d, want 1", n)
	}
	if r.Pending() != 0 {
		t.Fatal("partial retained after sweep")
	}
}

func TestReassemblerMsnReuse(t *testing.T) {
	r := NewReassembler(0)
	// Stale partial with MsgLen 8 for MSN 1, then MSN 1 reused for an
	// entirely different 6-byte message.
	r.Add(src, mkSeg(1, 0, 8, false, []byte("old!")))
	r.Add(src, mkSeg(1, 0, 6, false, []byte("new")))
	msg, done := r.Add(src, mkSeg(1, 3, 6, true, []byte("msg")))
	if !done || string(msg) != "newmsg" {
		t.Fatalf("msg = %q done = %v", msg, done)
	}
}

// Property: for any message and any segment arrival order, reassembly
// returns the original bytes.
func TestReassemblerAnyOrderQuick(t *testing.T) {
	f := func(seed int64, szRaw uint16) bool {
		rng := rand.New(rand.NewSource(seed))
		size := int(szRaw)%5000 + 1
		msg := make([]byte, size)
		rng.Read(msg)
		segSize := 1 + rng.Intn(size)
		var segs []*Segment
		for off := 0; off < size; off += segSize {
			n := min(segSize, size-off)
			segs = append(segs, mkSeg(5, uint32(off), uint32(size), off+n == size, msg[off:off+n]))
		}
		r := NewReassembler(0)
		var got []byte
		for _, i := range rng.Perm(len(segs)) {
			if m, done := r.Add(src, segs[i]); done {
				got = m
			}
		}
		return got != nil && bytes.Equal(got, msg)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
