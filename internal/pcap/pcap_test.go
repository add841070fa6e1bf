package pcap

import (
	"bytes"
	"encoding/binary"
	"io"
	"net/netip"
	"testing"
	"time"

	"repro/internal/transport"
)

// fakeDgram is a loopback transport.Datagram for tap tests: SendTo queues,
// Recv dequeues.
type fakeDgram struct {
	local transport.Addr
	q     [][]byte
	from  []transport.Addr
}

func (f *fakeDgram) SendTo(p []byte, to transport.Addr) error {
	f.q = append(f.q, append([]byte(nil), p...))
	f.from = append(f.from, to)
	return nil
}

func (f *fakeDgram) Recv(time.Duration) ([]byte, transport.Addr, error) {
	if len(f.q) == 0 {
		return nil, transport.Addr{}, transport.ErrTimeout
	}
	p, from := f.q[0], f.from[0]
	f.q, f.from = f.q[1:], f.from[1:]
	return p, from, nil
}

// The batch half of the seam, as loops over the two calls above.
func (f *fakeDgram) SendBatch(pkts [][]byte, to transport.Addr) (int, error) {
	for _, p := range pkts {
		f.SendTo(p, to)
	}
	return len(pkts), nil
}

func (f *fakeDgram) RecvBatch(pkts [][]byte, froms []transport.Addr, timeout time.Duration) (n int, err error) {
	for n < len(pkts) && len(f.q) > 0 {
		pkts[n], froms[n], _ = f.Recv(timeout)
		n++
	}
	if n == 0 {
		return 0, transport.ErrTimeout
	}
	return n, nil
}

func (f *fakeDgram) Recycle([]byte)                {}
func (f *fakeDgram) RecvPoolStats() (int64, int64) { return 0, 0 }

func (f *fakeDgram) LocalAddr() transport.Addr { return f.local }
func (f *fakeDgram) MaxDatagram() int          { return 65000 }
func (f *fakeDgram) PathMTU() int              { return 1500 }
func (f *fakeDgram) Close() error              { return nil }

// fakeStream is an in-memory transport.Stream backed by a buffer.
type fakeStream struct {
	buf    bytes.Buffer
	l, r   transport.Addr
	closed bool
}

func (f *fakeStream) Read(p []byte) (int, error)  { return f.buf.Read(p) }
func (f *fakeStream) Write(p []byte) (int, error) { return f.buf.Write(p) }
func (f *fakeStream) Close() error                { f.closed = true; return nil }
func (f *fakeStream) LocalAddr() transport.Addr   { return f.l }
func (f *fakeStream) RemoteAddr() transport.Addr  { return f.r }

// pcapRecord is one parsed packet record.
type pcapRecord struct {
	inclLen uint32
	origLen uint32
	frame   []byte
}

// parsePcap validates the savefile header and splits the records,
// failing the test on any structural violation.
func parsePcap(t *testing.T, b []byte) []pcapRecord {
	t.Helper()
	if len(b) < 24 {
		t.Fatalf("pcap too short for file header: %d bytes", len(b))
	}
	if magic := binary.BigEndian.Uint32(b); magic != 0xa1b2c3d4 {
		t.Fatalf("magic = %#x, want 0xa1b2c3d4", magic)
	}
	if maj, minor := binary.BigEndian.Uint16(b[4:]), binary.BigEndian.Uint16(b[6:]); maj != 2 || minor != 4 {
		t.Fatalf("version = %d.%d, want 2.4", maj, minor)
	}
	snap := binary.BigEndian.Uint32(b[16:])
	if lt := binary.BigEndian.Uint32(b[20:]); lt != 1 {
		t.Fatalf("linktype = %d, want 1 (Ethernet)", lt)
	}
	var recs []pcapRecord
	b = b[24:]
	for len(b) > 0 {
		if len(b) < 16 {
			t.Fatalf("truncated record header: %d trailing bytes", len(b))
		}
		incl := binary.BigEndian.Uint32(b[8:])
		orig := binary.BigEndian.Uint32(b[12:])
		if incl != orig {
			t.Fatalf("record incl %d != orig %d (no truncation expected)", incl, orig)
		}
		if incl > snap {
			t.Fatalf("record length %d exceeds snaplen %d", incl, snap)
		}
		if uint32(len(b)-16) < incl {
			t.Fatalf("record claims %d bytes, only %d remain", incl, len(b)-16)
		}
		recs = append(recs, pcapRecord{inclLen: incl, origLen: orig, frame: b[16 : 16+incl]})
		b = b[16+incl:]
	}
	return recs
}

func TestDatagramTapPcap(t *testing.T) {
	var buf bytes.Buffer
	pw, err := NewWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	src := netip.MustParseAddrPort("10.1.2.3:4660")
	dst := netip.MustParseAddrPort("[2001:db8::10.20.30.40]:9")
	tap := TapDatagram(&fakeDgram{local: src}, pw)

	payloads := [][]byte{[]byte("alpha"), []byte("bee"), make([]byte, 1200)}
	for _, p := range payloads {
		if err := tap.SendTo(p, dst); err != nil {
			t.Fatal(err)
		}
	}
	// The fake loops sends back; tapped Recv captures the inbound leg too.
	if _, _, err := tap.Recv(0); err != nil {
		t.Fatal(err)
	}
	if err := pw.Close(); err != nil {
		t.Fatal(err)
	}

	recs := parsePcap(t, buf.Bytes())
	if int64(len(recs)) != pw.Packets() {
		t.Fatalf("parsed %d records, tap counter says %d", len(recs), pw.Packets())
	}
	if len(recs) != len(payloads)+1 {
		t.Fatalf("parsed %d records, want %d", len(recs), len(payloads)+1)
	}

	// First record: full header validation of the UDP encapsulation.
	f := recs[0].frame
	if et := binary.BigEndian.Uint16(f[12:]); et != 0x0800 {
		t.Fatalf("ethertype = %#x, want 0x0800", et)
	}
	ip := f[14:]
	if ip[0] != 0x45 {
		t.Fatalf("IP version/IHL = %#x, want 0x45", ip[0])
	}
	if ip[9] != 17 {
		t.Fatalf("IP proto = %d, want 17 (UDP)", ip[9])
	}
	if got := binary.BigEndian.Uint16(ip[2:]); int(got) != 20+8+len(payloads[0]) {
		t.Fatalf("IP total length = %d, want %d", got, 20+8+len(payloads[0]))
	}
	// A valid IPv4 header checksums to zero when re-summed over itself.
	if cs := onesComplement(ip[:20]); cs != 0 {
		t.Fatalf("IPv4 header checksum residue %#x, want 0", cs)
	}
	// An IPv4 address passes through; an IPv6 one is its low 32 bits.
	if !bytes.Equal(ip[12:16], []byte{10, 1, 2, 3}) {
		t.Fatalf("src IP = %v, want 10.1.2.3", ip[12:16])
	}
	if !bytes.Equal(ip[16:20], []byte{10, 20, 30, 40}) {
		t.Fatalf("dst IP = %v, want 10.20.30.40", ip[16:20])
	}
	udp := ip[20:]
	if sp := binary.BigEndian.Uint16(udp[0:]); sp != src.Port() {
		t.Fatalf("UDP src port = %d, want %d", sp, src.Port())
	}
	if dp := binary.BigEndian.Uint16(udp[2:]); dp != dst.Port() {
		t.Fatalf("UDP dst port = %d, want %d", dp, dst.Port())
	}
	if ul := binary.BigEndian.Uint16(udp[4:]); int(ul) != 8+len(payloads[0]) {
		t.Fatalf("UDP length = %d, want %d", ul, 8+len(payloads[0]))
	}
	if !bytes.Equal(udp[8:], payloads[0]) {
		t.Fatal("payload mismatch in capture")
	}
}

func TestStreamTapPcap(t *testing.T) {
	var buf bytes.Buffer
	pw, err := NewWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	inner := &fakeStream{
		l: netip.MustParseAddrPort("10.0.0.1:1"),
		r: netip.MustParseAddrPort("10.0.0.2:2"),
	}
	tap := TapStream(inner, pw)
	msg := []byte("stream chunk")
	if _, err := tap.Write(msg); err != nil {
		t.Fatal(err)
	}
	rd := make([]byte, len(msg))
	if _, err := io.ReadFull(tap, rd); err != nil {
		t.Fatal(err)
	}
	if err := tap.Close(); err != nil {
		t.Fatal(err)
	}
	if !inner.closed {
		t.Fatal("tap Close did not close the inner stream")
	}
	if err := pw.Close(); err != nil {
		t.Fatal(err)
	}

	// SYN, SYN|ACK, ACK, data out, data in, FIN|ACK, ACK = 7 records.
	recs := parsePcap(t, buf.Bytes())
	if len(recs) != 7 {
		t.Fatalf("parsed %d records, want 7", len(recs))
	}
	if int64(len(recs)) != pw.Packets() {
		t.Fatalf("parsed %d records, tap counter says %d", len(recs), pw.Packets())
	}
	wantFlags := []byte{0x02, 0x12, 0x10, 0x18, 0x18, 0x11, 0x10}
	for i, r := range recs {
		ip := r.frame[14:]
		if ip[9] != 6 {
			t.Fatalf("record %d: IP proto = %d, want 6 (TCP)", i, ip[9])
		}
		tcp := ip[20:]
		if tcp[13] != wantFlags[i] {
			t.Fatalf("record %d: TCP flags = %#x, want %#x", i, tcp[13], wantFlags[i])
		}
	}
	// The data segments carry the payload and sequence 1 (post-handshake).
	if seq := binary.BigEndian.Uint32(recs[3].frame[14+20+4:]); seq != 1 {
		t.Fatalf("first data seq = %d, want 1", seq)
	}
	if !bytes.Equal(recs[3].frame[14+20+20:], msg) {
		t.Fatal("outbound payload mismatch")
	}
}

func TestPcapWriterStickyError(t *testing.T) {
	pw, err := NewWriter(&failWriter{})
	if err != nil {
		t.Fatal(err)
	}
	tap := TapDatagram(&fakeDgram{local: netip.MustParseAddrPort("10.0.0.1:1")}, pw)
	// The datapath must not fail even though the capture sink does; the
	// header fits the bufio buffer, so the error surfaces on Close's flush.
	for i := 0; i < 10; i++ {
		if err := tap.SendTo(make([]byte, 60000), netip.MustParseAddrPort("10.0.0.2:2")); err != nil {
			t.Fatalf("tap leaked sink error into datapath: %v", err)
		}
	}
	if pw.Close() == nil {
		t.Fatal("Close must surface the sink error")
	}
}

type failWriter struct{}

func (failWriter) Write(p []byte) (int, error) { return 0, io.ErrClosedPipe }
