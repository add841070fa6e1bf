// Package pcap holds the wire taps: a [DatagramTap] or [StreamTap]
// interposes on the transport seam — the boundary between the iWARP stack
// and its LLP — and copies every datagram or stream chunk that crosses it
// into a standard pcap savefile, so any run (simnet or real sockets) can be
// opened in Wireshark. The taps decorate transport's interfaces and count
// into telemetry's registry, so they sit above both; keeping them out of
// telemetry is what lets transport import the registry.
//
// Traffic is re-encapsulated: datagrams as Ethernet/IPv4/UDP frames, stream
// chunks as Ethernet/IPv4/TCP segments with a synthetic handshake and
// tracked sequence numbers. An IPv4 transport.Addr keeps its address (simnet
// gives its named nodes 10.0.0.0/8 addresses, so captures of them are
// legible as they are); an IPv6 one, which the IPv4 encapsulation cannot
// carry, is recorded by its low 32 bits.
//
// All pcap integers are written big-endian with the standard magic; pcap
// readers detect byte order from the magic, and the tree's wire-format
// convention (wirecheck) is network order throughout.
package pcap

import (
	"bufio"
	"encoding/binary"
	"io"
	"sync"
	"time"

	"repro/internal/telemetry"
	"repro/internal/transport"
)

// pcap file constants.
const (
	pcapMagic       = 0xa1b2c3d4
	pcapVerMajor    = 2
	pcapVerMinor    = 4
	pcapSnapLen     = 65535 + 54 // worst-case frame: max datagram + headers
	pcapLinkEther   = 1          // LINKTYPE_ETHERNET
	pcapRecHdrLen   = 16
	etherHdrLen     = 14
	ipv4HdrLen      = 20
	udpHdrLen       = 8
	tcpHdrLen       = 20
	maxEncapPayload = 65535 - ipv4HdrLen - udpHdrLen // IPv4 total-length ceiling
)

// Writer serializes packets into pcap savefile format. It is safe for
// concurrent use (taps on both directions of a connection share one
// writer); writes are buffered and errors are sticky — a tap never fails
// the datapath it observes, so I/O errors surface through [Writer.Err]
// and Close rather than through SendTo/Recv.
type Writer struct {
	mu      sync.Mutex
	bw      *bufio.Writer
	under   io.Writer
	err     error
	ipID    uint16
	scratch [etherHdrLen + ipv4HdrLen + tcpHdrLen]byte
	hdr     [pcapRecHdrLen]byte

	packets *telemetry.Counter // also registered as diwarp_pcap_packets_total
	bytes   *telemetry.Counter
}

// NewWriter starts a pcap stream on w, writing the file header
// immediately. If w is an io.Closer, Close closes it after flushing.
func NewWriter(w io.Writer) (*Writer, error) {
	pw := &Writer{
		bw:      bufio.NewWriterSize(w, 64<<10),
		under:   w,
		packets: telemetry.Default.Counter("diwarp_pcap_packets_total"),
		bytes:   telemetry.Default.Counter("diwarp_pcap_bytes_total"),
	}
	var fh [24]byte
	binary.BigEndian.PutUint32(fh[0:], pcapMagic)
	binary.BigEndian.PutUint16(fh[4:], pcapVerMajor)
	binary.BigEndian.PutUint16(fh[6:], pcapVerMinor)
	// thiszone and sigfigs stay zero.
	binary.BigEndian.PutUint32(fh[16:], pcapSnapLen)
	binary.BigEndian.PutUint32(fh[20:], pcapLinkEther)
	if _, err := pw.bw.Write(fh[:]); err != nil {
		return nil, err
	}
	return pw, nil
}

// Packets returns how many packet records have been written.
func (pw *Writer) Packets() int64 { return pw.packets.Load() }

// Err returns the first write error, if any.
func (pw *Writer) Err() error {
	pw.mu.Lock()
	defer pw.mu.Unlock()
	return pw.err
}

// Close flushes the buffer and closes the underlying writer when it is a
// Closer.
func (pw *Writer) Close() error {
	pw.mu.Lock()
	defer pw.mu.Unlock()
	if ferr := pw.bw.Flush(); pw.err == nil {
		pw.err = ferr
	}
	if c, ok := pw.under.(io.Closer); ok {
		if cerr := c.Close(); pw.err == nil {
			pw.err = cerr
		}
	}
	return pw.err
}

// ipv4Of is an address as the capture's IPv4 header carries it: the
// low 32 bits of its 16-byte form, which for an IPv4 address is the address.
func ipv4Of(a transport.Addr) [4]byte {
	b := a.Addr().As16()
	return [4]byte(b[12:])
}

// onesComplement computes the RFC 1071 internet checksum of b.
func onesComplement(b []byte) uint16 {
	var sum uint32
	for len(b) >= 2 {
		sum += uint32(binary.BigEndian.Uint16(b))
		b = b[2:]
	}
	if len(b) == 1 {
		sum += uint32(b[0]) << 8
	}
	for sum>>16 != 0 {
		sum = sum&0xffff + sum>>16
	}
	return ^uint16(sum)
}

// writeFrame emits one pcap record: Ethernet + IPv4 + (UDP | TCP) headers
// built in the scratch buffer, then the payload. proto is 17 (UDP) or
// 6 (TCP); seq/ack/flags are used only for TCP.
func (pw *Writer) writeFrame(src, dst transport.Addr, proto byte, seq, ack uint32, flags byte, payload []byte) {
	pw.mu.Lock()
	defer pw.mu.Unlock()
	if pw.err != nil {
		return
	}
	sip, dip := ipv4Of(src), ipv4Of(dst)
	l4len := udpHdrLen
	if proto == 6 {
		l4len = tcpHdrLen
	}
	totLen := ipv4HdrLen + l4len + len(payload)
	frame := pw.scratch[:etherHdrLen+ipv4HdrLen+l4len]

	// Ethernet: locally-administered MACs derived from the IPs.
	copy(frame[0:6], []byte{0x02, 0x00, dip[0], dip[1], dip[2], dip[3]})
	copy(frame[6:12], []byte{0x02, 0x00, sip[0], sip[1], sip[2], sip[3]})
	binary.BigEndian.PutUint16(frame[12:], 0x0800)

	// IPv4 header.
	ip := frame[etherHdrLen:]
	ip[0] = 0x45
	ip[1] = 0
	binary.BigEndian.PutUint16(ip[2:], uint16(totLen))
	pw.ipID++
	binary.BigEndian.PutUint16(ip[4:], pw.ipID)
	binary.BigEndian.PutUint16(ip[6:], 0) // no fragmentation in the encap
	ip[8] = 64
	ip[9] = proto
	binary.BigEndian.PutUint16(ip[10:], 0)
	copy(ip[12:16], sip[:])
	copy(ip[16:20], dip[:])
	binary.BigEndian.PutUint16(ip[10:], onesComplement(ip[:ipv4HdrLen]))

	// Transport header.
	l4 := ip[ipv4HdrLen:]
	binary.BigEndian.PutUint16(l4[0:], src.Port())
	binary.BigEndian.PutUint16(l4[2:], dst.Port())
	if proto == 17 {
		binary.BigEndian.PutUint16(l4[4:], uint16(udpHdrLen+len(payload)))
		binary.BigEndian.PutUint16(l4[6:], 0) // UDP checksum 0: "not computed"
	} else {
		binary.BigEndian.PutUint32(l4[4:], seq)
		binary.BigEndian.PutUint32(l4[8:], ack)
		l4[12] = tcpHdrLen / 4 << 4
		l4[13] = flags
		binary.BigEndian.PutUint16(l4[14:], 0xffff) // window
		binary.BigEndian.PutUint16(l4[16:], 0)      // checksum: see below
		binary.BigEndian.PutUint16(l4[18:], 0)      // urgent
		binary.BigEndian.PutUint16(l4[16:], tcpChecksum(sip, dip, l4[:tcpHdrLen], payload))
	}

	// Record header: seconds, microseconds, captured length, original length.
	now := time.Now()
	wire := etherHdrLen + totLen
	binary.BigEndian.PutUint32(pw.hdr[0:], uint32(now.Unix()))
	binary.BigEndian.PutUint32(pw.hdr[4:], uint32(now.Nanosecond()/1e3))
	binary.BigEndian.PutUint32(pw.hdr[8:], uint32(wire))
	binary.BigEndian.PutUint32(pw.hdr[12:], uint32(wire))

	if _, err := pw.bw.Write(pw.hdr[:]); err != nil {
		pw.err = err
		return
	}
	if _, err := pw.bw.Write(frame); err != nil {
		pw.err = err
		return
	}
	if _, err := pw.bw.Write(payload); err != nil {
		pw.err = err
		return
	}
	pw.packets.Inc()
	pw.bytes.Add(int64(wire))
}

// tcpChecksum computes the TCP checksum over the IPv4 pseudo-header,
// header, and payload.
func tcpChecksum(sip, dip [4]byte, hdr, payload []byte) uint16 {
	var pseudo [12]byte
	copy(pseudo[0:4], sip[:])
	copy(pseudo[4:8], dip[:])
	pseudo[9] = 6
	binary.BigEndian.PutUint16(pseudo[10:], uint16(len(hdr)+len(payload)))
	var sum uint32
	add := func(b []byte) {
		for len(b) >= 2 {
			sum += uint32(binary.BigEndian.Uint16(b))
			b = b[2:]
		}
		if len(b) == 1 {
			sum += uint32(b[0]) << 8
		}
	}
	add(pseudo[:])
	add(hdr)
	add(payload)
	for sum>>16 != 0 {
		sum = sum&0xffff + sum>>16
	}
	return ^uint16(sum)
}

// DatagramTap wraps a transport.Datagram, mirroring every datagram that
// crosses it into a pcap file as a UDP packet and counting transport-seam
// traffic into the registry. Bursts pass through as bursts, so a tapped LLP
// keeps its batched, pooled datapath. Closing the tap closes the inner
// endpoint but NOT the writer — both directions of a simnet pair typically
// share one Writer, which the caller closes once.
type DatagramTap struct {
	inner transport.Datagram
	pw    *Writer

	sent, recvd           *telemetry.Counter
	sentBytes, recvdBytes *telemetry.Counter
}

// TapDatagram interposes a pcap tap over inner, writing to pw.
func TapDatagram(inner transport.Datagram, pw *Writer) *DatagramTap {
	return &DatagramTap{
		inner:      inner,
		pw:         pw,
		sent:       telemetry.Default.Counter("diwarp_transport_datagrams_sent_total"),
		recvd:      telemetry.Default.Counter("diwarp_transport_datagrams_recv_total"),
		sentBytes:  telemetry.Default.Counter("diwarp_transport_bytes_sent_total"),
		recvdBytes: telemetry.Default.Counter("diwarp_transport_bytes_recv_total"),
	}
}

// sentOne captures and counts one datagram the inner endpoint accepted.
// local is the inner endpoint's address, looked up once per call into the
// tap.
func (t *DatagramTap) sentOne(local transport.Addr, p []byte, to transport.Addr) {
	t.pw.writeFrame(local, to, 17, 0, 0, 0, p)
	t.sent.Inc()
	t.sentBytes.Add(int64(len(p)))
}

// recvdOne captures and counts one datagram the inner endpoint delivered.
func (t *DatagramTap) recvdOne(local transport.Addr, p []byte, from transport.Addr) {
	t.pw.writeFrame(from, local, 17, 0, 0, 0, p)
	t.recvd.Inc()
	t.recvdBytes.Add(int64(len(p)))
}

// SendTo implements transport.Datagram.
func (t *DatagramTap) SendTo(p []byte, to transport.Addr) error {
	err := t.inner.SendTo(p, to)
	if err == nil {
		t.sentOne(t.inner.LocalAddr(), p, to)
	}
	return err
}

// SendBatch implements transport.Datagram. Only datagrams actually handed
// to the network are captured.
func (t *DatagramTap) SendBatch(pkts [][]byte, to transport.Addr) (int, error) {
	n, err := t.inner.SendBatch(pkts, to)
	local := t.inner.LocalAddr()
	for _, p := range pkts[:n] {
		t.sentOne(local, p, to)
	}
	return n, err
}

// Recv implements transport.Datagram.
func (t *DatagramTap) Recv(timeout time.Duration) ([]byte, transport.Addr, error) {
	p, from, err := t.inner.Recv(timeout)
	if err == nil {
		t.recvdOne(t.inner.LocalAddr(), p, from)
	}
	return p, from, err
}

// RecvBatch implements transport.Datagram. Every datagram in the burst is
// captured and counted.
func (t *DatagramTap) RecvBatch(pkts [][]byte, froms []transport.Addr, timeout time.Duration) (int, error) {
	n, err := t.inner.RecvBatch(pkts, froms, timeout)
	local := t.inner.LocalAddr()
	for i := 0; i < n; i++ {
		t.recvdOne(local, pkts[i], froms[i])
	}
	return n, err
}

// Recycle implements transport.Datagram.
func (t *DatagramTap) Recycle(p []byte) { t.inner.Recycle(p) }

// RecvPoolStats implements transport.Datagram.
func (t *DatagramTap) RecvPoolStats() (hits, misses int64) { return t.inner.RecvPoolStats() }

// LocalAddr implements transport.Datagram.
func (t *DatagramTap) LocalAddr() transport.Addr { return t.inner.LocalAddr() }

// MaxDatagram implements transport.Datagram.
func (t *DatagramTap) MaxDatagram() int { return t.inner.MaxDatagram() }

// PathMTU implements transport.Datagram.
func (t *DatagramTap) PathMTU() int { return t.inner.PathMTU() }

// Close implements transport.Datagram.
func (t *DatagramTap) Close() error { return t.inner.Close() }

// StreamTap wraps a transport.Stream (the RC mode's LLP), mirroring reads
// and writes into the pcap file as TCP segments. A synthetic three-way
// handshake is emitted at tap time so protocol analyzers track the
// conversation; sequence numbers count actual bytes in each direction.
type StreamTap struct {
	inner transport.Stream
	pw    *Writer

	mu    sync.Mutex
	txSeq uint32 // next local→remote sequence number
	rxSeq uint32 // next remote→local sequence number
}

var _ transport.Stream = (*StreamTap)(nil)

// TapStream interposes a pcap tap over inner, writing to pw.
func TapStream(inner transport.Stream, pw *Writer) *StreamTap {
	t := &StreamTap{inner: inner, pw: pw}
	l, r := inner.LocalAddr(), inner.RemoteAddr()
	pw.writeFrame(l, r, 6, 0, 0, 0x02, nil) // SYN
	pw.writeFrame(r, l, 6, 0, 1, 0x12, nil) // SYN|ACK
	pw.writeFrame(l, r, 6, 1, 1, 0x10, nil) // ACK
	t.txSeq, t.rxSeq = 1, 1
	return t
}

// record splits one direction's chunk into IPv4-sized TCP segments.
func (t *StreamTap) record(src, dst transport.Addr, seq, ack *uint32, p []byte) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for len(p) > 0 {
		n := min(len(p), maxEncapPayload)
		t.pw.writeFrame(src, dst, 6, *seq, *ack, 0x18, p[:n]) // PSH|ACK
		*seq += uint32(n)
		p = p[n:]
	}
}

// Read implements transport.Stream.
func (t *StreamTap) Read(p []byte) (int, error) {
	n, err := t.inner.Read(p)
	if n > 0 {
		t.record(t.inner.RemoteAddr(), t.inner.LocalAddr(), &t.rxSeq, &t.txSeq, p[:n])
	}
	return n, err
}

// Write implements transport.Stream.
func (t *StreamTap) Write(p []byte) (int, error) {
	n, err := t.inner.Write(p)
	if n > 0 {
		t.record(t.inner.LocalAddr(), t.inner.RemoteAddr(), &t.txSeq, &t.rxSeq, p[:n])
	}
	return n, err
}

// LocalAddr implements transport.Stream.
func (t *StreamTap) LocalAddr() transport.Addr { return t.inner.LocalAddr() }

// RemoteAddr implements transport.Stream.
func (t *StreamTap) RemoteAddr() transport.Addr { return t.inner.RemoteAddr() }

// Close implements transport.Stream, emitting a FIN pair for the capture.
func (t *StreamTap) Close() error {
	t.mu.Lock()
	l, r := t.inner.LocalAddr(), t.inner.RemoteAddr()
	t.pw.writeFrame(l, r, 6, t.txSeq, t.rxSeq, 0x11, nil) // FIN|ACK
	t.pw.writeFrame(r, l, 6, t.rxSeq, t.txSeq+1, 0x10, nil)
	t.mu.Unlock()
	return t.inner.Close()
}
