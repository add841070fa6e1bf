package main

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"time"

	diwarp "repro"
	"repro/internal/ddp"
	"repro/internal/memreg"
	"repro/internal/nio"
	"repro/internal/rdmap"
	"repro/internal/rudp"
	"repro/internal/simnet"
	"repro/internal/sockif"
	"repro/internal/transport"
)

// quiet is how long a lossy rig's receive call waits before it treats the
// path as drained and finalises unnotified messages (the paper's "poll with
// a defined timeout"). Lossless rigs block without a timer.
const quiet = 5 * time.Millisecond

// wire is the bottom of a stack: two raw endpoints, a sends to b.
type wire struct {
	a, b transport.Datagram
	net  *simnet.Network // nil on kernel UDP
}

func openUDP() (transport.Datagram, error) { return transport.ListenUDP("127.0.0.1", 0) }

func openWire(w workload, seed int64, loss float64) (*wire, error) {
	if w.udp {
		a, err := openUDP()
		if err != nil {
			return nil, err
		}
		b, err := openUDP()
		if err != nil {
			a.Close()
			return nil, err
		}
		return &wire{a: a, b: b}, nil
	}
	net := simnet.New(simnet.Config{LossRate: loss, Seed: seed})
	a, err := net.OpenDatagram("a", 0)
	if err != nil {
		return nil, err
	}
	b, err := net.OpenDatagram("b", 0)
	if err != nil {
		return nil, err
	}
	return &wire{a: a, b: b, net: net}, nil
}

// buildRig builds the stack of w up to layer. loss overrides w.loss (the RD
// loss probe runs a lossless workload's rudp rung on a lossy wire). It also
// returns the receiving raw endpoint, whose buffer pool the layers share.
func buildRig(w workload, layer string, seed int64, loss float64, t *tracker, src slots) (rig, transport.Datagram, error) {
	if layer == "sockif" {
		r, err := newSockRig(w, t, src)
		if err != nil {
			return nil, nil, err
		}
		return r, r.udp[1], nil
	}
	wi, err := openWire(w, seed, loss)
	if err != nil {
		return nil, nil, err
	}
	a, b := wi.a, wi.b
	if w.reliable && layer != "simnet" && layer != "transport" {
		a, b = rudp.New(a), rudp.New(b)
	}
	var r rig
	switch layer {
	case "simnet", "transport":
		// The layer above decides how the wire is driven: ddp sends and
		// receives in bursts, rudp one datagram at a time.
		r = newRawRig(w, a, b, !w.reliable, t, src)
	case "rudp":
		r = newRawRig(w, a, b, false, t, src)
	case "ddp":
		r = newDDPRig(w, a, b, t, src)
	case "core":
		r, err = newCoreRig(w, wi.net, a, b, t, src)
	case "msg":
		r, err = newMsgRig(w, a, b, t, src)
	default:
		err = fmt.Errorf("unknown layer %q", layer)
	}
	if err != nil {
		return nil, nil, err
	}
	return r, wi.b, nil
}

// check compares a received byte range with the same range of its slot.
func check(seq uint64, got, want []byte) error {
	if !bytes.Equal(got, want) {
		return fmt.Errorf("message %d: payload differs from source", seq)
	}
	return nil
}

// whole checks a message delivered in one piece — sequence header, length,
// pattern — against the slot it was sent from.
func (s slots) whole(p []byte) (seq uint64, bad error) {
	if len(p) < seqLen {
		return 0, fmt.Errorf("runt message of %d bytes", len(p))
	}
	seq = seqOf(p)
	want := s.of(seq)
	if len(p) != len(want) {
		return seq, fmt.Errorf("message %d: %d bytes, posted %d", seq, len(p), len(want))
	}
	return seq, check(seq, p[seqLen:], want[seqLen:])
}

// partial accumulates a multi-datagram message at the rungs below core,
// where the rig itself sees every datagram. A message ends at its last
// datagram or, when that was lost, at the first datagram of a newer one.
type partial struct {
	t     *tracker
	open  bool
	seq   uint64
	bytes int64
	bad   error

	quiet   bool   // the last receive timed out with the sender blocked
	quietAt uint64 // and this many messages posted
}

func (p *partial) add(seq uint64, n int, last bool, bad error) {
	p.quiet = false
	if p.open && seq != p.seq {
		p.end(0)
	}
	if !p.open {
		p.open, p.seq, p.bytes, p.bad = true, seq, 0, nil
	}
	p.bytes += int64(n)
	if bad != nil {
		p.bad = bad
	}
	if last {
		p.end(p.t.now())
	}
}

func (p *partial) end(at int64) {
	p.open = false
	p.t.deliver(p.seq, p.bytes, at, p.bad)
}

// timedOut is the lossy rigs' receive-timeout path. One timeout proves
// little: it may have begun before the sender blocked, and a receive can
// report it with datagrams queued (both became ready while the process was
// descheduled). Two in a row with nothing received between them, the sender
// blocked at both and nothing posted in between, mean the wire is empty and
// nothing more can arrive for what is outstanding; it is finalised.
func (p *partial) timedOut() {
	idle, posted := p.t.senderIdle.Load(), p.t.posted.Load()
	if idle && p.quiet && posted == p.quietAt {
		if p.open {
			p.end(0)
		}
		p.t.flush(posted)
	}
	p.quiet, p.quietAt = idle, posted
}

// ---------------------------------------------------------------- raw ------

// rawHdr prefixes every datagram the raw rig sends: seq(8) offset(4) total(4).
const rawHdr = 16

// rawRig drives a bare transport.Datagram — the wire itself, or rudp over
// it — with the workload's datagram shape: each message is cut into
// datagrams of the endpoint's maximum size, laid out once at build time so
// the send path copies nothing the layers above would not.
type rawRig struct {
	a, b  transport.Datagram
	to    transport.Addr
	batch bool
	recs  [][][]byte // per slot: the message's datagrams, header + pattern
	t     *tracker
	src   slots
	wait  time.Duration
}

func newRawRig(w workload, a, b transport.Datagram, batch bool, t *tracker, src slots) *rawRig {
	r := &rawRig{a: a, b: b, to: b.LocalAddr(), batch: batch, t: t, src: src}
	if w.lossy() {
		r.wait = quiet
	}
	chunk := a.MaxDatagram() - rawHdr
	for _, p := range src {
		var recs [][]byte
		for off := 0; off < len(p); off += chunk {
			n := min(chunk, len(p)-off)
			d := make([]byte, rawHdr+n)
			binary.BigEndian.PutUint32(d[8:], uint32(off))
			binary.BigEndian.PutUint32(d[12:], uint32(len(p)))
			copy(d[rawHdr:], p[off:off+n])
			recs = append(recs, d)
		}
		r.recs = append(r.recs, recs)
	}
	return r
}

func (r *rawRig) post(seq uint64, _ []byte) error {
	recs := r.recs[seq%uint64(len(r.recs))]
	for _, d := range recs {
		binary.BigEndian.PutUint64(d, seq)
	}
	if bs, ok := r.a.(transport.BatchSender); ok && r.batch {
		for len(recs) > 0 {
			n := min(len(recs), 32)
			if _, err := bs.SendBatch(recs[:n], r.to); err != nil {
				return err
			}
			recs = recs[n:]
		}
		return nil
	}
	for _, d := range recs {
		if err := r.a.SendTo(d, r.to); err != nil {
			return err
		}
	}
	return nil
}

func (r *rawRig) recv() {
	part := partial{t: r.t}
	rc, _ := r.b.(transport.Recycler)
	br, _ := r.b.(transport.BatchRecver)
	var pkts [32][]byte
	var froms [32]transport.Addr
	for {
		n := 1
		var err error
		if br != nil && r.batch {
			n, err = br.RecvBatch(pkts[:], froms[:], r.wait)
		} else {
			pkts[0], _, err = r.b.Recv(r.wait)
		}
		if errors.Is(err, transport.ErrTimeout) {
			part.timedOut()
			continue
		}
		if err != nil {
			return
		}
		for _, d := range pkts[:n] {
			r.one(&part, d)
			if rc != nil {
				rc.Recycle(d)
			}
		}
	}
}

func (r *rawRig) one(part *partial, d []byte) {
	if len(d) < rawHdr {
		part.add(part.seq, 0, false, fmt.Errorf("runt datagram of %d bytes", len(d)))
		return
	}
	seq := binary.BigEndian.Uint64(d)
	off := int(binary.BigEndian.Uint32(d[8:]))
	total := int(binary.BigEndian.Uint32(d[12:]))
	body := d[rawHdr:]
	want := r.src.of(seq)
	var bad error
	if total != len(want) || off+len(body) > total {
		bad = fmt.Errorf("message %d: bad datagram header off=%d total=%d", seq, off, total)
	} else if off == 0 {
		// The slot's first seqLen bytes are the upper rungs' header, which
		// this rung does not stamp; the datagram carries its build-time copy.
		bad = check(seq, body[seqLen:], want[seqLen:len(body)])
	} else {
		bad = check(seq, body, want[off:off+len(body)])
	}
	part.add(seq, len(body), off+len(body) == total, bad)
}

func (r *rawRig) close() {
	r.a.Close()
	r.b.Close()
}

// ---------------------------------------------------------------- ddp ------

// ddpRig drives ddp.DatagramChannel: untagged sends for eager-sized
// messages, tagged ones above, received segment by segment.
type ddpRig struct {
	a, b *ddp.DatagramChannel
	to   transport.Addr
	t    *tracker
	src  slots
	wait time.Duration
}

func newDDPRig(w workload, a, b transport.Datagram, t *tracker, src slots) *ddpRig {
	r := &ddpRig{a: ddp.NewDatagramChannel(a), b: ddp.NewDatagramChannel(b), to: b.LocalAddr(), t: t, src: src}
	if w.lossy() {
		r.wait = quiet
	}
	return r
}

func (r *ddpRig) post(seq uint64, p []byte) error {
	if tagged(len(p)) {
		stag := memreg.STag(1 + seq%uint64(len(r.src)))
		return r.a.SendTagged(r.to, stag, 0, uint32(seq), rdmap.Ctrl(rdmap.OpWriteRecord), nio.VecOf(p))
	}
	return r.a.SendUntagged(r.to, ddp.QNSend, uint32(seq), rdmap.Ctrl(rdmap.OpSend), nio.VecOf(p))
}

func (r *ddpRig) recv() {
	part := partial{t: r.t}
	var segs [32]ddp.Segment
	var froms [32]transport.Addr
	for {
		n, err := r.b.RecvBatch(segs[:], froms[:], r.wait)
		if errors.Is(err, transport.ErrTimeout) {
			part.timedOut()
			continue
		}
		if err != nil {
			return
		}
		for i := range segs[:n] {
			s := &segs[i]
			// The MSN carries the low 32 bits of seq; a run posts far fewer
			// than 2^32 messages.
			seq := uint64(s.MSN)
			off := int(s.MO)
			if s.Tagged {
				off = int(s.TO)
			}
			want := r.src.of(seq)
			var bad error
			if int(s.MsgLen) != len(want) || off+len(s.Payload) > len(want) {
				bad = fmt.Errorf("message %d: bad segment header off=%d len=%d", seq, off, s.MsgLen)
			} else {
				bad = check(seq, s.Payload, want[off:off+len(s.Payload)])
			}
			part.add(seq, len(s.Payload), s.Last, bad)
			r.b.Recycle(s.Raw)
			segs[i] = ddp.Segment{}
		}
	}
}

func (r *ddpRig) close() {
	r.a.Close()
	r.b.Close()
}

// --------------------------------------------------------------- core ------

// zeros is what a hole in a cleared sink must still hold.
var zeros = make([]byte, mib)

// coreRig drives the verbs: PostSend into posted receives for eager-sized
// messages, PostWriteRecord into a registered sink per slot above that, and
// the receive CQ for notifications.
type coreRig struct {
	na, nb *diwarp.Node
	qa, qb *diwarp.UDQP
	to     transport.Addr
	net    *simnet.Network
	lossy  bool
	t      *tracker
	src    slots

	rbufs [][]byte         // posted receives, WRID = index
	sinks []*diwarp.Region // per slot; nil for eager-sized slots
	slot  map[diwarp.STag]int
}

func newCoreRig(w workload, net *simnet.Network, a, b transport.Datagram, t *tracker, src slots) (*coreRig, error) {
	r := &coreRig{
		na: diwarp.NewNode(), nb: diwarp.NewNode(),
		to: b.LocalAddr(), net: net, lossy: w.lossy(), t: t, src: src,
		sinks: make([]*diwarp.Region, len(src)),
		slot:  make(map[diwarp.STag]int),
	}
	cfg := diwarp.UDConfig{BlockOnRNR: w.reliable}
	var err error
	if r.qa, err = r.na.OpenUD(a, cfg); err != nil {
		a.Close()
		b.Close()
		return nil, err
	}
	if r.qb, err = r.nb.OpenUD(b, cfg); err != nil {
		r.qa.Close()
		b.Close()
		return nil, err
	}
	for i, p := range src {
		if tagged(len(p)) {
			reg, err := r.nb.Register(make([]byte, len(p)), diwarp.RemoteWrite)
			if err != nil {
				r.close()
				return nil, err
			}
			r.sinks[i], r.slot[reg.STag()] = reg, i
			continue
		}
		// Two receives per eager slot: one can be reposted while the
		// window's worth is still in flight.
		for k := 0; k < 2; k++ {
			buf := make([]byte, len(p))
			if err := r.qb.PostRecv(uint64(len(r.rbufs)), buf); err != nil {
				r.close()
				return nil, err
			}
			r.rbufs = append(r.rbufs, buf)
		}
	}
	if w.lossy() {
		t.gap = r.unnotified
	}
	return r, nil
}

func (r *coreRig) post(seq uint64, p []byte) error {
	var err error
	if reg := r.sinks[seq%uint64(len(r.sinks))]; reg != nil {
		err = r.qa.PostWriteRecord(seq, r.to, reg.STag(), 0, nio.VecOf(p))
	} else {
		err = r.qa.PostSend(seq, r.to, nio.VecOf(p))
	}
	// The source completes at hand-off to the LLP; reap it like any verbs
	// sender so the send CQ never overruns.
	_, _ = r.na.SendCQ.Poll(0)
	return err
}

func (r *coreRig) recv() {
	wait := time.Duration(-1) // block without a timer
	if r.lossy {
		wait = quiet
	}
	for {
		e, err := r.nb.RecvCQ.Poll(wait)
		if err != nil {
			// Poll can time out with completions queued (both became ready
			// while the process was descheduled); only an empty CQ behind a
			// QP that has placed everything means nothing more is coming.
			if e, err = r.nb.RecvCQ.Poll(0); err != nil {
				if r.t.senderIdle.Load() && r.settled() && r.nb.RecvCQ.Len() == 0 {
					r.t.flush(r.t.posted.Load())
				}
				select {
				case <-r.t.done:
					return
				default:
					continue
				}
			}
		}
		at := r.t.now()
		switch {
		case e.Status == diwarp.StatusFlushed:
			return
		case e.Type == diwarp.WTRecv && e.Status == diwarp.StatusSuccess:
			buf := r.rbufs[e.WRID]
			seq, bad := r.src.whole(buf[:e.ByteLen])
			if err := r.qb.PostRecv(e.WRID, buf); err != nil && bad == nil {
				bad = err
			}
			r.t.deliver(seq, int64(e.ByteLen), at, bad)
		case e.Type == diwarp.WTWriteRecordRecv && e.Status == diwarp.StatusSuccess:
			slot, ok := r.slot[e.STag]
			if !ok {
				r.t.deliver(r.t.progress().next, 0, at, fmt.Errorf("write-record completion for unknown STag %#x", e.STag))
				continue
			}
			// Completions carry no WR id at the target; the slot's STag
			// names the one message outstanding in it.
			next := r.t.progress().next
			seq := next + (uint64(slot)+uint64(len(r.sinks))-next%uint64(len(r.sinks)))%uint64(len(r.sinks))
			if seq >= r.t.begun.Load() {
				// Nothing is outstanding in the slot. On a lossy path this is
				// a message the timeout path already finalised from the
				// sink's own map; anywhere else it is a duplicate.
				if !r.lossy {
					r.t.deliver(next, 0, at, fmt.Errorf("write-record completion for slot %d, which has nothing outstanding", slot))
				}
				continue
			}
			valid, bad := r.consume(seq, slot, e.Validity)
			if bad == nil && e.MsgLen != len(r.src[slot]) {
				bad = fmt.Errorf("message %d: announced %d bytes, posted %d", seq, e.MsgLen, len(r.src[slot]))
			}
			r.t.deliver(seq, valid, at, bad)
		default:
			r.t.deliver(r.t.progress().next, 0, at, fmt.Errorf("unexpected completion %v status %v: %v", e.Type, e.Status, e.Err))
		}
	}
}

// consume checks a Write-Record sink against its validity map — every valid
// interval byte-identical to the source, every hole untouched — and readies
// the slot for its next message. It returns the valid byte count.
func (r *coreRig) consume(seq uint64, slot int, v diwarp.ValidityMap) (int64, error) {
	reg := r.sinks[slot]
	sink, want := reg.Bytes(), r.src[slot]
	var bad error
	for _, iv := range v.Intervals() {
		if iv.End() > uint64(len(sink)) {
			bad = fmt.Errorf("message %d: validity %v outside the sink", seq, iv)
			break
		}
		if err := check(seq, sink[iv.Off:iv.End()], want[iv.Off:iv.End()]); err != nil && bad == nil {
			bad = err
		}
	}
	if !r.lossy {
		if !v.Complete(uint64(len(sink))) && bad == nil {
			bad = fmt.Errorf("message %d: holes %v on a lossless path", seq, v.Holes(uint64(len(sink))))
		}
		reg.ResetValidity()
		return int64(v.Covered()), bad
	}
	for _, h := range v.Holes(uint64(len(sink))) {
		if !bytes.Equal(sink[h.Off:h.End()], zeros[:h.Len]) && bad == nil {
			bad = fmt.Errorf("message %d: hole %v was written", seq, h)
		}
	}
	for _, iv := range v.Intervals() {
		clear(sink[iv.Off:min(iv.End(), uint64(len(sink)))])
	}
	reg.ResetValidity()
	return int64(v.Covered()), bad
}

// unnotified is the tracker's gap hook: a Write-Record message whose Last
// segment was lost never completes, but what did arrive is placed and
// recorded in the sink's own validity map, which the application reads once
// it gives up waiting (the timeout completion).
func (r *coreRig) unnotified(seq uint64) (int64, error) {
	slot := int(seq % uint64(len(r.sinks)))
	return r.consume(seq, slot, r.sinks[slot].Validity())
}

// settled reports whether the target QP has placed every datagram the
// network did not drop, i.e. nothing of what is outstanding is still queued.
func (r *coreRig) settled() bool {
	if r.net == nil {
		return false
	}
	c := r.net.Counters()
	s := r.qb.Stats()
	return s.PlacedSegments+s.PlaceErrors >= c.DatagramsSent-c.DatagramsLost
}

func (r *coreRig) close() {
	close(r.t.done)
	r.qa.Close()
	r.qb.Close()
}

// ---------------------------------------------------------------- msg ------

// msgRig drives the message layer: Send on one endpoint, the delivery
// handler on the other.
type msgRig struct {
	a, b *diwarp.MsgEndpoint
	to   transport.Addr
	t    *tracker
	src  slots
}

func newMsgRig(w workload, a, b transport.Datagram, t *tracker, src slots) (*msgRig, error) {
	r := &msgRig{to: b.LocalAddr(), t: t, src: src}
	var err error
	r.a, err = diwarp.OpenMsg(a, diwarp.MsgConfig{Reliable: w.reliable, Handler: func(m diwarp.Message) {
		m.Release()
		t.deliver(t.progress().next, 0, 0, errors.New("message delivered to the sending endpoint"))
	}})
	if err != nil {
		a.Close()
		b.Close()
		return nil, err
	}
	r.b, err = diwarp.OpenMsg(b, diwarp.MsgConfig{Reliable: w.reliable, Handler: r.handle})
	if err != nil {
		r.a.Close()
		b.Close()
		return nil, err
	}
	return r, nil
}

func (r *msgRig) post(_ uint64, p []byte) error { return r.a.Send(r.to, p) }

func (r *msgRig) handle(m diwarp.Message) {
	at := r.t.now()
	seq, bad := r.src.whole(m.Data)
	n := int64(len(m.Data))
	m.Release()
	r.t.deliver(seq, n, at, bad)
}

func (r *msgRig) recv() {}

func (r *msgRig) close() {
	r.a.Close()
	r.b.Close()
}

// ------------------------------------------------------------- sockif ------

// sockRig drives reliable datagram sockets over kernel UDP on loopback.
type sockRig struct {
	a, b *sockif.Socket
	to   transport.Addr
	udp  []*transport.UDPEndpoint // the kernel endpoints underneath, for BatchFeatures
	t    *tracker
	src  slots
}

func newSockRig(w workload, t *tracker, src slots) (*sockRig, error) {
	r := &sockRig{t: t, src: src}
	open := func(port uint16) (transport.Datagram, error) {
		ep, err := transport.ListenUDP("127.0.0.1", port)
		if err == nil {
			r.udp = append(r.udp, ep)
		}
		return ep, err
	}
	cfg := sockif.Config{OpenDatagram: open, Reliable: w.reliable}
	var err error
	if r.a, err = sockif.New(cfg).Socket(sockif.DatagramSocket); err != nil {
		return nil, err
	}
	if r.b, err = sockif.New(cfg).Socket(sockif.DatagramSocket); err != nil {
		r.a.Close()
		return nil, err
	}
	r.to = r.b.LocalAddr()
	return r, nil
}

func (r *sockRig) post(_ uint64, p []byte) error { return r.a.SendTo(p, r.to) }

func (r *sockRig) recv() {
	buf := make([]byte, 2*kib)
	for {
		n, _, err := r.b.RecvFrom(buf, time.Second)
		if errors.Is(err, transport.ErrTimeout) {
			continue
		}
		if err != nil {
			return
		}
		at := r.t.now()
		seq, bad := r.src.whole(buf[:n])
		r.t.deliver(seq, int64(n), at, bad)
	}
}

func (r *sockRig) close() {
	r.a.Close()
	r.b.Close()
}
