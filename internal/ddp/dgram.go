package ddp

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/crcx"
	"repro/internal/memreg"
	"repro/internal/nio"
	"repro/internal/rudp"
	"repro/internal/telemetry"
	"repro/internal/transport"
)

// maxBatchSegments and maxBatchBytes bound the segment buffers one message
// holds out of the pool at once — a send burst — by count and by the memory
// they add up to: enough to amortize the per-burst costs (one SendBatch
// call, one queue lock) without letting a 1 GB message pin a gigabyte of
// buffers. The byte bound keeps a burst of 64 KB segments inside the cache:
// the wire below reads each buffer again (simnet copies it into its own
// packet buffer, the kernel UDP path into its send arena), and a 2 MB burst
// written whole before the first is read back measured 9% less goodput on a
// 1 MiB message than four-segment bursts.
const (
	maxBatchSegments = 32
	maxBatchBytes    = 256 << 10
)

// DatagramChannel binds DDP to a datagram LLP: the paper's datagram-iWARP
// datapath (Figure 4, right column). There is no MPA layer — "MPA bypassed
// for datagrams" — because datagrams carry their own message boundaries.
//
// Integrity is checked once per frame, by whichever layer owns it. Over an
// unreliable LLP (raw simnet, kernel UDP, and any wrapper of them) every
// segment carries a CRC32C trailer, per the paper's operating conditions
// ("datagram-iWARP always requires the use of CRC32 when sending
// messages"): nothing else below would catch a damaged segment. Over an
// *rudp.Endpoint the segment is header + payload with no trailer, iWARP's
// own rule for an LLP that verifies the frame — over MPA, MPA owns the CRC
// and DDP carries none. rudp's CRC32C covers the whole frame and is checked
// before the frame is acknowledged or handed up, so a DDP CRC above it
// could only ever re-verify bytes already verified. NewDatagramChannel
// decides the framing once from the LLP's type; rudp only talks to rudp, so
// both ends agree, and a wrapper that hides the rudp endpoint falls back to
// the trailer — one extra pass, never zero checks.
//
// Segmentation differs from the stream binding in the way the paper
// describes: a message is cut into datagram-sized DDP segments (up to the
// 64 KB UDP limit), each of which the network below may fragment to the
// wire MTU. Loss of a wire fragment kills one segment, not the message —
// which is what lets Write-Record place the surviving segments.
//
// The send path is a batched, pool-backed pipeline that reads each payload
// byte once: each segment's header is written into its own buffer and its
// payload gathered behind it by a copy that checksums as it goes
// (nio.Vec.AppendRangeCRC), so the segment's CRC32C is known the moment its
// last byte lands. Over an unreliable LLP the buffer comes from the
// channel's own pool, the CRC is appended as the trailer, and the burst goes
// to the LLP's SendBatch. Over rudp the buffer is one of rudp's frame
// buffers (FramePool) and the burst goes to SendFrames with the running
// CRCs: rudp appends its trailer in place and finishes the frame CRC over
// those few bytes, so the payload is not copied or read again before the
// wire. The receive path pulls bursts through the LLP's RecvBatch and hands
// consumed buffers back through its Recycle. There is no per-channel send
// lock and no shared send buffer, so concurrent posters on one QP proceed
// independently — they contend only on the pool's striped free lists and
// (under simnet) one queue lock per batch.
type DatagramChannel struct {
	ep transport.Datagram
	// trailer is the per-segment CRC32C trailer length: crcx.Size over an
	// unreliable LLP, 0 over rudp (see the type comment). Fixed at
	// construction; MaxSegment, send and parseBatch all read it.
	trailer int
	// rd is the LLP when it is a bare rudp endpoint: segments are built in
	// its frame buffers and sent through its SendFrames. nil otherwise.
	rd *rudp.Endpoint

	pool     *nio.Pool // segment buffers: the channel's own (capacity ep.MaxDatagram()), or rd's frame pool
	burst    int       // segments per send burst: both bounds, at this LLP's MaxDatagram
	batchBuf sync.Pool // *sendBurst staging for send
	recvBuf  sync.Pool // *recvScratch staging for RecvBatch

	// lastPoolHits/Misses are the endpoint pool counters as of the last
	// pull; RecvBatch exports the per-batch delta into the registry handles
	// below. Guarded by pstatsMu (one acquisition per batch, off the
	// annotated fast path).
	pstatsMu       sync.Mutex
	lastPoolHits   int64
	lastPoolMisses int64

	// Channel counters live on the telemetry registry (DESIGN.md §4.6):
	// each channel's handles are exact for SendStats, and the registry
	// aggregates every channel for the process-wide scrape.
	batches       *telemetry.Counter   // SendBatch bursts issued
	segments      *telemetry.Counter   // wire segments emitted (batched or not)
	crcFail       *telemetry.Counter   // inbound segments dropped on the DDP CRC
	malformed     *telemetry.Counter   // inbound segments dropped as runts or bad versions
	batchHist     *telemetry.Histogram // segments per burst
	recvBatches   *telemetry.Counter   // RecvBatch bursts pulled
	recvSegments  *telemetry.Counter   // valid segments delivered upward
	recvBatchHist *telemetry.Histogram // datagrams per received burst
	recycled      *telemetry.Counter   // receive buffers returned to the LLP pool
	recvPoolHit   *telemetry.Counter   // endpoint receive-pool hits (delta-pulled)
	recvPoolMiss  *telemetry.Counter   // endpoint receive-pool misses (delta-pulled)
}

// maxRecvBurst bounds one RecvBatch pull from the LLP. It matches the send
// side's maxBatchSegments so a full send burst drains in one receive burst.
const maxRecvBurst = maxBatchSegments

// sendBurst stages one send burst: the segment buffers and, for rudp's
// SendFrames, each one's CRC32C. Pooled per channel so the send path
// allocates nothing.
type sendBurst struct {
	pkts [maxBatchSegments][]byte
	crcs [maxBatchSegments]uint32
}

// recvScratch is the staging area RecvBatch pulls raw datagrams into before
// CRC verification; pooled per channel so the receive path allocates nothing.
type recvScratch struct {
	pkts  [][]byte
	addrs []transport.Addr
}

// NewDatagramChannel wraps a datagram endpoint (raw simnet/UDP for UD, or
// an rudp.Endpoint for the reliable-datagram mode) and fixes the segment
// framing from it: no CRC trailer over rudp, the CRC32C trailer otherwise.
func NewDatagramChannel(ep transport.Datagram) *DatagramChannel {
	trailer, rd := crcx.Size, (*rudp.Endpoint)(nil)
	var pool *nio.Pool
	if r, ok := ep.(*rudp.Endpoint); ok {
		trailer, rd, pool = 0, r, r.FramePool()
	} else {
		pool = nio.NewPool(ep.MaxDatagram())
	}
	ch := &DatagramChannel{
		ep:            ep,
		trailer:       trailer,
		rd:            rd,
		pool:          pool,
		burst:         max(1, min(maxBatchSegments, maxBatchBytes/ep.MaxDatagram())),
		batches:       telemetry.Default.Counter("diwarp_ddp_batches_total"),
		segments:      telemetry.Default.Counter("diwarp_ddp_segments_total"),
		crcFail:       telemetry.Default.Counter("diwarp_ddp_crc_fail_total"),
		malformed:     telemetry.Default.Counter("diwarp_ddp_malformed_total"),
		batchHist:     telemetry.Default.Histogram("diwarp_ddp_batch_segments"),
		recvBatches:   telemetry.Default.Counter("diwarp_ddp_recv_batches_total"),
		recvSegments:  telemetry.Default.Counter("diwarp_ddp_recv_segments_total"),
		recvBatchHist: telemetry.Default.Histogram("diwarp_ddp_recv_batch_segments"),
		recycled:      telemetry.Default.Counter("diwarp_ddp_recycled_total"),
		recvPoolHit:   telemetry.Default.Counter("diwarp_ddp_recv_pool_hits_total"),
		recvPoolMiss:  telemetry.Default.Counter("diwarp_ddp_recv_pool_misses_total"),
	}
	ch.batchBuf.New = func() any { return new(sendBurst) }
	ch.recvBuf.New = func() any {
		return &recvScratch{
			pkts:  make([][]byte, maxRecvBurst),
			addrs: make([]transport.Addr, maxRecvBurst),
		}
	}
	return ch
}

// MaxSegment returns the largest DDP payload one datagram segment carries.
func (ch *DatagramChannel) MaxSegment() int {
	return ch.ep.MaxDatagram() - TaggedHdrLen - ch.trailer
}

// Endpoint returns the underlying datagram endpoint.
func (ch *DatagramChannel) Endpoint() transport.Datagram { return ch.ep }

// LocalAddr returns the bound address.
func (ch *DatagramChannel) LocalAddr() transport.Addr { return ch.ep.LocalAddr() }

// Close closes the underlying endpoint.
func (ch *DatagramChannel) Close() error { return ch.ep.Close() }

// SendStats reports the channel's send-side counters: bursts handed to the
// LLP, total wire segments emitted, and the segment-buffer pool's hit/miss
// counts (over rudp, its frame pool's).
func (ch *DatagramChannel) SendStats() (batches, segments, poolHits, poolMisses int64) {
	poolHits, poolMisses = ch.pool.Stats()
	return ch.batches.Load(), ch.segments.Load(), poolHits, poolMisses
}

// Recycle returns a fully-consumed receive buffer (a Segment's Raw field)
// to the LLP.
func (ch *DatagramChannel) Recycle(raw []byte) {
	if raw == nil {
		return
	}
	ch.ep.Recycle(raw)
	ch.recycled.Inc()
}

// SendUntagged segments one untagged message to the destination. Segments
// may be lost or reordered in flight; the headers carry enough state (MSN,
// MO, MsgLen, Last) for the receiver to place each one on arrival.
func (ch *DatagramChannel) SendUntagged(to transport.Addr, qn, msn uint32, rdmapCtrl byte, payload nio.Vec) error {
	return ch.send(to, &Segment{QN: qn, MSN: msn, RDMAP: rdmapCtrl}, payload)
}

// SendTagged segments one tagged message for direct placement at the
// destination. Used by RDMA Write-Record: each segment is independently
// placeable on arrival.
func (ch *DatagramChannel) SendTagged(to transport.Addr, stag memreg.STag, toff uint64, msn uint32, rdmapCtrl byte, payload nio.Vec) error {
	return ch.send(to, &Segment{Tagged: true, STag: stag, TO: toff, MSN: msn, RDMAP: rdmapCtrl}, payload)
}

// send cuts one message into per-segment pooled buffers — header, payload
// range gathered and checksummed in one pass, and the CRC32C trailer where
// the binding carries one — and hands them to the LLP in bursts. Buffer
// ownership: over an unreliable LLP every buffer is drawn from ch.pool,
// passed down while the LLP call is in flight (the LLP must not retain it,
// per the transport contract), and returned to the pool here before send
// returns. Over rudp every buffer is a frame buffer rudp's SendFrames takes
// over, sent or not.
//
//diwarp:hotpath
func (ch *DatagramChannel) send(to transport.Addr, proto *Segment, payload nio.Vec) error {
	total := payload.Len()
	if uint64(total) > uint64(^uint32(0)) {
		return errTooBig(total)
	}
	proto.MsgLen = uint32(total)
	maxSeg := ch.ep.MaxDatagram() - proto.HeaderLen() - ch.trailer

	sb := ch.batchBuf.Get().(*sendBurst)
	defer ch.batchBuf.Put(sb)
	k := 0
	flush := func() error {
		if k == 0 {
			return nil
		}
		pkts := sb.pkts[:k]
		var err error
		if ch.rd != nil {
			_, err = ch.rd.SendFrames(pkts, sb.crcs[:k], to)
		} else {
			_, err = ch.ep.SendBatch(pkts, to)
			for _, p := range pkts {
				ch.pool.Put(p)
			}
		}
		ch.batches.Inc()
		ch.segments.Add(int64(k))
		ch.batchHist.Observe(int64(k))
		clear(pkts)
		k = 0
		return err
	}
	off := 0
	for {
		n := min(maxSeg, total-off)
		proto.Last = off+n == total
		pkt := AppendHeader(ch.pool.Get(), proto)
		pkt, crc := payload.AppendRangeCRC(pkt, off, n, crcx.Checksum(pkt))
		if ch.trailer != 0 {
			pkt = nio.PutU32(pkt, crc)
		}
		sb.pkts[k], sb.crcs[k] = pkt, crc
		k++
		off += n
		if proto.Tagged {
			proto.TO += uint64(n)
		} else {
			proto.MO += uint32(n)
		}
		if proto.Last || k == ch.burst {
			if err := flush(); err != nil || proto.Last {
				return err
			}
		}
	}
}

// errTooBig is send's cold failure path, outlined so the annotated hot
// path stays fmt-free.
func errTooBig(n int) error {
	return fmt.Errorf("%w: %d bytes", ErrTooBig, n)
}

// dropBad disposes of a corrupt or malformed datagram: drop and keep
// receiving. The QP does not error out (paper §IV.B item 2). Every drop is
// counted and traced under its cause — a CRC mismatch (UD's error model), or
// a segment Parse rejects as a runt or an unknown version (over rudp, whose
// CRC already vouched for the bytes, the only way DDP drops). Outlined from
// the annotated batch parse loop as its cold path.
func (ch *DatagramChannel) dropBad(pkt []byte, from transport.Addr, err error) {
	if errors.Is(err, ErrCRC) {
		ch.crcFail.Inc()
		telemetry.DefaultTrace.Record(telemetry.EvCRCFail, telemetry.PeerToken(from), len(pkt), 0)
	} else {
		ch.malformed.Inc()
		telemetry.DefaultTrace.Record(telemetry.EvDrop, telemetry.PeerToken(from), len(pkt), telemetry.DropMalformed)
	}
	ch.Recycle(pkt)
}

// RecvBatch fills segs and froms with up to min(len(segs), len(froms))
// valid segments pulled from the LLP in one burst: a single RecvBatch call
// below pulls the raw datagrams, the burst is parsed segment-by-segment —
// CRC-verified first where the binding carries a trailer (crcx dispatches
// to hardware CRC32C) — and valid segments are handed up in place — each
// Segment's Payload aliases its Raw buffer, so nothing is re-copied.
// Segments failing CRC or parse are dropped and counted, per the paper's
// UD error model (errors are reported, the channel stays usable); a burst
// that was ALL bad pulls again until the deadline. A zero timeout blocks.
// Returns the number of valid segments; n ≥ 1 on nil error.
func (ch *DatagramChannel) RecvBatch(segs []Segment, froms []transport.Addr, timeout time.Duration) (int, error) {
	max := min(len(segs), len(froms))
	if max == 0 {
		return 0, nil
	}
	burst := min(max, maxRecvBurst)
	deadline := time.Time{}
	if timeout > 0 {
		deadline = time.Now().Add(timeout)
	}
	sc := ch.recvBuf.Get().(*recvScratch)
	defer ch.recvBuf.Put(sc)
	for {
		remaining := time.Duration(0)
		if !deadline.IsZero() {
			remaining = time.Until(deadline)
			if remaining <= 0 {
				return 0, transport.ErrTimeout
			}
		}
		n, err := ch.ep.RecvBatch(sc.pkts[:burst], sc.addrs[:burst], remaining)
		if err != nil {
			return 0, err
		}
		m := ch.parseBatch(sc.pkts[:n], sc.addrs[:n], segs, froms)
		ch.recvBatches.Inc()
		ch.recvBatchHist.Observe(int64(n))
		ch.recvSegments.Add(int64(m))
		ch.pullPoolStats()
		if m > 0 {
			return m, nil
		}
		// Whole burst was dropped: keep pulling.
	}
}

// parseBatch verifies and parses a burst of raw datagrams into segs/froms,
// returning how many were valid. Valid segments keep their raw buffer (no
// re-copy); invalid ones take the outlined cold path.
//
//diwarp:hotpath
func (ch *DatagramChannel) parseBatch(pkts [][]byte, addrs []transport.Addr, segs []Segment, froms []transport.Addr) int {
	withCRC := ch.trailer != 0
	m := 0
	for i, pkt := range pkts {
		seg, err := Parse(pkt, withCRC)
		if err != nil {
			ch.dropBad(pkt, addrs[i], err)
			pkts[i] = nil
			continue
		}
		seg.Raw = pkt
		segs[m], froms[m] = seg, addrs[i]
		pkts[i] = nil // drop the scratch reference: caller owns it now
		m++
	}
	return m
}

// pullPoolStats exports the endpoint receive pool's hit/miss counters into
// the registry as per-batch deltas. One mutex acquisition per burst, off the
// annotated parse loop. With a process-shared transport pool (simnet) every
// channel observes the same underlying counters, so the registry sum over
// channels can multiply-count; per-channel RecvStats reads stay exact.
func (ch *DatagramChannel) pullPoolStats() {
	hits, misses := ch.ep.RecvPoolStats()
	ch.pstatsMu.Lock()
	dh, dm := hits-ch.lastPoolHits, misses-ch.lastPoolMisses
	ch.lastPoolHits, ch.lastPoolMisses = hits, misses
	ch.pstatsMu.Unlock()
	if dh > 0 {
		ch.recvPoolHit.Add(dh)
	}
	if dm > 0 {
		ch.recvPoolMiss.Add(dm)
	}
}

// RecvStats reports the channel's receive-side counters: bursts pulled from
// the LLP's RecvBatch, valid segments delivered, buffers recycled to
// the LLP, and the endpoint receive pool's hit/miss counts as last pulled.
func (ch *DatagramChannel) RecvStats() (batches, segments, recycled, poolHits, poolMisses int64) {
	ch.pstatsMu.Lock()
	poolHits, poolMisses = ch.lastPoolHits, ch.lastPoolMisses
	ch.pstatsMu.Unlock()
	return ch.recvBatches.Load(), ch.recvSegments.Load(), ch.recycled.Load(), poolHits, poolMisses
}
