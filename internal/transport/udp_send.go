package transport

import (
	"sync"

	"repro/internal/telemetry"
)

// The send engine (DESIGN.md §4.9): SendTo and SendBatch copy datagrams
// into a bounded arena and return; one goroutine per endpoint swaps the
// arena for its empty twin and hands everything queued to the kernel, each
// run of same-destination datagrams in one call — a GSO send or a
// sendmmsg where the probe allows, the writeBatch loop otherwise. It is the
// arrangement a NIC has: the poster fills a descriptor queue, a separate
// engine drains it, so sends that arrive while the engine is busy (or, at
// GOMAXPROCS=1, before the poster yields) share one syscall instead of
// paying one each.
//
// The engine goroutine is the endpoint's only sender, so the kernel send
// state needs no lock, and datagrams leave in call order: an rudp ACK
// (SendTo) never overtakes the DATA queued before it (SendBatch).

const (
	// txArenaCap bounds the bytes one arena holds: one maximum datagram, so
	// any datagram fits an empty arena and a same-destination run of equal
	// sizes always fits one GSO send.
	txArenaCap = MaxDatagramSize
	// txArenaDatagrams bounds the datagrams one arena holds, so a queue of
	// tiny or empty datagrams stays as bounded as one of full-size ones.
	txArenaDatagrams = 1024
	// txArenaMin is an arena's first allocation: an endpoint that only ever
	// sends ACKs keeps a small one. Arenas double from here up to txArenaCap.
	txArenaMin = 4 << 10
	// txRunMax is the widest run the engine hands the kernel in one call:
	// UDP_MAX_SEGMENTS for a GSO send, and the width of one sendmmsg.
	txRunMax = 64
)

// mTxDropped counts datagrams the kernel refused after SendBatch had queued
// them: the caller was already told yes, so — like any kernel drop — they
// are lost, not errors.
var mTxDropped = telemetry.Default.Counter("diwarp_transport_tx_dropped_total")

// sendQueue is the send engine's state: the arena producers fill, its twin
// the engine drains, and the engine's lifecycle.
type sendQueue struct {
	mu     sync.Mutex
	work   sync.Cond // the engine waits here for datagrams or Close
	room   sync.Cond // producers wait here for an emptied arena
	fill   *txArena  // the arena producers append to; guarded by mu
	closed bool      // guarded by mu; no datagram is queued once set
	done   chan struct{}

	arenas [2]txArena
	views  [txRunMax][]byte // engine-only: one run's datagrams, sliced out of an arena
}

// txArena is one half of the double buffer: queued datagrams back to back
// in buf, one txSeg per datagram in queue order.
type txArena struct {
	buf  []byte
	segs []txSeg
}

// txSeg is one queued datagram: its destination, and where it ends in the
// arena (it starts where the previous one ends).
type txSeg struct {
	to  Addr
	end int
}

// start arms the queue and launches the engine goroutine for e.
func (q *sendQueue) start(e *UDPEndpoint) {
	q.work.L = &q.mu
	q.room.L = &q.mu
	q.fill = &q.arenas[0]
	q.done = make(chan struct{})
	go e.sendLoop()
}

// queue copies pkts, in order, into the fill arena for to, waiting for the
// engine to empty an arena whenever the next datagram does not fit. It
// returns how many datagrams were queued: all of them, or those before the
// endpoint closed.
func (q *sendQueue) queue(pkts [][]byte, to Addr) (int, error) {
	q.mu.Lock()
	if q.closed {
		q.mu.Unlock()
		return 0, ErrClosed
	}
	for i, p := range pkts {
		for !q.fill.fits(len(p)) {
			q.work.Signal()
			q.room.Wait()
			if q.closed {
				q.mu.Unlock()
				return i, ErrClosed
			}
		}
		q.fill.add(p, to)
	}
	q.work.Signal()
	q.mu.Unlock()
	return len(pkts), nil
}

// shut closes the queue to producers, wakes the engine and every waiting
// producer, and waits until the engine has sent everything queued and
// exited. It reports false if the queue was already shut.
func (q *sendQueue) shut() bool {
	q.mu.Lock()
	if q.closed {
		q.mu.Unlock()
		return false
	}
	q.closed = true
	q.work.Signal()
	q.room.Broadcast()
	q.mu.Unlock()
	<-q.done
	return true
}

// sendLoop is the engine goroutine: take the fill arena as soon as it holds
// anything, give producers its emptied twin, and send. It exits once the
// queue is shut and drained.
func (e *UDPEndpoint) sendLoop() {
	q := &e.tx
	defer close(q.done)
	for {
		q.mu.Lock()
		for len(q.fill.segs) == 0 && !q.closed {
			q.work.Wait()
		}
		a := q.fill
		if len(a.segs) == 0 {
			q.mu.Unlock()
			return // shut, and nothing left to send
		}
		if a == &q.arenas[0] {
			q.fill = &q.arenas[1]
		} else {
			q.fill = &q.arenas[0]
		}
		q.room.Broadcast()
		q.mu.Unlock()
		e.flush(a)
	}
}

// flush sends a taken arena, each run of consecutive same-destination
// datagrams in kernel calls of up to txRunMax, and empties it.
//
//diwarp:hotpath
func (e *UDPEndpoint) flush(a *txArena) {
	views := &e.tx.views
	start := 0
	for i := 0; i < len(a.segs); {
		to := a.segs[i].to
		k := 0
		for ; i < len(a.segs) && k < txRunMax && a.segs[i].to == to; i++ {
			views[k] = a.buf[start:a.segs[i].end]
			start = a.segs[i].end
			k++
		}
		e.sendRun(views[:k], to)
	}
	a.buf = a.buf[:0]
	a.segs = a.segs[:0]
}

// sendRun hands one run to the kernel: kernelBatch.sendBatch (one GSO send
// or one sendmmsg) where the probe allows, else the writeBatch loop. A
// datagram the kernel refuses is dropped and counted, and the rest of the
// run still goes.
//
//diwarp:hotpath
func (e *UDPEndpoint) sendRun(pkts [][]byte, to Addr) {
	for len(pkts) > 0 {
		var n int
		var err error
		if e.kern != nil && e.feats.Sendmmsg {
			n, err = e.kern.sendBatch(pkts, to)
		} else {
			n, err = e.writeBatch(pkts, to)
		}
		if err == nil {
			return
		}
		dropTx(pkts[n], to)
		pkts = pkts[n+1:]
	}
}

// dropTx records one refused datagram: the counter, and an EvDrop naming
// the cause.
func dropTx(p []byte, to Addr) {
	mTxDropped.Inc()
	telemetry.DefaultTrace.Record(telemetry.EvDrop, telemetry.PeerToken(to), len(p), telemetry.DropTxRefused)
}

// fits reports whether a datagram of n bytes can join the arena.
func (a *txArena) fits(n int) bool {
	return len(a.segs) < txArenaDatagrams && len(a.buf)+n <= txArenaCap
}

// add copies p onto the arena's tail; the caller has checked fits.
//
//diwarp:hotpath
func (a *txArena) add(p []byte, to Addr) {
	if len(a.buf)+len(p) > cap(a.buf) {
		a.grow(len(a.buf) + len(p))
	}
	a.buf = append(a.buf, p...)
	a.segs = append(a.segs, txSeg{to: to, end: len(a.buf)})
}

// grow doubles the arena's byte capacity, to at least need and at most
// txArenaCap.
func (a *txArena) grow(need int) {
	nb := make([]byte, len(a.buf), min(max(2*cap(a.buf), need, txArenaMin), txArenaCap))
	copy(nb, a.buf)
	a.buf = nb
}
